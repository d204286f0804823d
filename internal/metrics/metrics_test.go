package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("items")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("items") != c {
		t.Error("Counter did not return the existing instrument")
	}

	g := r.Gauge("busy")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 || g.Max() != 2 {
		t.Errorf("gauge = (%d, max %d), want (1, 2)", g.Value(), g.Max())
	}
}

func TestGaugeMaxUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("busy")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Errorf("gauge value = %d after balanced inc/dec, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > 8 {
		t.Errorf("gauge max = %d, want within [1, 8]", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 500ns lands in the first bucket (< 1µs); 3µs in the < 4µs bucket;
	// an hour lands in the overflow bucket.
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Hour)
	s := h.snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	want := map[int64]int64{1: 1, 4: 1, -1: 1}
	for _, b := range s.Buckets {
		if want[b.UpperMicros] != b.Count {
			t.Errorf("bucket le_us=%d count=%d, want %d", b.UpperMicros, b.Count, want[b.UpperMicros])
		}
		delete(want, b.UpperMicros)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
}

func TestSnapshotAndWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(7)
	r.Gauge("inflight").Inc()
	r.Histogram("lat").Observe(2 * time.Millisecond)
	r.Func("external", func() int64 { return 42 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"hits", "inflight", "lat", "external"} {
		if _, ok := got[key]; !ok {
			t.Errorf("snapshot missing %q", key)
		}
	}
	if string(got["hits"]) != "7" || string(got["external"]) != "42" {
		t.Errorf("hits=%s external=%s, want 7 and 42", got["hits"], got["external"])
	}
}
