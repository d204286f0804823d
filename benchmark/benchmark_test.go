package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

// smallConfig runs a workload on one small model for one pass or eight
// requests, untraced and traced.
func smallConfig(t *testing.T, name string) runConfig {
	t.Helper()
	def, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	prof := profile{models: []string{"AlexNet-ES"}, channelScale: 0.1, spatialScale: 0.25, trials: 2}
	if name == "design-cold" {
		prof.models = []string{"MobileNet"}
	}
	cfg := runConfig{def: def, prof: prof, seed: 1, setups: 1, windowOps: 1, tracedOps: 1}
	if def.traced == tracedRequests {
		cfg.windowOps, cfg.tracedOps = 8, 8
	}
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestWorkloadsSmoke(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), smallConfig(t, def.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("checks failed: %v", res.Problems)
			}
			for _, set := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
				for name, v := range set {
					if !metricName.MatchString(name) || v.Unit == "" {
						t.Errorf("metric %q unit %q: want a name matching %s and a unit", name, v.Unit, metricName)
					}
				}
			}
			if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
				t.Errorf("got %d end-to-end and %d per-layer metrics, want %d and %d",
					len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
			}
			for _, name := range []string{"latency_p50_ms", "throughput_ops_s", "live_heap_mb"} {
				if res.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.EndToEnd[name].Value)
				}
			}
			checkTrace(t, res.spans)
			layer := func(name string) float64 { return res.PerLayer[name].Value }
			if c := layer("trace.coverage_ratio"); c < 0.95 {
				t.Errorf("layer spans cover %.3f of each op, want >= 0.95", c)
			}
			switch def.name {
			case "zoo-warm":
				if layer("sched.hit_ratio") != 1 || layer("nn.build_ms") != 0 {
					t.Errorf("sched.hit_ratio %v and nn.build_ms %v, want 1 and 0", layer("sched.hit_ratio"), layer("nn.build_ms"))
				}
			case "design-cold":
				if layer("sched.hits") != 0 || layer("sched.misses") == 0 {
					t.Errorf("sched.hits %v and sched.misses %v, want 0 and > 0", layer("sched.hits"), layer("sched.misses"))
				}
			case "serve-hot":
				if layer("serve.cache_ratio") != 1 {
					t.Errorf("serve.cache_ratio = %v, want 1", layer("serve.cache_ratio"))
				}
			case "serve-mixed":
				if layer("serve.engine_ratio") == 0 {
					t.Error("serve.engine_ratio = 0, want fresh requests to run the engine")
				}
			}
		})
	}
}

// checkTrace round-trips the spans through the Chrome trace format and
// checks that no span's children have more self time than it has duration.
func checkTrace(t *testing.T, spans []span) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(f.TraceEvents) == 0 || len(f.TraceEvents) != len(spans) {
		t.Fatalf("trace has %d events for %d spans", len(f.TraceEvents), len(spans))
	}
	childSelf := make([]float64, len(f.TraceEvents))
	for _, e := range f.TraceEvents {
		if p := int(e.Args["parent"].(float64)); p >= 0 {
			childSelf[p] += e.Args["self_us"].(float64)
		}
	}
	for i, e := range f.TraceEvents {
		if childSelf[i] > e.Dur+1e-3 {
			t.Errorf("span %d (%s): children's self time %.1fus exceeds its duration %.1fus", i, e.Name, childSelf[i], e.Dur)
		}
	}
}

// lastLine decodes the JSON line the command prints last.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

func TestDoctoredDigestExitsNonZero(t *testing.T) {
	cfg := smallConfig(t, "zoo-warm")
	cfg.tracedOps = 0
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cfg.expect = res.Digest
	if code := execute(context.Background(), options{}, cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with the run's own digest; stderr:\n%s", code, &stderr)
	}

	doctored := *res.Digest
	doctored.Cells = map[string][2]int64{}
	for name, c := range res.Digest.Cells {
		doctored.Cells[name] = [2]int64{c[0] + 1, c[1]}
	}
	cfg.expect = &doctored
	stdout.Reset()
	if code := execute(context.Background(), options{}, cfg, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0 against a doctored digest")
	}
	if line := lastLine(t, stdout.String()); line["correct"] != false || line["failed"].(float64) < 1 {
		t.Errorf("last line %v, want correct false and failed >= 1", line)
	}
}

func TestRecordFillsOneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expected.json")
	a := &digest{Cells: map[string][2]int64{"m|c": {3, 5}}, Layers: "aa"}
	b := &digest{Cells: map[string][2]int64{"m|d": {7, 9}}, Layers: "bb", Tables: []string{"t"}}
	if err := record(path, "zoo-warm", a); err != nil {
		t.Fatal(err)
	}
	if err := record(path, "design-cold", b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseExpectations(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (expectations{"zoo-warm": a, "design-cold": b}); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded %v, want %v", got, want)
	}
}

func TestDoctoredReplyCounted(t *testing.T) {
	cfg := smallConfig(t, "serve-hot")
	cfg.tracedOps = 0
	primes := len(cfg.prof.models)
	var posts atomic.Int64
	cfg.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The first request after priming is buffered; change one cycle count.
			if r.URL.Path != "/v1/simulate" || int(posts.Add(1)) != primes+1 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"cycles": `), []byte(`"cycles": 1`), 1)
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted != 1+cfg.windowOps || res.Correct {
		t.Errorf("failed %d of %d attempted (correct %v), want 1 of %d", res.Failed, res.Attempted, res.Correct, 1+cfg.windowOps)
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, catalogue %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) || !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the catalogue in metrics.go")
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAgree(t *testing.T) {
	write := func(dir string, r *result) {
		t.Helper()
		if err := writeResult(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	set := func(dir string, latencies ...float64) {
		for i, v := range latencies {
			write(dir, &result{Workload: "serve-hot", Seed: int64(i + 1), Host: host(),
				EndToEnd: map[string]metricValue{"latency_p50_ms": {Value: v, Unit: "ms"}}})
		}
	}
	base, same, slow, noisy := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	set(base, 100, 101, 99, 100, 102)
	set(same, 101, 100, 100, 99, 101)
	set(slow, 130, 131, 129, 130, 132)
	set(noisy, 60, 140, 100, 70, 150)
	for _, c := range []struct {
		dir, verdict string
	}{{same, "agree"}, {slow, "regress"}, {noisy, "unresolved"}} {
		var out bytes.Buffer
		ok, err := agree(&out, base, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (c.verdict == "agree") || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("want %s, got ok=%v:\n%s", c.verdict, ok, &out)
		}
	}
	other := t.TempDir()
	r := &result{Workload: "serve-hot", Seed: 1, Host: host()}
	r.Host.NumCPU++
	write(other, r)
	if _, err := agree(&bytes.Buffer{}, base, other); err == nil || !strings.Contains(err.Error(), "host facts differ") {
		t.Errorf("agree across hosts: err %v, want a refusal", err)
	}
}
