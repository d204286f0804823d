// Package metrics is the engine's process-wide instrumentation layer:
// atomic counters, gauges with high-water marks, and fixed-bucket latency
// histograms, exported as an expvar-style JSON snapshot. It exists so the
// long-running evaluation service (cmd/tclserve) and the batch tools
// (tclsim/tclreport -metrics) can report schedule-cache effectiveness, pool
// occupancy, and simulate latency without coupling the hot paths to any
// particular export format.
//
// All instruments are allocation-free and lock-free on the update path;
// only Snapshot takes the registry lock. The package imports nothing from
// the rest of the repo, so any layer (sched, sim, cmd) may instrument
// itself against the Default registry without cycles.
package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. busy pool workers, in-flight HTTP
// requests) that also tracks its lifetime high-water mark, so a snapshot
// taken after the burst still shows how full the pool got.
type Gauge struct{ v, max atomic.Int64 }

// Inc raises the level by one and updates the high-water mark.
func (g *Gauge) Inc() {
	cur := g.v.Add(1)
	for {
		m := g.max.Load()
		if cur <= m || g.max.CompareAndSwap(m, cur) {
			return
		}
	}
}

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the lifetime high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the fixed bucket count: power-of-two microsecond bounds
// 1µs, 2µs, …, 2^20µs (~1s), plus one overflow bucket. Fixed buckets keep
// Observe a single atomic add with no allocation and make snapshots
// mergeable across processes.
const histBuckets = 22

// Histogram is a fixed-bucket latency histogram over power-of-two
// microsecond bounds.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	us := d.Microseconds()
	i := 0
	for i < histBuckets-1 && us >= int64(1)<<i {
		i++
	}
	h.buckets[i].Add(1)
}

// HistogramBucket is one non-empty bucket of a snapshot. UpperMicros is the
// exclusive upper bound in microseconds; -1 marks the overflow bucket.
type HistogramBucket struct {
	UpperMicros int64 `json:"le_us"`
	Count       int64 `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram: totals plus only the
// non-empty buckets.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumMs   float64           `json:"sum_ms"`
	MeanMs  float64           `json:"mean_ms"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	s.SumMs = float64(h.sumNs.Load()) / 1e6
	if s.Count > 0 {
		s.MeanMs = s.SumMs / float64(s.Count)
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(1) << i
		if i == histBuckets-1 {
			upper = -1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperMicros: upper, Count: n})
	}
	return s
}

// Registry holds named instruments. Instruments are created on first use
// and live for the registry's lifetime; Func registers a read-only callback
// (expvar.Func-style) for values owned elsewhere, e.g. sched.Cache counters.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]func() int64),
	}
}

// Default is the process-wide registry the engine instruments itself
// against.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Func registers (or replaces) a callback gauge evaluated at snapshot time.
// The callback must be safe for concurrent use.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// gaugeSnapshot pairs a gauge's level with its high-water mark.
type gaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot returns a JSON-marshalable view of every instrument: counters
// and funcs as integers, gauges as {value, max}, histograms as
// HistogramSnapshot. Keys are the instrument names; encoding/json emits
// them sorted.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.funcs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = gaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.histograms {
		out[name] = h.snapshot()
	}
	for name, fn := range r.funcs {
		out[name] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
