package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into the program's
// layers, plus counts taken at the same boundaries. Spans stay in memory and
// are written once, at exit, as Chrome trace-event JSON. The untraced window
// runs the same code with a nil *tracer, which records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

// span is one timed call. Parent is the index of the enclosing span, or -1
// for the root of a pass or request; Op is that pass or request's id.
type span struct {
	Name       string
	Op         int
	Lane       int // client, shown as the thread row in a trace viewer
	Parent     int
	Replay     bool // work the traced run adds only to attribute time
	Start, End time.Duration
	Allocs     int64 // heap allocations inside the span; -1 when not counted
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// spanRef is an open span. Its methods do nothing when the tracer is nil.
type spanRef struct {
	t        *tracer
	id       int
	op, lane int
	counting bool
	mallocs  uint64
}

func (t *tracer) root(name string, op, lane int) spanRef {
	return t.begin(name, op, lane, -1, false, false)
}

func (t *tracer) begin(name string, op, lane, parent int, replay, allocs bool) spanRef {
	if t == nil {
		return spanRef{}
	}
	ref := spanRef{t: t, op: op, lane: lane, counting: allocs}
	if allocs {
		ref.mallocs = mallocs()
	}
	t.mu.Lock()
	ref.id = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Replay: replay,
		Start: time.Since(t.t0), Allocs: -1})
	t.mu.Unlock()
	return ref
}

// on reports whether the span is being recorded.
func (s spanRef) on() bool { return s.t != nil }

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef {
	return s.t.begin(name, s.op, s.lane, s.id, false, false)
}

// replay opens a child span for work that only the traced run does, to
// attribute time the untraced op spends inside a layer it cannot see into.
func (s spanRef) replay(name string) spanRef {
	return s.t.begin(name, s.op, s.lane, s.id, true, false)
}

// counted opens a child span that also counts heap allocations.
func (s spanRef) counted(name string) spanRef {
	return s.t.begin(name, s.op, s.lane, s.id, false, true)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	allocs := int64(-1)
	if s.counting {
		allocs = int64(mallocs() - s.mallocs)
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.spans[s.id].Allocs = allocs
	s.t.mu.Unlock()
}

// count adds v to the named count.
func (s spanRef) count(name string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.counts[name] += v
	s.t.mu.Unlock()
}

// mallocs is the process's cumulative heap allocation count. ReadMemStats
// flushes every per-P cache first, so the count is exact; it stops the
// world briefly, which is why only a few coarse spans count allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"), the
// format Perfetto and chrome://tracing open directly. Times are in µs.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeTrace writes the spans as Chrome trace-event JSON. Each event's args
// carry the span's index, its parent's index, its op id and its self time.
func writeTrace(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, len(spans))}
	for i, s := range spans {
		args := map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": us(self[i])}
		if s.Replay {
			args["replay"] = true
		}
		if s.Allocs >= 0 {
			args["allocs"] = s.Allocs
		}
		f.TraceEvents[i] = traceEvent{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane, Args: args}
	}
	return json.NewEncoder(w).Encode(f)
}
