package sim

import "bittactical/internal/sched"

// Breakdown is the Figure 9 (h)–(n) lane-time census: how every
// lane-duration unit of the back-end was spent, in lane-cycles.
type Breakdown struct {
	// Useful: serial cycles a lane spent on its own effectual work.
	Useful int64
	// ColumnSync: idle cycles waiting for the slowest lane of the same PE
	// (same window) — "Column Sync".
	ColumnSync int64
	// TileSync: idle cycles waiting for the slowest PE of the tile (other
	// windows / rows) — "Tile Sync".
	TileSync int64
	// AZero: lane-cycles burnt on an effectual weight paired with a zero
	// activation ("A Zero").
	AZero int64
	// WZero: lane-cycles burnt on an unfilled zero-weight slot whose
	// activation was non-zero ("W Zero").
	WZero int64
	// BothZero: lane-cycles where both weight and activation were zero.
	BothZero int64
}

// Total returns the census denominator.
func (b Breakdown) Total() int64 {
	return b.Useful + b.ColumnSync + b.TileSync + b.AZero + b.WZero + b.BothZero
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Useful += o.Useful
	b.ColumnSync += o.ColumnSync
	b.TileSync += o.TileSync
	b.AZero += o.AZero
	b.WZero += o.WZero
	b.BothZero += o.BothZero
}

// Activity counts the datapath events the energy model prices.
type Activity struct {
	// SerialLaneCycles: lane-cycles doing real serial work (shift-add for
	// TCLe, bit-AND-add for TCLp).
	SerialLaneCycles int64
	// ParallelMACs: full-width multiplies (bit-parallel back-ends).
	ParallelMACs int64
	// WSColumnReads: weight-scratchpad column reads (one per schedule column
	// per window-group round, amortized over psum registers).
	WSColumnReads int64
	// ActReads: activation values fetched from the activation buffer.
	ActReads int64
	// MuxSelects: activation multiplexer switch events.
	MuxSelects int64
	// PsumAccesses: partial-sum register read+write pairs.
	PsumAccesses int64
	// OffsetEncodes: activations pushed through the TCLe offset generator.
	OffsetEncodes int64
}

// Add accumulates another activity set.
func (a *Activity) Add(o Activity) {
	a.SerialLaneCycles += o.SerialLaneCycles
	a.ParallelMACs += o.ParallelMACs
	a.WSColumnReads += o.WSColumnReads
	a.ActReads += o.ActReads
	a.MuxSelects += o.MuxSelects
	a.PsumAccesses += o.PsumAccesses
	a.OffsetEncodes += o.OffsetEncodes
}

// LayerResult is one layer's simulation outcome.
type LayerResult struct {
	Name string
	// Cycles is this configuration's execution time; DenseCycles is the
	// DaDianNao++ time for the same layer (the normalization basis).
	Cycles      int64
	DenseCycles int64
	// MACs is the layer's dense MAC count.
	MACs int64
	// FrontEnd is the schedule slot census (Figure 9 (a)–(g)).
	FrontEnd sched.Stats
	// BackEnd is the lane-time census (Figure 9 (h)–(n)); zero for
	// bit-parallel back-ends.
	BackEnd Breakdown
	// Activity drives the energy model.
	Activity Activity
}

// Speedup returns DenseCycles/Cycles.
func (r LayerResult) Speedup() float64 {
	if r.Cycles == 0 {
		return 1
	}
	return float64(r.DenseCycles) / float64(r.Cycles)
}

// Result aggregates a network.
type Result struct {
	Config string
	Layers []LayerResult
}

// TotalCycles sums layer cycles.
func (r *Result) TotalCycles() int64 {
	var t int64
	for _, l := range r.Layers {
		t += l.Cycles
	}
	return t
}

// TotalDenseCycles sums baseline cycles.
func (r *Result) TotalDenseCycles() int64 {
	var t int64
	for _, l := range r.Layers {
		t += l.DenseCycles
	}
	return t
}

// Speedup is the network-level speedup over the dense baseline.
func (r *Result) Speedup() float64 {
	c := r.TotalCycles()
	if c == 0 {
		return 1
	}
	return float64(r.TotalDenseCycles()) / float64(c)
}

// BackEnd aggregates the lane-time census over layers.
func (r *Result) BackEnd() Breakdown {
	var b Breakdown
	for _, l := range r.Layers {
		b.Add(l.BackEnd)
	}
	return b
}

// FrontEnd aggregates the schedule slot census over layers.
func (r *Result) FrontEnd() sched.Stats {
	var s sched.Stats
	for _, l := range r.Layers {
		s.Add(l.FrontEnd)
	}
	return s
}

// Activity aggregates datapath events over layers.
func (r *Result) Activity() Activity {
	var a Activity
	for _, l := range r.Layers {
		a.Add(l.Activity)
	}
	return a
}
