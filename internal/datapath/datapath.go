// Package datapath is a structural, cycle-stepped model of one Bit-Tactical
// processing-element row — the hardware of the paper's Figures 5 and 6 at
// register-transfer granularity:
//
//   - the Weight Skipping Unit (WSU) issues one schedule column of
//     (weight, mux-select) pairs per step;
//   - the Activation Select Unit (ASU) keeps h+1 Activation Block Registers
//     (ABRs) as a circular queue over the lookahead window, advanced by the
//     per-column ALC field, with the shuffling multiplexers that keep the
//     logical lookahead order stable without copying data between ABRs;
//   - the back-end lanes stream the selected activation's term stream
//     (backend.Backend.Terms) — bit-by-bit over the trimmed precision
//     window (TCLp) or oneffset-by-oneffset (TCLe) — shift-adding through
//     the adder tree into a psum register.
//
// Where the sim package *accounts* for column durations analytically, this
// package *executes* them: every multiplexer select, ABR rotation, shifter
// step and adder-tree reduction happens explicitly, cycle by cycle. Outputs
// are checked bit-exactly against the reference convolution and cycle
// counts against sim's cost model — the cross-validation that ties the
// paper's architecture description to the timing model (DESIGN.md §5).
package datapath

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/sched"
)

// ActSource supplies the activation value at a dense-schedule position for
// one window (what the activation scratchpad + dispatcher deliver).
type ActSource func(win, step, lane int) int32

// abr is one Activation Block Register: the N activations of one lookahead
// position.
type abr struct {
	vals  []int32
	step  int
	valid bool
}

// ASU models the Activation Select Unit of Figure 5c for one window: h+1
// ABRs operated as a circular queue with a head register. Each ABR has a
// dedicated activation-buffer read port, so any number of ABRs refill in
// one advance.
type ASU struct {
	lanes    int
	abrs     []abr
	head     int
	baseStep int
	win      int
	src      ActSource
	// Rotations counts head advances; Loads counts ABR refills — the
	// control/buffer activity an energy model would price.
	Rotations int64
	Loads     int64
}

// NewASU builds an ASU with lookahead depth h (h+1 ABRs) for one window.
func NewASU(lanes, h, win int, src ActSource) *ASU {
	a := &ASU{lanes: lanes, abrs: make([]abr, h+1), baseStep: -1, win: win, src: src}
	for i := range a.abrs {
		a.abrs[i].vals = make([]int32, lanes)
		a.abrs[i].step = -1
	}
	return a
}

// SlideTo positions the window base at dense step base (the ALC semantics):
// the head register advances, surviving ABRs keep their data in place, and
// only vacated ABRs refill from the activation buffer.
func (a *ASU) SlideTo(base, maxStep int) {
	if a.baseStep >= 0 && base > a.baseStep {
		adv := base - a.baseStep
		if adv > len(a.abrs) {
			adv = len(a.abrs)
		}
		a.head = (a.head + adv) % len(a.abrs)
		a.Rotations += int64(adv)
	}
	a.baseStep = base
	for k := 0; k < len(a.abrs); k++ {
		step := base + k
		idx := (a.head + k) % len(a.abrs)
		if step > maxStep {
			a.abrs[idx].valid = false
			a.abrs[idx].step = -1
			continue
		}
		if a.abrs[idx].step != step {
			for ln := 0; ln < a.lanes; ln++ {
				a.abrs[idx].vals[ln] = a.src(a.win, step, ln)
			}
			a.abrs[idx].step = step
			a.Loads++
		}
		a.abrs[idx].valid = true
	}
}

// Select returns the activation at lookahead distance dt and lane through
// the shuffling multiplexer mapping logical order onto the rotated ABRs.
func (a *ASU) Select(dt, lane int) (int32, error) {
	if dt < 0 || dt >= len(a.abrs) {
		return 0, fmt.Errorf("datapath: lookahead %d outside the %d-deep window", dt, len(a.abrs))
	}
	b := &a.abrs[(a.head+dt)%len(a.abrs)]
	if !b.valid || b.step != a.baseStep+dt {
		return 0, fmt.Errorf("datapath: ABR at lookahead %d stale (holds %d, want %d)",
			dt, b.step, a.baseStep+dt)
	}
	return b.vals[lane], nil
}

// PE is one processing element: weight lanes feeding an adder tree and a
// psum register.
type PE struct {
	Psum int64
	// Cycles counts serial cycles; TreeReductions counts adder-tree
	// activations; ShiftOps counts lane shift-add events.
	Cycles         int64
	TreeReductions int64
	ShiftOps       int64
}

// laneStream is a lane's work for one column: its weight and the
// back-end's term stream of its activation. Each cycle the lane adds
// weight×factor to the adder tree; factor 0 idles the lane that cycle (a
// zero bit inside a TCLp precision window), as does a drained stream
// waiting on the column sync.
type laneStream struct {
	weight int32
	terms  []int64
}

// issueColumn executes one schedule column: every lane streams its terms;
// the column completes when the slowest lane drains (per-PE column sync).
func (pe *PE) issueColumn(lanes []laneStream) int {
	max := 1
	for _, ls := range lanes {
		if len(ls.terms) > max {
			max = len(ls.terms)
		}
	}
	for k := 0; k < max; k++ {
		var tree int64
		active := false
		for _, ls := range lanes {
			if k >= len(ls.terms) || ls.terms[k] == 0 {
				continue
			}
			tree += int64(ls.weight) * ls.terms[k]
			pe.ShiftOps++
			active = true
		}
		if active {
			pe.TreeReductions++
			pe.Psum += tree
		}
	}
	pe.Cycles += int64(max)
	return max
}

// Stats summarizes a structural run.
type Stats struct {
	Cycles         int64
	ABRRotations   int64
	ABRLoads       int64
	TreeReductions int64
	ShiftOps       int64
}

// RunFilter executes one filter's verified schedule for one window through
// the structural datapath and returns the accumulated psum with run stats.
// The mux select of each entry is derived exactly as the hardware stores
// it: the lookahead distance (source step − column head) and source lane,
// both read from the entry's dense source position.
func RunFilter(cfg arch.Config, f sched.Filter, s *sched.Schedule, src ActSource, win int) (int64, Stats, error) {
	h := cfg.Pattern.H
	if cfg.Pattern.Infinite {
		return 0, Stats{}, fmt.Errorf("datapath: the X<inf,15> bound has no physical datapath")
	}
	if !cfg.HasFrontEnd() {
		h = 0
	}
	asu := NewASU(f.Lanes, h, win, src)
	pe := &PE{}
	lanes := make([]laneStream, f.Lanes)
	for ci, col := range s.Columns {
		asu.SlideTo(col.Head, f.Steps-1)
		for ln, e := range col.Entries {
			ls := &lanes[ln]
			ls.weight, ls.terms = e.Weight, ls.terms[:0]
			if e.Weight == 0 {
				continue
			}
			a, err := asu.Select(int(e.Src)/f.Lanes-col.Head, int(e.Src)%f.Lanes)
			if err != nil {
				return 0, Stats{}, fmt.Errorf("datapath: column %d lane %d: %w", ci, ln, err)
			}
			ls.terms = cfg.Backend.Terms(ls.terms, a, cfg.Width)
		}
		pe.issueColumn(lanes)
	}
	return pe.Psum, Stats{
		Cycles:         pe.Cycles,
		ABRRotations:   asu.Rotations,
		ABRLoads:       asu.Loads,
		TreeReductions: pe.TreeReductions,
		ShiftOps:       pe.ShiftOps,
	}, nil
}
