package sched

import (
	"fmt"
	mathbits "math/bits"
)

// maxKernelOffsets bounds the kernel's per-lane candidate bitset: one
// uint64 bit per pattern offset. Every pattern in the paper's design space
// has at most 15 offsets; Pattern.Validate rejects any with more than this.
const maxKernelOffsets = 64

// Scheduler is a reusable scheduling kernel. It owns every piece of scratch
// the scheduler needs — per-filter done/pending state, per-lane candidate
// bitsets, the matching algorithm's owner/visited buffers, and the output
// arena — so that steady-state scheduling performs zero heap allocations.
//
// Schedules returned by (*Scheduler).ScheduleGroup live in the scheduler's
// arena: they are valid only until the next call on the same Scheduler, and
// must not be retained or mutated. Callers that need persistent schedules
// use the package ScheduleGroup/ScheduleFilter functions, which copy the
// arena into exactly sized fresh allocations, or a Cache, which copies it
// into the cache's slab.
//
// A Scheduler is not safe for concurrent use; use one per goroutine (the
// package-level entry points draw from a sync.Pool).
type Scheduler struct {
	// Pattern plan, rebuilt per group (allocation-free once grown):
	offs  []Offset  // the pattern's offsets, bit i of a candidate set == offs[i]
	order []int16   // offset indices in stable (Dt, |Dl|, index) visit order
	byDt  [][]int16 // byDt[dt]: offset indices with that lookahead depth
	dtCap int       // len(byDt): 1 + the largest usable Dt this group

	// Per-group scratch:
	done        []bool  // nf × steps × lanes: weight executed
	stepPending []int32 // nf × steps: effectual weights left per dense step
	cand        []uint64
	assigned    []bool

	// Matching scratch (window-position space: dt × lanes):
	owner     []int32 // wpos -> owning lane during augmentation, -1 free
	visited   []uint64
	epoch     uint64
	matchCand []int16 // lane -> matched offset index, -1 unmatched

	// Output arena:
	entArena []Entry
	colArena []Column
	schArena []Schedule
	ptrArena []*Schedule
}

// NewScheduler returns an empty kernel; buffers grow on first use and are
// retained across calls.
func NewScheduler() *Scheduler { return &Scheduler{} }

// ScheduleGroup jointly schedules the filter group into the scheduler's
// arena. Semantics are identical to the package-level ScheduleGroup — the
// differential fuzz suite asserts bit-identical output against the
// reference scheduler in the tests — but the returned schedules are only
// valid until the next call on this Scheduler.
func (s *Scheduler) ScheduleGroup(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	nf, lanes, steps, cols := s.runGroup(filters, p, alg)
	if nf == 0 {
		return nil
	}
	return s.assemble(nf, lanes, steps, cols)
}

// runGroup validates the group, runs it into the scheduler's arena, and
// returns the geometry plus column count the assemblers need. It panics on
// an invalid pattern: callers validate configurations first.
func (s *Scheduler) runGroup(filters []Filter, p Pattern, alg Algorithm) (nf, lanes, steps, cols int) {
	nf = len(filters)
	if nf == 0 {
		return
	}
	lanes, steps = filters[0].Lanes, filters[0].Steps
	for _, f := range filters {
		if f.Lanes != lanes || f.Steps != steps {
			panic(fmt.Sprintf("sched: group filters disagree on geometry (%dx%d vs %dx%d)",
				f.Steps, f.Lanes, steps, lanes))
		}
	}
	if p.Infinite {
		cols = s.runInfinite(filters, lanes, steps)
		return
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cols = s.runKernel(filters, p, alg, lanes, steps)
	return
}

// runInfinite realizes the X<inf,15> upper bound in the arena with the
// same column layout as runKernel: entries of filter i, column c at
// entArena[(i*steps+c)*lanes]. Semantics match the reference scheduler's
// X<inf,15> path (reference_test.go) bit for bit — arbitrary promotion
// compacts each filter to ⌈nnz/L⌉ columns and the group pads to the
// slowest filter.
func (s *Scheduler) runInfinite(filters []Filter, lanes, steps int) int {
	nf := len(filters)
	maxCols := 0
	for _, f := range filters {
		nnz := 0
		for _, w := range f.W {
			if w != 0 {
				nnz++
			}
		}
		if c := (nnz + lanes - 1) / lanes; c > maxCols {
			maxCols = c
		}
	}
	s.entArena = growSlice(s.entArena, nf*steps*lanes)
	s.colArena = growSlice(s.colArena, nf*steps)
	for i, f := range filters {
		ents := s.entArena[i*steps*lanes : i*steps*lanes+maxCols*lanes]
		for j := range ents {
			ents[j] = Entry{}
		}
		k := 0
		for st := 0; st < steps; st++ {
			for ln := 0; ln < lanes; ln++ {
				w := f.W[st*lanes+ln]
				if w == 0 {
					continue
				}
				ents[k] = Entry{Weight: w, Src: int32(st*lanes + ln)}
				k++
			}
		}
		for c := 0; c < maxCols; c++ {
			head := min(c, steps-1)
			adv := 1
			if c == maxCols-1 {
				adv = steps - head
				if adv < 1 {
					adv = 1
				}
			}
			s.colArena[i*steps+c] = Column{Head: head, Advance: adv,
				Entries: s.entArena[(i*steps+c)*lanes : (i*steps+c+1)*lanes]}
		}
	}
	return maxCols
}

// runKernel is the optimized scheduling kernel proper: it fills the
// arena and returns the shared column count.
func (s *Scheduler) runKernel(filters []Filter, p Pattern, alg Algorithm, lanes, steps int) int {
	nf := len(filters)
	s.plan(p, steps)

	// Per-filter execution state, flattened: done[i*steps*lanes + pos],
	// stepPending[i*steps + st].
	s.done = growSlice(s.done, nf*steps*lanes)
	for i := range s.done {
		s.done[i] = false
	}
	s.stepPending = growSlice(s.stepPending, nf*steps)
	pending := 0
	for i, f := range filters {
		sp := s.stepPending[i*steps : (i+1)*steps]
		for st := 0; st < steps; st++ {
			n := int32(0)
			for ln := 0; ln < lanes; ln++ {
				if f.W[st*lanes+ln] != 0 {
					n++
				}
			}
			sp[st] = n
			pending += int(n)
		}
	}
	s.assigned = growSlice(s.assigned, lanes)
	s.cand = growSlice(s.cand, lanes)
	s.matchCand = growSlice(s.matchCand, lanes)
	s.owner = growSlice(s.owner, s.dtCap*lanes)
	s.visited = growSlice(s.visited, s.dtCap*lanes)

	// Output arena: a schedule never exceeds the dense step count, so
	// nf × steps columns is the exact worst case.
	s.entArena = growSlice(s.entArena, nf*steps*lanes)
	s.colArena = growSlice(s.colArena, nf*steps)

	stepClear := func(st int) bool {
		for i := 0; i < nf; i++ {
			if s.stepPending[i*steps+st] != 0 {
				return false
			}
		}
		return true
	}

	head := 0
	for head < steps && stepClear(head) {
		head++ // skip leading all-ineffectual steps (ALC pre-advance)
	}
	cols := 0
	for pending > 0 {
		for i, f := range filters {
			entries := s.entArena[(i*steps+cols)*lanes : (i*steps+cols+1)*lanes]
			for j := range entries {
				entries[j] = Entry{}
			}
			pending -= s.buildColumn(f, alg,
				s.done[i*steps*lanes:(i+1)*steps*lanes],
				s.stepPending[i*steps:(i+1)*steps],
				head, entries)
			s.colArena[i*steps+cols] = Column{Head: head, Entries: entries}
		}
		// Shared ALC advance: slide past every fully-consumed step.
		adv := 0
		for head+adv < steps && stepClear(head+adv) {
			adv++
		}
		if adv == 0 {
			// Cannot happen: the head step is always consumed in-column.
			panic("sched: window failed to advance")
		}
		if pending == 0 {
			// Remaining steps (if any) are all ineffectual; the ALC skips
			// them outright.
			adv = steps - head
			if adv < 1 {
				adv = 1
			}
		}
		for i := 0; i < nf; i++ {
			s.colArena[i*steps+cols].Advance = adv
		}
		head += adv
		cols++
	}
	return cols
}

// assemble materializes the schedules in place over the column arena.
func (s *Scheduler) assemble(nf, lanes, steps, cols int) []*Schedule {
	s.schArena = growSlice(s.schArena, nf)
	s.ptrArena = growSlice(s.ptrArena, nf)
	for i := 0; i < nf; i++ {
		s.schArena[i] = Schedule{Lanes: lanes, DenseSteps: steps}
		if cols > 0 {
			s.schArena[i].Columns = s.colArena[i*steps : i*steps+cols]
		}
		s.ptrArena[i] = &s.schArena[i]
	}
	return s.ptrArena[:nf]
}

// assembleInto copies the arena group into caller-provided storage (the
// package ScheduleGroup's exact allocations or a cache slab carve). The
// arena keeps filter i's entries contiguous across columns —
// [(i*steps)*lanes, (i*steps+cols)*lanes) — so the bulk of the copy is a
// single memmove per filter rather than one per column; at full-zoo sweep
// scale the per-column variant was the single largest memmove source in
// the profile.
func (s *Scheduler) assembleInto(ents []Entry, fcols []Column, scheds []Schedule, out []*Schedule, nf, lanes, steps, cols int) {
	for i := 0; i < nf; i++ {
		copy(ents[i*cols*lanes:(i+1)*cols*lanes], s.entArena[i*steps*lanes:(i*steps+cols)*lanes])
		for c := 0; c < cols; c++ {
			src := &s.colArena[i*steps+c]
			fcols[i*cols+c] = Column{Head: src.Head, Advance: src.Advance,
				Entries: ents[(i*cols+c)*lanes : (i*cols+c+1)*lanes : (i*cols+c+1)*lanes]}
		}
		scheds[i] = Schedule{Lanes: lanes, DenseSteps: steps}
		if cols > 0 {
			scheds[i].Columns = fcols[i*cols : (i+1)*cols]
		}
		out[i] = &scheds[i]
	}
}

// plan rebuilds the pattern plan: the candidate visit order (stable
// (Dt, |Dl|, index), matching the reference's sorted candidate lists) and
// the per-depth offset index used for incremental candidate invalidation.
// Offsets whose depth can never fit the filter (Dt > steps-1) keep a bit
// position but never enter a candidate set.
func (s *Scheduler) plan(p Pattern, steps int) {
	k := len(p.Offsets)
	s.offs = p.Offsets
	s.order = growSlice(s.order, k)
	for i := range s.order[:k] {
		s.order[i] = int16(i)
	}
	// Insertion sort: k ≤ 64, stable, allocation-free.
	ord := s.order[:k]
	for i := 1; i < k; i++ {
		for j := i; j > 0; j-- {
			a, b := p.Offsets[ord[j]], p.Offsets[ord[j-1]]
			if a.Dt < b.Dt || (a.Dt == b.Dt && abs(a.Dl) < abs(b.Dl)) {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			} else {
				break
			}
		}
	}
	maxDt := 0
	for _, o := range p.Offsets {
		if o.Dt <= steps-1 && o.Dt > maxDt {
			maxDt = o.Dt
		}
	}
	s.dtCap = maxDt + 1
	if cap(s.byDt) < s.dtCap {
		s.byDt = make([][]int16, s.dtCap)
	}
	s.byDt = s.byDt[:s.dtCap]
	for dt := range s.byDt {
		s.byDt[dt] = s.byDt[dt][:0]
	}
	for i, o := range p.Offsets {
		if o.Dt < s.dtCap {
			s.byDt[o.Dt] = append(s.byDt[o.Dt], int16(i))
		}
	}
}

// rebuildCands recomputes every lane's candidate bitset for the current
// window head: bit i is set when offset i reaches an effectual, unexecuted
// weight. Called once per (filter, column); takes within the column keep the
// sets current incrementally via consume.
func (s *Scheduler) rebuildCands(f Filter, done []bool, head int) {
	lanes, steps := f.Lanes, f.Steps
	cand := s.cand[:lanes]
	for ln := range cand {
		cand[ln] = 0
	}
	for i, o := range s.offs {
		u := head + o.Dt
		if u >= steps {
			continue
		}
		row := u * lanes
		bit := uint64(1) << uint(i)
		v := o.Dl % lanes
		if v < 0 {
			v += lanes
		}
		// v tracks (ln + Dl) mod lanes as ln walks 0..lanes-1.
		for ln := 0; ln < lanes; ln++ {
			pos := row + v
			if f.W[pos] != 0 && !done[pos] {
				cand[ln] |= bit
			}
			v++
			if v == lanes {
				v = 0
			}
		}
	}
}

// consume invalidates the just-executed weight at (u, v) in every lane's
// candidate set: each offset of depth u-head that reaches (u, v) does so
// from exactly one lane.
func (s *Scheduler) consume(head, lanes, u, v int) {
	dt := u - head
	if dt < 1 || dt >= s.dtCap {
		return
	}
	for _, i := range s.byDt[dt] {
		ln := (v - s.offs[i].Dl) % lanes
		if ln < 0 {
			ln += lanes
		}
		s.cand[ln] &^= uint64(1) << uint(i)
	}
}

// buildColumn is the optimized kernel for one (filter, column): identical
// decisions to the reference scheduler's column builder (reference_test.go),
// but candidates live in per-lane bitsets maintained incrementally, and the
// matching algorithm runs on flat arrays with an epoch-stamped visited
// buffer. Returns the number of weights executed.
func (s *Scheduler) buildColumn(f Filter, alg Algorithm, done []bool, stepPending []int32, head int, entries []Entry) int {
	lanes := f.Lanes
	executed := 0
	take := func(lane, pos int) {
		entries[lane] = Entry{Weight: f.W[pos], Src: int32(pos)}
		done[pos] = true
		u := pos / lanes
		stepPending[u]--
		executed++
		s.consume(head, lanes, u, pos-u*lanes)
	}
	assigned := s.assigned[:lanes]
	// Pass 1: effectual weights at the head execute in place. Head positions
	// (dt = 0) are never promotion candidates, so the candidate rebuild can
	// follow the whole pass.
	for ln := 0; ln < lanes; ln++ {
		pos := head*lanes + ln
		assigned[ln] = f.W[pos] != 0 && !done[pos]
		if assigned[ln] {
			take(ln, pos)
		}
	}
	s.rebuildCands(f, done, head)

	switch alg {
	case Matching:
		s.matchColumn(head, lanes, take)
	case GreedySimple:
		// Lanes claim the first reachable weight in pattern-offset order;
		// consume keeps later lanes' sets current.
		for ln := 0; ln < lanes; ln++ {
			if assigned[ln] || s.cand[ln] == 0 {
				continue
			}
			o := s.offs[mathbits.TrailingZeros64(s.cand[ln])]
			take(ln, (head+o.Dt)*lanes+wrapLane(ln+o.Dl, lanes))
			assigned[ln] = true
		}
	default: // Algorithm1
		for {
			// Select the least-flexible open slot: fewest candidates, then
			// smallest |Dl| of the best candidate, then lowest lane.
			bestLane, bestN, bestDl, bestOff := -1, 0, 0, -1
			for ln := 0; ln < lanes; ln++ {
				if assigned[ln] || s.cand[ln] == 0 {
					continue
				}
				n := mathbits.OnesCount64(s.cand[ln])
				ci := s.firstCandidate(ln)
				dl := abs(s.offs[ci].Dl)
				if bestLane < 0 || n < bestN || (n == bestN && dl < bestDl) {
					bestLane, bestN, bestDl, bestOff = ln, n, dl, ci
				}
			}
			if bestLane < 0 {
				break
			}
			o := s.offs[bestOff]
			take(bestLane, (head+o.Dt)*lanes+wrapLane(bestLane+o.Dl, lanes))
			assigned[bestLane] = true
		}
	}
	return executed
}

// firstCandidate returns the lane's best candidate offset index: the first
// set bit in (Dt, |Dl|, index) order — the same ordering the reference's
// better() scan selects.
func (s *Scheduler) firstCandidate(ln int) int {
	c := s.cand[ln]
	for _, i := range s.order[:len(s.offs)] {
		if c&(uint64(1)<<uint(i)) != 0 {
			return int(i)
		}
	}
	return -1
}

// matchColumn fills the column with a maximum bipartite matching (Kuhn's
// augmenting paths) between free lanes and reachable weights. Weight
// positions index a compact (dt, lane) window space; owner[] is reset per
// column, visited[] is epoch-stamped per augmentation root.
func (s *Scheduler) matchColumn(head, lanes int, take func(lane, pos int)) {
	assigned := s.assigned[:lanes]
	nw := s.dtCap * lanes
	owner := s.owner[:nw]
	for i := range owner {
		owner[i] = -1
	}
	matchCand := s.matchCand[:lanes]
	for ln := range matchCand {
		matchCand[ln] = -1
	}
	for ln := 0; ln < lanes; ln++ {
		if !assigned[ln] {
			s.epoch++
			s.augment(ln, lanes)
		}
	}
	for ln := 0; ln < lanes; ln++ {
		ci := matchCand[ln]
		if ci < 0 {
			continue
		}
		o := s.offs[ci]
		v := wrapLane(ln+o.Dl, lanes)
		if owner[o.Dt*lanes+v] != int32(ln) {
			continue // displaced by an augmenting path
		}
		take(ln, (head+o.Dt)*lanes+v)
		assigned[ln] = true
	}
}

// augment tries to match lane ln, recursively displacing owners along an
// augmenting path. Candidates are visited in the plan's sorted order so the
// search explores exactly the reference's candidate sequence.
func (s *Scheduler) augment(ln, lanes int) bool {
	c := s.cand[ln]
	for _, oi := range s.order[:len(s.offs)] {
		if c&(uint64(1)<<uint(oi)) == 0 {
			continue
		}
		o := s.offs[oi]
		v := wrapLane(ln+o.Dl, lanes)
		wpos := o.Dt*lanes + v
		if s.visited[wpos] == s.epoch {
			continue
		}
		s.visited[wpos] = s.epoch
		own := s.owner[wpos]
		if own < 0 || s.augment(int(own), lanes) {
			s.owner[wpos] = int32(ln)
			s.matchCand[ln] = oi
			return true
		}
	}
	return false
}

func wrapLane(v, lanes int) int {
	v %= lanes
	if v < 0 {
		v += lanes
	}
	return v
}

// growSlice returns sl with length n, reusing capacity when possible. The
// reused region may hold stale contents: callers either fully initialize it
// (done is cleared, stepPending/arenas overwritten) or tolerate staleness by
// construction (epoch-stamped buffers rely on monotone epochs).
func growSlice[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}
