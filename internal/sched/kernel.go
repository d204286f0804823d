package sched

import (
	"fmt"
	mathbits "math/bits"
)

// maxKernelOffsets bounds the kernel's per-lane candidate bitset: one
// uint64 bit per pattern offset. Every pattern in the paper's design space
// has at most 15 offsets; Pattern.Validate rejects any with more than this.
const maxKernelOffsets = 64

// Algorithm 1's per-lane key packs, from the top, the lane's candidate count
// (≤ 64, 7 bits), the rank of its best candidate's |Dl| (< 64, 6 bits) and
// the lane number (< 2^31, since NewFilter bounds a filter's slots), so the
// least-flexible open slot, ties to the smaller |Dl| and then the lower
// lane, is the minimum key. A lane with no candidate holds keyClosed, above
// every real key. Keys stay below 2^63, so the difference of two keys, read
// as an int64, orders them without a branch.
const (
	keyRankShift  = 32
	keyCountShift = keyRankShift + 6
	keyLaneMask   = 1<<keyRankShift - 1
	keyClosed     = uint64(1<<63 - 1)
)

// Scheduler is a reusable scheduling kernel. It owns every piece of scratch
// the scheduler needs — the live-weight plane, per-step and per-filter
// pending counts, per-lane candidate bitsets and Algorithm 1 keys, the
// matching algorithm's owner/visited buffers, and the output arena — so
// that steady-state scheduling performs zero heap allocations.
//
// Each (filter, column) rebuilds the lanes' candidate sets from the live
// plane, executes the head step's live weights in place, and then fills
// the open lanes: greedy takes each lane's lowest candidate bit, matching
// augments over the bits in order, and Algorithm 1 promotes the lane with
// the minimum key until no key is open. Every take retires its weight from
// the live plane and, through consume, from the candidate sets and keys of
// the lanes that reach it. A filter whose weights have all executed idles
// in lockstep with the group and is not rebuilt.
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
	// Pattern plan, rebuilt per group. Bit j of a lane's candidate set is
	// the algorithm's j-th preferred offset: (Dt, |Dl|, index) order for
	// Algorithm 1 and matching, index order for greedy, so a lane's best
	// candidate is its lowest set bit.
	nOffs int
	dt    [maxKernelOffsets]int    // bit j's lookahead depth
	fwd   [maxKernelOffsets]int    // Dl mod lanes: lane ln reaches lane ln+fwd, wrapping
	back  [maxKernelOffsets]int    // -Dl mod lanes: lane v is reached from lane v+back, wrapping
	rank  [maxKernelOffsets]uint64 // the rank of bit j's |Dl|, in key position
	byDt  []uint64                 // byDt[dt]: the bits of depth dt (byDt[0] is empty)
	dtCap int                      // len(byDt): 1 + the largest usable Dt this group

	// Per-group scratch:
	live        []uint8 // nf × steps × lanes: 1 while an effectual weight waits
	stepPending []int32 // steps: effectual weights left per dense step, group-wide
	filtPending []int32 // nf: effectual weights left per filter
	cand        []uint64
	key         []uint64 // Algorithm 1's per-lane keys

	// The (filter, column) being built:
	w     []int32
	fLive []uint8 // the filter's live plane
	ents  []Entry
	head  int
	lanes int
	steps int
	taken int

	// Matching scratch (window-position space: dt × lanes):
	owner     []int32 // wpos -> owning lane during augmentation, -1 free
	visited   []uint64
	epoch     uint64
	matchCand []int8 // lane -> matched candidate bit, -1 unmatched

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
	s.plan(p, alg, lanes, steps)
	s.lanes, s.steps = lanes, steps

	// Live plane and pending counts: live[i*steps*lanes + pos] is 1 while
	// filter i's weight at pos waits to execute.
	s.live = growSlice(s.live, nf*steps*lanes)
	s.stepPending = growSlice(s.stepPending, steps)
	s.filtPending = growSlice(s.filtPending, nf)
	clear(s.stepPending)
	pending := 0
	for i, f := range filters {
		live := s.live[i*steps*lanes : (i+1)*steps*lanes]
		n := int32(0)
		for st := 0; st < steps; st++ {
			row := live[st*lanes : (st+1)*lanes]
			m := int32(0)
			for ln, w := range f.W[st*lanes : (st+1)*lanes] {
				b := uint8(0)
				if w != 0 {
					b = 1
				}
				row[ln] = b
				m += int32(b)
			}
			s.stepPending[st] += m
			n += m
		}
		s.filtPending[i] = n
		pending += int(n)
	}
	s.cand = growSlice(s.cand, lanes)
	s.key = growSlice(s.key, lanes)
	s.matchCand = growSlice(s.matchCand, lanes)
	s.owner = growSlice(s.owner, s.dtCap*lanes)
	s.visited = growSlice(s.visited, s.dtCap*lanes)

	// Output arena: a schedule never exceeds the dense step count, so
	// nf × steps columns is the exact worst case.
	s.entArena = growSlice(s.entArena, nf*steps*lanes)
	s.colArena = growSlice(s.colArena, nf*steps)

	head := 0
	for head < steps && s.stepPending[head] == 0 {
		head++ // skip leading all-ineffectual steps (ALC pre-advance)
	}
	cols := 0
	for pending > 0 {
		for i, f := range filters {
			entries := s.entArena[(i*steps+cols)*lanes : (i*steps+cols+1)*lanes]
			clear(entries)
			// A drained filter idles in lockstep: its entries stay zero.
			if s.filtPending[i] > 0 {
				s.w, s.fLive, s.ents, s.head = f.W, s.live[i*steps*lanes:(i+1)*steps*lanes], entries, head
				n := s.buildColumn(alg)
				s.filtPending[i] -= int32(n)
				pending -= n
			}
			s.colArena[i*steps+cols] = Column{Head: head, Entries: entries}
		}
		// Shared ALC advance: slide past every fully-consumed step.
		adv := 0
		for head+adv < steps && s.stepPending[head+adv] == 0 {
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

// plan rebuilds the pattern plan for the group: it numbers the offsets in
// the algorithm's visit order — stable (Dt, |Dl|, index), the order the
// reference's candidate sort and better() scan select by, for Algorithm 1
// and matching; index order, the reference's candidate list, for greedy —
// and stores each one's lane shifts reduced mod lanes, its |Dl| rank and
// its depth's bit set. Offsets whose depth can never fit the filter
// (Dt > steps-1) keep a bit but never enter a candidate set.
func (s *Scheduler) plan(p Pattern, alg Algorithm, lanes, steps int) {
	k := len(p.Offsets)
	var ord [maxKernelOffsets]int
	for i := range ord[:k] {
		ord[i] = i
	}
	if alg != GreedySimple {
		// Insertion sort: k ≤ 64, stable, allocation-free.
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
	}
	maxDt := 0
	for _, o := range p.Offsets {
		if o.Dt <= steps-1 && o.Dt > maxDt {
			maxDt = o.Dt
		}
	}
	s.dtCap = maxDt + 1
	s.byDt = growSlice(s.byDt, s.dtCap)
	clear(s.byDt)
	s.nOffs = k
	for j, oi := range ord[:k] {
		o := p.Offsets[oi]
		s.dt[j] = o.Dt
		s.fwd[j] = wrapLane(o.Dl, lanes)
		s.back[j] = wrapLane(-o.Dl, lanes)
		// The rank counts the offsets with a smaller |Dl|: below 64, and
		// ordered as |Dl| is, however large |Dl| gets.
		r := uint64(0)
		for _, q := range p.Offsets {
			if abs(q.Dl) < abs(o.Dl) {
				r++
			}
		}
		s.rank[j] = r << keyRankShift
		if o.Dt < s.dtCap {
			s.byDt[o.Dt] |= 1 << uint(j)
		}
	}
}

// rebuildCands recomputes every lane's candidate bitset for the current
// window head: bit j is set when offset j reaches a live weight. Each
// offset ORs its shifted live row into the lanes' sets, in two straight
// loops split where the lane index wraps. Called once per (filter, column);
// takes within the column keep the sets current incrementally via consume.
func (s *Scheduler) rebuildCands() {
	lanes := s.lanes
	cand := s.cand[:lanes]
	clear(cand)
	for j := 0; j < s.nOffs; j++ {
		u := s.head + s.dt[j]
		if u >= s.steps {
			continue
		}
		row := s.fLive[u*lanes : (u+1)*lanes]
		sh := s.fwd[j]
		n := lanes - sh
		// Lanes [0, n) read row[sh:]; lanes [n, lanes) wrap to row[:sh].
		dst, src := cand[:n], row[sh:]
		src = src[:len(dst)]
		for ln := range dst {
			dst[ln] |= uint64(src[ln]) << uint(j)
		}
		dst, src = cand[n:], row[:sh]
		src = src[:len(dst)]
		for ln := range dst {
			dst[ln] |= uint64(src[ln]) << uint(j)
		}
	}
}

// take executes the weight at dense (u, v) on lane ln and retires it from
// every candidate set that holds it.
func (s *Scheduler) take(ln, u, v int) {
	pos := u*s.lanes + v
	s.ents[ln] = Entry{Weight: s.w[pos], Src: int32(pos)}
	s.fLive[pos] = 0
	s.stepPending[u]--
	s.taken++
	s.consume(u-s.head, v)
}

// promote executes lane ln's candidate bit j.
func (s *Scheduler) promote(ln, j int) {
	v := ln + s.fwd[j]
	if v >= s.lanes {
		v -= s.lanes
	}
	s.take(ln, s.head+s.dt[j], v)
}

// consume invalidates the just-executed weight at depth dt, lane v in every
// lane's candidate set — each offset of that depth reaches it from exactly
// one lane — and refreshes those lanes' Algorithm 1 keys (greedy and
// matching never read them). A head weight (dt 0) is no candidate: byDt[0]
// is empty.
func (s *Scheduler) consume(dt, v int) {
	for m := s.byDt[dt]; m != 0; m &= m - 1 {
		j := mathbits.TrailingZeros64(m)
		ln := v + s.back[j]
		if ln >= s.lanes {
			ln -= s.lanes
		}
		s.cand[ln] &^= 1 << uint(j)
		s.refresh(ln)
	}
}

// refresh recomputes lane ln's Algorithm 1 key from its candidate set.
func (s *Scheduler) refresh(ln int) {
	c := s.cand[ln]
	k := keyClosed
	if c != 0 {
		k = uint64(mathbits.OnesCount64(c))<<keyCountShift | s.rank[mathbits.TrailingZeros64(c)&(maxKernelOffsets-1)] | uint64(ln)
	}
	s.key[ln] = k
}

// buildColumn is the optimized kernel for one (filter, column): identical
// decisions to the reference scheduler's column builder (reference_test.go),
// but candidates live in per-lane bitsets maintained incrementally, and the
// matching algorithm runs on flat arrays with an epoch-stamped visited
// buffer. Returns the number of weights executed.
func (s *Scheduler) buildColumn(alg Algorithm) int {
	lanes := s.lanes
	s.taken = 0
	// Head positions (dt = 0) are never promotion candidates, so the
	// rebuild may run before pass 1 executes them.
	s.rebuildCands()
	cand := s.cand[:lanes]
	// Pass 1: live weights at the head execute in place; their lanes close.
	for ln, b := range s.fLive[s.head*lanes : (s.head+1)*lanes] {
		if b != 0 {
			s.take(ln, s.head, ln)
			cand[ln] = 0
		}
	}

	switch alg {
	case Matching:
		s.matchColumn()
	case GreedySimple:
		// Lanes claim their first reachable weight in pattern-offset order;
		// consume keeps later lanes' sets current.
		for ln := range cand {
			if c := cand[ln]; c != 0 {
				s.promote(ln, mathbits.TrailingZeros64(c))
			}
		}
	default: // Algorithm1
		keys := s.key[:lanes]
		for ln := range keys {
			s.refresh(ln)
		}
		for {
			// The least-flexible open slot is the minimum key: one
			// branch-free pass over the lanes.
			m := keyClosed
			for _, k := range keys {
				d := int64(k - m)
				m += uint64(d & (d >> 63))
			}
			if m == keyClosed {
				break
			}
			ln := int(m & keyLaneMask)
			s.promote(ln, mathbits.TrailingZeros64(cand[ln]))
			cand[ln], keys[ln] = 0, keyClosed
		}
	}
	return s.taken
}

// matchColumn fills the column with a maximum bipartite matching (Kuhn's
// augmenting paths) between open lanes and reachable weights. Weight
// positions index a compact (dt, lane) window space; owner[] is reset per
// column, visited[] is epoch-stamped per augmentation root.
func (s *Scheduler) matchColumn() {
	lanes := s.lanes
	owner := s.owner[:s.dtCap*lanes]
	for i := range owner {
		owner[i] = -1
	}
	matchCand := s.matchCand[:lanes]
	for ln := range matchCand {
		matchCand[ln] = -1
	}
	for ln := 0; ln < lanes; ln++ {
		if s.cand[ln] != 0 {
			s.epoch++
			s.augment(ln)
		}
	}
	for ln, j := range matchCand {
		if j < 0 {
			continue
		}
		v := ln + s.fwd[j]
		if v >= lanes {
			v -= lanes
		}
		if owner[s.dt[j]*lanes+v] != int32(ln) {
			continue // displaced by an augmenting path
		}
		s.take(ln, s.head+s.dt[j], v)
	}
}

// augment tries to match lane ln, recursively displacing owners along an
// augmenting path. Candidate bits are numbered in the reference's sorted
// order, so walking them low to high explores exactly its sequence.
func (s *Scheduler) augment(ln int) bool {
	for c := s.cand[ln]; c != 0; c &= c - 1 {
		j := mathbits.TrailingZeros64(c)
		v := ln + s.fwd[j]
		if v >= s.lanes {
			v -= s.lanes
		}
		wpos := s.dt[j]*s.lanes + v
		if s.visited[wpos] == s.epoch {
			continue
		}
		s.visited[wpos] = s.epoch
		own := s.owner[wpos]
		if own < 0 || s.augment(int(own)) {
			s.owner[wpos] = int32(ln)
			s.matchCand[ln] = int8(j)
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
// (the live plane and pending counts are rewritten, arenas overwritten) or
// tolerate staleness by construction (epoch-stamped buffers rely on
// monotone epochs).
func growSlice[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}
