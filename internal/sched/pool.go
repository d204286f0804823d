package sched

import "sync"

// schedulerPool recycles kernels (and the scratch they have grown) across
// ScheduleGroup calls. Steady-state scheduling through the package entry
// points therefore allocates only the returned schedules themselves — four
// exactly sized allocations per group — while all working state (candidate
// bitsets, matching buffers, column arena) is reused.
var schedulerPool = sync.Pool{New: func() any { return NewScheduler() }}

// ScheduleFilter schedules a single filter.
func ScheduleFilter(f Filter, p Pattern, alg Algorithm) *Schedule {
	return ScheduleGroup([]Filter{f}, p, alg)[0]
}

// ScheduleGroup jointly schedules the filters that share a tile's activation
// window (one per PE row). The ASU and its ALC advance are physically shared
// across rows (Section 5.2: all ASU slices operate in tandem), so the window
// slides only when every filter has consumed the head step; a filter that
// drains early idles until the group finishes — the inter-filter
// synchronization charged as lost time in Figure 9.
//
// All returned schedules have identical column counts, heads, and advances.
// The returned schedules are freshly allocated, in four exactly sized
// allocations, and safe to retain; hot paths that schedule many groups and
// discard the result immediately should hold a *Scheduler instead.
func ScheduleGroup(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	if len(filters) == 0 {
		return nil
	}
	s := schedulerPool.Get().(*Scheduler)
	nf, lanes, steps, cols := s.runGroup(filters, p, alg)
	out := make([]*Schedule, nf)
	s.assembleInto(make([]Entry, nf*cols*lanes), make([]Column, nf*cols), make([]Schedule, nf), out,
		nf, lanes, steps, cols)
	schedulerPool.Put(s)
	return out
}
