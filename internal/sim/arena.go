package sim

import (
	"sync"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

// Per-worker buffer reuse, mirroring the internal/sched kernel's arena
// design. A figure sweep prepares tens of thousands of filter groups, and
// each needs the same shapes every time: filter-row materializations, the
// dense-schedule arena, and the lane list, row planes, window sums and PE
// totals the window walk reads. A worker prepares, walks and finishes one
// group before it claims the next, so one groupScratch per worker serves
// every group it runs, and steady-state group turnover allocates nothing
// once the arena has warmed to the largest group shape. Buffers that are
// rebuilt wholesale (weights, the lane list, planes) are reused dirty; the
// window sums and PE totals, built with +=, are zeroed at carve time.

// groupScratch is one pool worker's arena, handed out at pool spin-up
// (indexed by the worker id runPool passes fn) and retained inside the
// pooled sweepState across engine entries. Unlike a sync.Pool, which the GC
// clears, it lives as long as the sweepState and is touched with zero
// synchronization, so the parallel path allocates exactly as little per
// group as the serial path: nothing, once warm.
type groupScratch struct {
	// Prepare-only: weight rows, the filter headers over them, and the
	// dense-schedule arena for configs without a front-end, laid out like
	// the sched kernel's arena (entries of filter i contiguous).
	weights []int32
	filters []sched.Filter
	entries []sched.Entry
	cols    []sched.Column
	schs    []sched.Schedule
	ptrs    []*sched.Schedule
	// The group being run and the buffers its context views: the column
	// kernel's lane list (Lanes offsets, one (column, row)'s at a time),
	// the rows' planes, one row of window sums, and the PE totals.
	ctx      groupCtx
	list     []int
	planes   []*costPlane
	winSums  []uint64
	peTotals []int64
}

// grow returns sl with length n, reusing capacity when possible. Reused
// contents are stale; see the notes above for which buffers tolerate that.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// sweepState is the pooled per-invocation assembly of simulateSweep: the
// config/layer/group bookkeeping structs and the work-item queue, sized by
// the pre-pass and carved into per-config and per-layer views. Figure
// runners and served requests invoke the engine again and again, so
// without this pool every invocation re-allocated the entire assembly.
// Only the LayerResult slices returned to the caller escape; they are
// allocated fresh per run.
type sweepState struct {
	works  []configWork
	layers []layerWork
	groups []groupResult
	slots  []planeSlot
	items  []workItem
	// scratch is the per-worker arena, indexed by runPool's worker id.
	// Deliberately NOT cleared by carve: the warm arenas are exactly what
	// must survive from one engine entry to the next for the steady state
	// to allocate nothing.
	scratch []groupScratch
}

// workerScratch returns the arenas for a pool of `workers`, growing the
// set (and preserving existing warm arenas) when a sweep runs more workers
// than any before it.
func (st *sweepState) workerScratch(workers int) []groupScratch {
	for len(st.scratch) < workers {
		st.scratch = append(st.scratch, groupScratch{})
	}
	return st.scratch
}

var sweepStatePool = sync.Pool{New: func() any { return new(sweepState) }}

// carve resizes the state's backing arrays to one sweep's exact totals and
// zeroes them: every struct here carries one-shot synchronization
// (sync.Once, atomic countdowns) or incrementally-built contents that must
// start clean, and the clear also drops the previous run's pointers
// (schedules, planes, lowered layers) so pooling never extends their
// lifetime past the next engine entry.
func (st *sweepState) carve(nCfgs, nLayers, nGroups, nSlots int) {
	st.works = grow(st.works, nCfgs)
	clear(st.works)
	st.layers = grow(st.layers, nLayers)
	clear(st.layers)
	st.groups = grow(st.groups, nGroups)
	clear(st.groups)
	st.slots = grow(st.slots, nSlots)
	clear(st.slots)
	st.items = grow(st.items, nGroups)
	clear(st.items[:cap(st.items)])
}

// costTableKey identifies a memoized cost table: back-ends ride by
// registry name (names are unique per registry), widths in the clear.
type costTableKey struct {
	be string
	w  fixed.Width
}

// costTables memoizes cost tables process-wide. A table is a pure
// function of (back-end, width) — 2^width bytes built by 2^width Terms
// calls — and the experiment drivers invoke the engine once per (config,
// layer), so without the memo a full-zoo sweep rebuilt the same handful
// of tables hundreds of times over.
var costTables sync.Map // costTableKey -> *costTable

func costTableFor(be backend.Backend, w fixed.Width) *costTable {
	k := costTableKey{be: be.Name(), w: w}
	if v, ok := costTables.Load(k); ok {
		return v.(*costTable)
	}
	v, _ := costTables.LoadOrStore(k, newCostTable(be, w))
	return v.(*costTable)
}

// denseSchedules builds the value-agnostic dense schedule — one column per
// step, every weight in place, nothing skipped — in the scratch arena,
// where it stays valid until the arena's next group (groupSchedules).
func denseSchedules(sc *groupScratch, filters []sched.Filter) []*sched.Schedule {
	nf := len(filters)
	if nf == 0 {
		return nil
	}
	lanes, steps := filters[0].Lanes, filters[0].Steps
	sc.entries = grow(sc.entries, nf*steps*lanes)
	sc.cols = grow(sc.cols, nf*steps)
	sc.schs = grow(sc.schs, nf)
	sc.ptrs = grow(sc.ptrs, nf)
	for i, f := range filters {
		for st := 0; st < steps; st++ {
			ents := sc.entries[(i*steps+st)*lanes : (i*steps+st+1)*lanes]
			for ln := 0; ln < lanes; ln++ {
				if w := f.At(st, ln); w != 0 {
					ents[ln] = sched.Entry{Weight: w, Src: int32(st*lanes + ln)}
				} else {
					ents[ln] = sched.Entry{}
				}
			}
			sc.cols[i*steps+st] = sched.Column{Head: st, Advance: 1, Entries: ents}
		}
		sc.schs[i] = sched.Schedule{Lanes: lanes, DenseSteps: steps}
		if steps > 0 {
			sc.schs[i].Columns = sc.cols[i*steps : (i+1)*steps]
		}
		sc.ptrs[i] = &sc.schs[i]
	}
	return sc.ptrs[:nf]
}
