package sim

import (
	"sync"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

// Per-group buffer reuse, mirroring the internal/sched kernel's arena
// design. A figure sweep prepares tens of thousands of filter groups, and
// before this file each prepared group heap-allocated its filter-row
// materializations, its lane-reference and participation-mask grids, and
// its chunk accumulators — identical shapes every time, with two distinct
// lifetimes:
//
//   - groupScratch lives only within one prepareGroupInto call (weight
//     rows, the filter headers over them, and the dense-schedule arena for
//     front-end-less configs). Recycled the moment prepareGroupInto
//     returns.
//   - groupBufs lives from prepareGroupInto to finishGroup (lane refs,
//     SWAR masks, per-row plane pointers, per-chunk PE totals). Recycled
//     when the group's last window chunk folds.
//
// Both recycle through each worker's workerState (groupBufs falling back
// to a sync.Pool), so steady-state group turnover allocates nothing once
// the arenas have warmed to the largest group shape. Buffers that are rebuilt wholesale (refs, planes, weights) are
// reused dirty; buffers built incrementally (gated masks with |=, PE
// totals with +=) are zeroed at carve time.

// groupScratch is the transient working set of one prepareGroupInto call.
type groupScratch struct {
	weights []int32
	filters []sched.Filter
	// Dense-schedule arena for configs without a front-end; laid out like
	// the sched kernel's arena (entries of filter i contiguous).
	entries []sched.Entry
	cols    []sched.Column
	schs    []sched.Schedule
	ptrs    []*sched.Schedule
}

// groupBufs is the prepare-to-finish working set of one filter group.
type groupBufs struct {
	refs     []laneRef
	masks    []uint64
	planes   []*costPlane
	peTotals []int64
}

var groupBufsPool = sync.Pool{New: func() any { return &groupBufs{} }}

// releaseTo returns the group's buffers to the finishing worker's
// freelist and severs the context's views into them. Called by
// finishGroup after the fold.
func (ctx *groupCtx) releaseTo(ws *workerState) {
	b := ctx.bufs
	if b == nil {
		return
	}
	ctx.bufs = nil
	ctx.refs, ctx.masks, ctx.rowPlanes, ctx.peTotals = nil, nil, nil, nil
	ws.putBufs(b)
}

// workerState is one pool worker's private arena set, handed out at pool
// spin-up (indexed by the worker id runPool passes fn) and retained inside
// the pooled sweepState across engine entries. Unlike the sync.Pools —
// which the GC clears, and which eight workers hit per chunk — these live
// as long as the sweepState and are touched with zero synchronization, so
// the parallel path's per-chunk arena traffic allocates exactly as little
// as the serial path's: nothing, once warm.
//
// The scratch arena (sc) is safe per worker because a worker runs one item
// at a time and prepareGroupInto consumes it synchronously. groupBufs
// cross workers (acquired by the preparing worker, released by whichever
// worker folds the group's last chunk), so they route through per-worker
// freelists: pop on prepare, push on finish.
type workerState struct {
	sc   *groupScratch
	free []*groupBufs
	// Pad to 128 bytes so adjacent workers' states never share a cache
	// line (the slice header is rewritten on every push/pop).
	_ [96]byte
}

// scratch returns the worker's transient prepare arena, creating it on the
// worker's first group (the one-time warmup this design accepts).
func (ws *workerState) scratch() *groupScratch {
	if ws.sc == nil {
		ws.sc = new(groupScratch)
	}
	return ws.sc
}

// getBufs pops a prepare-to-finish buffer set from the worker's freelist,
// falling back to the shared pool when the freelist is dry (first groups,
// or a workload where other workers finish this worker's groups).
func (ws *workerState) getBufs() *groupBufs {
	if n := len(ws.free); n > 0 {
		b := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		return b
	}
	return groupBufsPool.Get().(*groupBufs)
}

// putBufs pushes a released buffer set onto the worker's freelist.
func (ws *workerState) putBufs(b *groupBufs) { ws.free = append(ws.free, b) }

// grow returns sl with length n, reusing capacity when possible. Reused
// contents are stale; see the lifetime notes above for which buffers
// tolerate that.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// sweepState is the pooled per-invocation assembly of simulateSweep: the
// config/layer/group bookkeeping structs and the work-item queue, sized by
// the pre-pass and carved into per-config and per-layer views. The
// experiment drivers invoke the engine once per (config, layer), so before
// this pool every invocation re-allocated the entire assembly — the
// dominant remainder of fig8a's allocation profile after the group arenas
// landed. Only the LayerResult slices returned to the caller escape; they
// are allocated fresh per run.
type sweepState struct {
	works    []configWork
	layers   []layerWork
	accums   []groupAccum
	partials []windowPartial
	slots    []planeSlot
	items    []workItem
	// wstates is the per-worker arena set, indexed by runPool's worker id.
	// Deliberately NOT cleared by carve: the scratch arenas and freelists
	// are exactly what must survive from one engine entry to the next for
	// the steady state to allocate nothing.
	wstates []workerState
}

// workerStates returns the state array for a pool of `workers`, growing it
// (and preserving existing warm arenas) when a sweep asks for more workers
// than any before it.
func (st *sweepState) workerStates(workers int) []workerState {
	if workers < 1 {
		workers = 1
	}
	for len(st.wstates) < workers {
		st.wstates = append(st.wstates, workerState{})
	}
	return st.wstates
}

var sweepStatePool = sync.Pool{New: func() any { return new(sweepState) }}

// carve resizes the state's backing arrays to one sweep's exact totals and
// zeroes them: every struct here carries one-shot synchronization
// (sync.Once, atomic countdowns) or incrementally-built contents that must
// start clean, and the clear also drops the previous run's pointers
// (schedules, planes, lowered layers) so pooling never extends their
// lifetime past the next engine entry.
func (st *sweepState) carve(nCfgs, nLayers, nAccums, nPartials, nSlots, nItems int) {
	st.works = grow(st.works, nCfgs)
	clear(st.works)
	st.layers = grow(st.layers, nLayers)
	clear(st.layers)
	st.accums = grow(st.accums, nAccums)
	clear(st.accums)
	st.partials = grow(st.partials, nPartials)
	clear(st.partials)
	st.slots = grow(st.slots, nSlots)
	clear(st.slots)
	if cap(st.items) < nItems {
		st.items = make([]workItem, 0, nItems)
	} else {
		st.items = st.items[:0]
		clear(st.items[:cap(st.items)])
	}
}

// fullMasks memoizes the ungated participation mask per lane count: the
// all-lanes SWAR mask is immutable and identical for every ungated group
// of a given geometry, so groups share one slice instead of building one
// each.
var fullMasks sync.Map // int (lanes) -> []uint64

func fullLaneMaskShared(lanes int) []uint64 {
	if m, ok := fullMasks.Load(lanes); ok {
		return m.([]uint64)
	}
	m, _ := fullMasks.LoadOrStore(lanes, fullLaneMask(lanes))
	return m.([]uint64)
}

// costTableKey identifies a memoized cost table: back-ends ride by
// registry name (names are unique per registry), widths in the clear.
type costTableKey struct {
	be string
	w  fixed.Width
}

// costTables memoizes cost tables process-wide. A table is a pure
// function of (back-end, width) — 2^width bytes built by 2^width Cost
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
// step, every weight in place, nothing skipped — in the scratch arena.
// The schedules are consumed (census, activity, lane refs) before
// prepareGroupInto returns, so arena backing is safe.
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
					ents[ln] = sched.Entry{Weight: w, SrcStep: st, SrcLane: ln}
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
