package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// layerLatency records, per layer, the wall time from the first work item
// of that layer starting to its last filter group finishing — the quantity
// an operator of the evaluation service watches per request.
var layerLatency = metrics.Default.Histogram("sim_layer_latency")

// workItem is one unit of pool work: one window chunk [w0, w1) of one
// resident filter group of one layer of one sweep config. Most groups are a
// single chunk; when a load yields fewer filter groups than workers, groups
// split below the filter-group grain into contiguous window ranges (aligned
// to the tile's window-group size) so the pool stays busy on
// low-group-count layers — the fig8b scaling cliff.
type workItem struct {
	work         *configWork
	layer, group int
	f0, f1       int
	w0, w1       int
	chunk        int
}

// configWork is one sweep config's private slice of the shared pool run:
// its cost table, per-layer pad masks, lazily-resolved activation cost
// planes, and the per-group accumulators its chunks fold into. A sweep
// flattens every config's chunks into one queue, so independent configs
// overlap in the pool instead of executing back to back.
type configWork struct {
	idx    int // position in the sweep's config list (OnLayerResult's cfg)
	cfg    arch.Config
	lws    []*nn.Lowered
	ct     *costTable
	keyer  sched.Keyer // pre-keyed schedule-cache handle; set iff cfg.HasFrontEnd()
	layers []layerWork
}

// layerWork is one layer's slice of a config's run state, kept in a single
// per-config array so engine entry costs one allocation for all of it.
type layerWork struct {
	pad    []bool
	planes []planeSlot // one per act group (one for row-invariant layers)
	accums []groupAccum
	// result is the layer's merged outcome, written by the worker that
	// finishes the layer's last group (and published to the caller by the
	// pool's WaitGroup barrier). Merging at completion time instead of
	// after the pool drains is what lets OnLayerResult stream a layer the
	// moment its shards fold; the merge consumes only the layer's own
	// complete accums, so the result is bit-identical either way.
	result LayerResult
	// Latency tracking: first-touch timestamp (CAS once) and a countdown
	// of unfinished groups; the worker finishing the layer's last group
	// observes the span.
	start     atomic.Int64
	remaining atomic.Int32
}

// planeSlot resolves one (layer, act group) activation cost plane at most
// once per run, whichever chunk worker gets there first; concurrent
// chunks of other groups of the same layer wait on the Once instead of
// duplicating the cache lookup (and, through the cache's own
// single-flight, the build).
type planeSlot struct {
	once  sync.Once
	plane *costPlane
}

// planeFor returns the cost plane of layer li's act group from the plane
// cache. Only called under a serial back-end — the path the plane layout
// is defined for. The key's content hash is memoized on the lowering, so
// every act group and every config of a run shares one pass over the
// input tensor.
func (cw *configWork) planeFor(li, actGroup int, pc *PlaneCache) *costPlane {
	slots := cw.layers[li].planes
	s := &slots[actGroup]
	s.once.Do(func() {
		lw := cw.lws[li]
		key := planeKeyOf(lw, cw.cfg.Backend, cw.cfg.Width)
		if len(slots) > 1 {
			key.group = actGroup
		}
		s.plane = pc.getKeyed(key, lw, cw.ct, actGroup)
	})
	return s.plane
}

// groupAccum coordinates the chunks of one filter group. The first chunk
// worker to arrive prepares the shared group context (schedules, column
// references, window-independent censuses) under the Once; the last chunk to
// finish folds the window partials into the group's result shard and drops
// the context, keeping peak memory at the pre-chunking level. Every partial
// is a plain integer sum, so the fold is exact regardless of chunk count or
// completion order — parallel output stays bit-identical to serial at any
// worker count. The context lives inline (ctxStore) so group turnover
// costs no allocation; its pooled buffers return to the arena when the
// fold releases them.
type groupAccum struct {
	once      sync.Once
	ctx       *groupCtx
	ctxStore  groupCtx
	partials  []windowPartial
	remaining atomic.Int32
	result    groupResult
}

// layerChunks is the sweep's work-splitting arithmetic for one (config,
// layer): how many window chunks each filter group splits into, the
// layer's dense group count, and its window-group count. Sub-group
// splitting engages only when whole groups — across the whole sweep —
// cannot occupy the pool, and only for the serial back-ends whose
// per-window evaluation dominates (the bit-parallel path is already
// window-independent and cheap). Chunks stay aligned to the tile's
// window-group size so each chunk sees whole window groups (the unit the
// PE-total accumulation is indexed by).
func layerChunks(cfg arch.Config, lw *nn.Lowered, totalGroups, workers int) (nChunks, denseGroups, windowGroups int) {
	denseGroups = (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
	windowGroups = (lw.WindowCount + cfg.WindowsPerTile - 1) / cfg.WindowsPerTile
	chunksPerGroup := 1
	if cfg.Serial() && totalGroups > 0 && totalGroups < workers {
		chunksPerGroup = (workers + totalGroups - 1) / totalGroups
	}
	nChunks = min(chunksPerGroup, windowGroups)
	if nChunks < 1 {
		nChunks = 1
	}
	return nChunks, denseGroups, windowGroups
}

// simulateSweep is the engine core behind every entry point: it flattens
// every config's (layer, filter group) work into one queue (splitting
// groups into window chunks when groups alone cannot fill the pool),
// executes the chunks on the option's pool, and merges each config's
// shards in (layer, group) order so no result depends on execution
// interleaving — per config, output is bit-identical to a serial run at any
// Parallelism and any sweep composition. A cancelled ctx stops the pool
// from claiming further chunks and returns (nil, ctx.Err()) — never a
// partial merge. The entry points validate every config and lane count
// before calling it.
func simulateSweep(ctx context.Context, cfgs []arch.Config, lwss [][]*nn.Lowered, opts Options) ([][]LayerResult, error) {
	cache := opts.cache()
	planeCache := opts.planeCache()
	workers := opts.workers()
	onLayer := opts.OnLayerResult

	totalGroups := 0
	totalLayers := 0
	for k, cfg := range cfgs {
		totalLayers += len(lwss[k])
		for _, lw := range lwss[k] {
			totalGroups += (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
		}
	}

	// Exact working-set sizes up front — chunking only expands the queue
	// when groups alone cannot fill the pool, and the expansion factor
	// depends on totalGroups, so this needs its own pass. layerChunks is
	// the single source of the per-layer chunk arithmetic the build loop
	// reuses. The totals size the pooled sweepState carves below: figure
	// runners and served requests invoke the engine again and again, so
	// without the pool every invocation re-allocated this entire assembly.
	totalItems, totalAccums, totalPartials, totalSlots := 0, 0, 0, 0
	for k, cfg := range cfgs {
		for _, lw := range lwss[k] {
			nChunks, denseGroups, _ := layerChunks(cfg, lw, totalGroups, workers)
			totalItems += denseGroups * nChunks
			totalAccums += denseGroups
			totalPartials += denseGroups * nChunks
			if cfg.Serial() {
				totalSlots += lw.ActGroups()
			}
		}
	}

	st := sweepStatePool.Get().(*sweepState)
	defer sweepStatePool.Put(st)
	st.carve(len(cfgs), totalLayers, totalAccums, totalPartials, totalSlots, totalItems)
	items := st.items
	layerOff, accumOff, partialOff, slotOff := 0, 0, 0, 0
	for k, cfg := range cfgs {
		lws := lwss[k]
		cw := &st.works[k]
		cw.idx = k
		cw.cfg = cfg
		cw.lws = lws
		cw.ct = costTableFor(cfg.Backend, cfg.Width)
		cw.layers = st.layers[layerOff : layerOff+len(lws)]
		layerOff += len(lws)
		if cfg.HasFrontEnd() {
			// Key the cache once per (config): the pattern key and algorithm
			// tag are shared by every group lookup below, so per-group calls
			// hash only filter contents.
			cw.keyer = cache.Keyer(cfg.Pattern, cfg.Scheduler)
		}
		rows := cfg.FiltersPerTile
		for li, lw := range lws {
			lwk := &cw.layers[li]
			lwk.pad = lw.PadMask()
			if cfg.Serial() {
				lwk.planes = st.slots[slotOff : slotOff+lw.ActGroups()]
				slotOff += lw.ActGroups()
			}
			nChunks, denseGroups, windowGroups := layerChunks(cfg, lw, totalGroups, workers)
			lwk.accums = st.accums[accumOff : accumOff+denseGroups]
			accumOff += denseGroups
			lwk.remaining.Store(int32(denseGroups))
			if denseGroups == 0 {
				// A layer with no filter groups never enters the pool; merge
				// its (empty) result here so callers and callbacks still see
				// every (config, layer) cell.
				lwk.result = mergeLayer(cfg, lw, nil)
				if onLayer != nil {
					onLayer(k, li, lwk.result)
				}
				continue
			}
			// One flat partial range per layer; each group views its chunk
			// range, so the per-group slice costs nothing.
			layerPartials := st.partials[partialOff : partialOff+denseGroups*nChunks]
			partialOff += denseGroups * nChunks
			for g := 0; g < denseGroups; g++ {
				f0 := g * rows
				f1 := min(f0+rows, lw.Filters)
				ga := &lwk.accums[g]
				ga.partials = layerPartials[g*nChunks : (g+1)*nChunks]
				ga.remaining.Store(int32(nChunks))
				for c := 0; c < nChunks; c++ {
					// Even split of window groups across chunks, in window units.
					wg0 := windowGroups * c / nChunks
					wg1 := windowGroups * (c + 1) / nChunks
					items = append(items, workItem{
						work: cw, layer: li, group: g, f0: f0, f1: f1,
						w0:    wg0 * cfg.WindowsPerTile,
						w1:    min(wg1*cfg.WindowsPerTile, lw.WindowCount),
						chunk: c,
					})
				}
			}
		}
	}
	wstates := st.workerStates(workers)
	completed := runPool(ctx.Done(), workers, len(items), func(w, i int) {
		ws := &wstates[w]
		it := items[i]
		cw := it.work
		lw := cw.lws[it.layer]
		lwk := &cw.layers[it.layer]
		if lwk.start.Load() == 0 {
			lwk.start.CompareAndSwap(0, time.Now().UnixNano())
		}
		ga := &lwk.accums[it.group]
		ga.once.Do(func() {
			prepareGroupInto(&ga.ctxStore, cw.cfg, lw, lwk.pad, it.f0, it.f1, len(ga.partials), &cw.keyer, ws)
			ga.ctx = &ga.ctxStore
			if ga.ctx.needsWindows {
				// Resolve each PE row's act-group plane once per group; a
				// resident group of a grouped/depthwise layer can straddle an
				// act-group boundary, so rows index their own plane.
				for ri := range ga.ctx.rowPlanes {
					ga.ctx.rowPlanes[ri] = cw.planeFor(it.layer, lw.ActGroupOf(it.f0+ri), planeCache)
				}
			}
		})
		var wp windowPartial
		if ga.ctx.needsWindows {
			wp = ga.ctx.evalWindows(cw.cfg, it.w0, it.w1, ga.ctx.peChunk(it.chunk))
		}
		ga.partials[it.chunk] = wp
		if ga.remaining.Add(-1) == 0 {
			ga.result = finishGroup(cw.cfg, ga.ctx, ga.partials, ws)
			ga.ctx = nil
			if lwk.remaining.Add(-1) == 0 {
				lwk.result = mergeLayer(cw.cfg, lw, lwk.accums)
				layerLatency.Observe(time.Duration(time.Now().UnixNano() - lwk.start.Load()))
				if onLayer != nil {
					onLayer(cw.idx, it.layer, lwk.result)
				}
			}
		}
	})
	if !completed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Unreachable: the pool only stops early when ctx is done.
		return nil, context.Canceled
	}
	// The results escape to the caller, so they cannot come from the pooled
	// state: two flat allocations cover the whole sweep. Each layer was
	// merged by the worker that finished it; the pool's WaitGroup barrier
	// publishes those writes.
	flat := make([]LayerResult, totalLayers)
	out := make([][]LayerResult, len(cfgs))
	off := 0
	for k := range st.works {
		cw := &st.works[k]
		out[k] = flat[off : off+len(cw.lws) : off+len(cw.lws)]
		off += len(cw.lws)
		for li := range cw.lws {
			out[k][li] = cw.layers[li].result
		}
	}
	return out, nil
}

// mergeLayer folds the per-group shards into one LayerResult, in group
// order, reproducing exactly the accumulation the serial engine performs.
func mergeLayer(cfg arch.Config, lw *nn.Lowered, accums []groupAccum) LayerResult {
	r := LayerResult{Name: lw.Name, MACs: lw.Layer().MACs()}

	rows := cfg.FiltersPerTile
	steps, F, W := lw.Steps, lw.Filters, lw.WindowCount

	// Dense baseline reference (DaDianNao++ shares the rows/lanes geometry).
	denseGroups := (F + rows - 1) / rows
	denseRounds := (denseGroups + cfg.Tiles - 1) / cfg.Tiles
	r.DenseCycles = int64(denseRounds) * int64(steps) * int64(W)

	// Reduction-split factor for window-poor layers on multi-column tiles.
	split := 1
	if W < cfg.WindowsPerTile {
		split = cfg.WindowsPerTile / W
		if split < 1 {
			split = 1
		}
	}

	// Activation scratchpad fetches are value-agnostic and identical across
	// the design family: every input activation is buffered once per kernel
	// row (row-buffer reuse along x) in each tile that consumes the layer.
	rowsPerAct := int64(1)
	if l := lw.Layer(); l.Kind != nn.FC && l.Stride > 0 {
		rowsPerAct = int64((l.R + l.Stride - 1) / l.Stride)
	}
	tilesUsed := denseGroups
	if tilesUsed > cfg.Tiles {
		tilesUsed = cfg.Tiles
	}
	r.Activity.ActReads = int64(len(lw.Input().Data)) * rowsPerAct * int64(tilesUsed)

	// Tile counts are single digits in every modeled design; spill to the
	// heap only past 16.
	var ttBuf [16]int64
	tileTime := ttBuf[:]
	if cfg.Tiles <= len(ttBuf) {
		tileTime = ttBuf[:cfg.Tiles]
	} else {
		tileTime = make([]int64, cfg.Tiles)
	}
	for g := range accums {
		gr := &accums[g].result
		groupCycles := gr.cycles
		if split > 1 {
			groupCycles = (groupCycles + int64(split) - 1) / int64(split)
		}
		tileTime[g%cfg.Tiles] += groupCycles
		r.FrontEnd.Columns += gr.frontEnd.Columns
		r.FrontEnd.DenseSteps += gr.frontEnd.DenseSteps
		for k := range gr.frontEnd.Slots {
			r.FrontEnd.Slots[k] += gr.frontEnd.Slots[k]
		}
		r.BackEnd.Add(gr.backEnd)
		r.Activity.SerialLaneCycles += gr.activity.SerialLaneCycles
		r.Activity.ParallelMACs += gr.activity.ParallelMACs
		r.Activity.WSColumnReads += gr.activity.WSColumnReads
		r.Activity.MuxSelects += gr.activity.MuxSelects
		r.Activity.PsumAccesses += gr.activity.PsumAccesses
		r.Activity.OffsetEncodes += gr.activity.OffsetEncodes
	}
	for _, t := range tileTime {
		if t > r.Cycles {
			r.Cycles = t
		}
	}
	return r
}

// groupResult is one filter group's private accumulation shard: everything
// simulateGroup learns about the group, free of shared state so groups can
// execute on any worker in any order.
type groupResult struct {
	cycles   int64
	frontEnd sched.Stats
	backEnd  Breakdown
	activity Activity
}

// groupCtx is the window-independent state of one filter group, built once
// per group (under the groupAccum's Once) and shared read-only by every
// window chunk of that group. Its grids live in one pooled arena
// (groupBufs), flattened: refs[(ci*nrows+ri)*lanes+ln] is lane ln's
// activation source in column ci of row ri's schedule, as the plane slot
// step*lanes+lane — the promoted weight's dense position for effectual
// lanes, the column head's for idle ones.
type groupCtx struct {
	nrows, cols  int
	needsWindows bool // serial back-ends walk windows; bit-parallel is done at prepare
	refs         []int32
	// masks holds one laneWords-word effectual-lane mask per (column, row)
	// at (ci*nrows+ri)*laneWords(lanes): 0xFF bytes for lanes carrying a
	// nonzero weight, 0x00 elsewhere. Gated configs sync the column on
	// these lanes alone; ungated ones sync every lane.
	masks []uint64
	// rowPlanes[ri] is PE row ri's activation cost plane (rows of one act
	// group share a plane; row-invariant layers share one across all
	// rows). Resolved by the engine under the groupAccum Once.
	rowPlanes []*costPlane
	// peTotals is the engine's pre-zeroed per-chunk accumulator arena
	// (nChunks strides of peStride = nrows*WindowsPerTile); peChunk hands
	// each chunk its stride.
	peTotals []int64
	peStride int
	bufs     *groupBufs // backing arena, returned to the pool at release
	gate     bool
	base     groupResult // window-independent accumulations (full result when !needsWindows)
}

// peChunk is window chunk c's view of the group's PE-total arena.
func (ctx *groupCtx) peChunk(c int) []int64 {
	return ctx.peTotals[c*ctx.peStride : (c+1)*ctx.peStride]
}

// windowPartial is one chunk's contribution: per-(row, PE column) cycle
// totals plus the lane census and serial-cycle count over the chunk's
// windows. All fields are exact integer sums, so chunk partials fold
// element-wise into precisely the serial engine's accumulators.
type windowPartial struct {
	peTotals []int64
	backEnd  Breakdown
	serial   int64
}

// prepareGroupInto builds one resident filter group's shared context:
// filters, schedules (through keyer, which front-end configs must carry),
// the front-end census, datapath activity that depends only on column
// structure, and the per-column lane references the window walk consumes.
// For the bit-parallel back-end the group's full result is computed here
// (its cost model is window-independent).
//
// Filter rows are materialized into the worker's private scratch arena
// (handed out at pool spin-up) and recycled before returning — safe
// because schedules never retain their filters (sched.NewFilter wraps the
// row slice, and both the cache and the kernel copy entry data, not
// weights). The context's own grids carve from a second arena (the
// worker's freelist, or the shared pool) held until finishGroup releases
// it.
func prepareGroupInto(ctx *groupCtx, cfg arch.Config, lw *nn.Lowered, pad []bool, f0, f1, nChunks int, keyer *sched.Keyer, ws *workerState) {
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	steps, W := lw.Steps, lw.WindowCount
	nrows := f1 - f0
	*ctx = groupCtx{nrows: nrows}
	r := &ctx.base

	sc := ws.scratch()
	sc.weights = grow(sc.weights, nrows*steps*lanes)
	sc.filters = grow(sc.filters, nrows)
	filters := sc.filters[:nrows]
	for i := 0; i < nrows; i++ {
		row := sc.weights[i*steps*lanes : (i+1)*steps*lanes]
		lw.FilterRowInto(f0+i, row)
		filters[i] = sched.NewFilter(lanes, steps, row, pad)
	}
	var schedules []*sched.Schedule
	if cfg.HasFrontEnd() {
		h1, h2 := sched.HashFilters(filters)
		schedules = keyer.ScheduleGroup(h1, h2, filters)
	} else {
		schedules = denseSchedules(sc, filters)
	}
	cols := 0
	if nrows > 0 {
		cols = schedules[0].Len()
	}
	ctx.cols = cols

	// Front-end census.
	for i, s := range schedules {
		st := s.Stats(filters[i])
		r.frontEnd.Columns += st.Columns
		r.frontEnd.DenseSteps += st.DenseSteps
		for k := range st.Slots {
			r.frontEnd.Slots[k] += st.Slots[k]
		}
	}
	// Filter-count padding: PE rows beyond the layer's filters idle.
	r.frontEnd.Slots[sched.SlotPad] += int64(rows-nrows) * int64(cols) * int64(lanes)

	numWGroups := (W + wg - 1) / wg
	r.activity.WSColumnReads += int64(cols) * ceilDiv64(int64(numWGroups), int64(cfg.PsumRegsPerPE))
	r.activity.MuxSelects += muxSelects(cfg, schedules, W)
	r.activity.PsumAccesses += int64(nrows) * int64(cols) * int64(W)

	if !cfg.Serial() {
		var macs int64
		if cfg.HasFrontEnd() {
			for _, s := range schedules {
				for _, col := range s.Columns {
					for _, e := range col.Entries {
						if e.Weight != 0 {
							macs++
						}
					}
				}
			}
		} else {
			// The dense baseline multiplies every lane every cycle.
			macs = int64(nrows) * int64(lanes) * int64(cols)
		}
		r.activity.ParallelMACs += macs * int64(W)
		r.cycles = int64(cols) * int64(W)
		return
	}
	ctx.needsWindows = true
	if cfg.Backend.OffsetEncoder() {
		r.activity.OffsetEncodes += int64(cols) * int64(lanes) * int64(W)
	}

	// Serial back-ends: column structure is window-independent; precompute
	// per-column, per-row lane references and effectual-lane masks once,
	// shared by every chunk. All grids carve from one pooled arena: refs and
	// rowPlanes are rebuilt wholesale (reused dirty); the |=-built masks and
	// +=-folded PE totals are zeroed at carve.
	ctx.gate = cfg.HasFrontEnd()
	b := ws.getBufs()
	ctx.bufs = b
	b.refs = grow(b.refs, cols*nrows*lanes)
	ctx.refs = b.refs[:cols*nrows*lanes]
	mw := laneWords(lanes)
	b.masks = grow(b.masks, cols*nrows*mw)
	ctx.masks = b.masks[:cols*nrows*mw]
	clear(ctx.masks)
	b.planes = grow(b.planes, nrows)
	ctx.rowPlanes = b.planes[:nrows]
	clear(ctx.rowPlanes)
	ctx.peStride = nrows * wg
	b.peTotals = grow(b.peTotals, nChunks*ctx.peStride)
	ctx.peTotals = b.peTotals[:nChunks*ctx.peStride]
	clear(ctx.peTotals)
	for ci := 0; ci < cols; ci++ {
		for ri := 0; ri < nrows; ri++ {
			col := schedules[ri].Columns[ci]
			refs := ctx.refs[(ci*nrows+ri)*lanes : (ci*nrows+ri+1)*lanes]
			mask := ctx.masks[(ci*nrows+ri)*mw : (ci*nrows+ri+1)*mw]
			for ln, e := range col.Entries {
				if e.Weight != 0 {
					refs[ln] = int32(e.SrcStep*lanes + e.SrcLane)
					mask[ln>>3] |= 0xff << (8 * uint(ln&7))
				} else {
					refs[ln] = int32(col.Head*lanes + ln)
				}
			}
		}
	}
}

// windowBlock is the widest window span one pass over a (column, row)'s
// lanes covers: eight 8-window words per census accumulator, all on the
// stack.
const windowBlock = 64

// countLanes is how many lanes a byte of a nonzero-count word can count
// before it wraps. Wider PEs spill the byte counts every countLanes lanes.
const countLanes = 255

// SWAR constants of the census: each byte of a cost word is one window's
// cost, at most maxLaneCost.
const (
	swarLow7 = 0x7f7f7f7f7f7f7f7f // + cost sets bit 7 of a byte iff cost > 0
	swarEven = 0x00ff00ff00ff00ff // even bytes, widened to 16-bit sums
)

// evalWindows walks the serial back-end over the window range [wLo, wHi) —
// always whole window groups — and returns the chunk's partial sums, its
// PE totals accumulated into dst (the chunk's peChunk stride).
//
// Lanes within a PE are lockstep every column (they feed one adder
// tree), so a PE's column duration is the max lane cost ("Column
// Sync"): max(1, max cost over the effectual lanes) when the config
// gates ineffectual lanes out, over every lane when it has no front-end.
// PEs of a tile run decoupled — buffered weight columns and the per-PE
// psum registers absorb rate differences across windows and rows — and
// synchronize when the resident filter group completes ("implicit
// synchronization at the end of each group of concurrently processed
// activations", charged as "Tile Sync"). Each PE grid column owns the
// windows congruent to its position.
//
// The walk is word-parallel over windows. Planes are window-minor, so one
// uint64 load fetches one lane's costs for 8 consecutive windows, and a
// pass over a (column, row)'s lanes covers a block of up to windowBlock
// windows. Per window it folds, one byte per window:
//
//   - peMax, the column max over the syncing lanes (byteMax);
//   - nzE and nz, the number of nonzero costs over the effectual lanes
//     and over all lanes: (c + 0x7f) has bit 7 set iff c > 0, with no
//     carry into the next byte because c <= maxLaneCost;
//
// and per lane the cost sum over the block's windows. The Figure-9 lane
// census then follows from sums alone (E: effectual lanes, I: idle lanes,
// nEff and nIdle their counts, Σ over every (column, row, window)):
//
//	Useful     = Σ_E c
//	ColumnSync = Σ peMax·nzE − Σ_E c
//	AZero      = Σ nEff·peMax − Σ peMax·nzE
//	WZero      = Σ peMax·nzI
//	BothZero   = Σ nIdle·peMax − Σ peMax·nzI
//
// with nzI = nz − nzE, and the lane cycles add Σ_I c only when the config
// has no front-end to gate idle lanes. Every term is an exact integer
// sum, so the result is bit-identical to a per-lane walk that classifies
// each (lane, window) into one census bucket. Costs are loaded from PE
// row ri's cost plane, rowPlanes[ri], by precomputed slot offset; rows of
// one act group share a plane, so row-invariant, grouped, and depthwise
// layers all take this path.
func (ctx *groupCtx) evalWindows(cfg arch.Config, wLo, wHi int, dst []int64) windowPartial {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	nrows, cols := ctx.nrows, ctx.cols
	mw := laneWords(lanes)
	var ungated uint64 // ORed into every lane's sync mask without a front-end
	if !ctx.gate {
		ungated = ^uint64(0)
	}
	var (
		costEff, costAll int64 // Σ_E c, Σ c
		maxSum, maxEff   int64 // Σ peMax, Σ nEff·peMax
		maxNzEff, maxNz  int64 // Σ peMax·nzE, Σ peMax·nz
	)
	wide := lanes > countLanes
	var spillE, spillA [windowBlock]int64 // per-window counts past countLanes lanes
	for b0 := wLo; b0 < wHi; b0 += windowBlock {
		nw := min(windowBlock, wHi-b0)
		nWords := (nw + 7) / 8
		var valid [windowBlock / 8]uint64 // 0xFF for the block's windows
		for k := 0; k < nWords; k++ {
			valid[k] = ^uint64(0)
		}
		valid[nWords-1] >>= 8 * uint(8*nWords-nw)
		col0 := (b0 - wLo) % wg
		for ci := 0; ci < cols; ci++ {
			for ri := 0; ri < nrows; ri++ {
				cr := ci*nrows + ri
				refs := ctx.refs[cr*lanes : (cr+1)*lanes]
				eff := ctx.masks[cr*mw : (cr+1)*mw]
				plane := ctx.rowPlanes[ri]
				var mx, nzE, nzA [windowBlock / 8]uint64
				if wide {
					clear(spillE[:nw])
					clear(spillA[:nw])
				}
				for l0 := 0; l0 < lanes; l0 += countLanes {
					if l0 > 0 {
						for j := 0; j < nw; j++ {
							sh := 8 * uint(j&7)
							spillE[j] += int64(nzE[j>>3] >> sh & 0xff)
							spillA[j] += int64(nzA[j>>3] >> sh & 0xff)
						}
						nzE, nzA = [windowBlock / 8]uint64{}, [windowBlock / 8]uint64{}
					}
					for ln := l0; ln < min(lanes, l0+countLanes); ln++ {
						e := -(eff[ln>>3] >> (8 * uint(ln&7)) & 1) // all ones iff effectual
						sync := e | ungated
						row := plane.slot(int(refs[ln]))[b0:]
						// sum holds 16-bit partial sums of byte pairs, each
						// at most 8 words × 2 × 127, so the multiply's top 16
						// bits are the lane's exact total (<= 64 × 127).
						var sum uint64
						for k := 0; k < nWords; k++ {
							x := binary.LittleEndian.Uint64(row[8*k:]) & valid[k]
							mx[k] = byteMax(mx[k], x&sync)
							nz := (x + swarLow7) & swarHigh >> 7
							nzA[k] += nz
							nzE[k] += nz & e
							sum += x&swarEven + x>>8&swarEven
						}
						c := int64(sum * 0x0001000100010001 >> 48)
						costAll += c
						costEff += c & int64(e)
					}
				}
				nEff := 0
				for _, w := range eff {
					nEff += bits.OnesCount64(w)
				}
				nEff /= 8
				pe := dst[ri*wg : (ri+1)*wg]
				pc := col0
				var blockMax int64
				for j := 0; j < nw; j++ {
					sh := 8 * uint(j&7)
					peMax := max(int64(mx[j>>3]>>sh&0xff), 1)
					ne := int64(nzE[j>>3] >> sh & 0xff)
					na := int64(nzA[j>>3] >> sh & 0xff)
					if wide {
						ne += spillE[j]
						na += spillA[j]
					}
					pe[pc] += peMax
					if pc++; pc == wg {
						pc = 0
					}
					blockMax += peMax
					maxNzEff += peMax * ne
					maxNz += peMax * na
				}
				maxSum += blockMax
				maxEff += int64(nEff) * blockMax
			}
		}
	}
	wp := windowPartial{peTotals: dst, serial: costEff}
	wp.backEnd.Useful = costEff
	wp.backEnd.ColumnSync = maxNzEff - costEff
	wp.backEnd.AZero = maxEff - maxNzEff
	wp.backEnd.WZero = maxNz - maxNzEff
	wp.backEnd.BothZero = int64(lanes)*maxSum - maxEff - wp.backEnd.WZero
	if !ctx.gate {
		wp.serial = costAll
	}
	return wp
}

// finishGroup folds the chunk partials into the group's result shard. The
// fold order over chunks never matters: peTotals merge by element-wise
// addition and the census fields are sums, so the max/sync pass below sees
// exactly the accumulators the serial single-chunk walk would have built.
// The group's buffers return to the finishing worker's freelist.
func finishGroup(cfg arch.Config, ctx *groupCtx, partials []windowPartial, ws *workerState) groupResult {
	r := ctx.base
	if !ctx.needsWindows {
		ctx.releaseTo(ws)
		return r
	}
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	defer ctx.releaseTo(ws)
	// Fold destructively into chunk 0's stride: the strides are disjoint
	// views of the group's arena, and nothing reads a chunk partial after
	// the fold.
	peTotals := partials[0].peTotals
	var serial int64
	for pi, wp := range partials {
		if pi > 0 {
			for i, t := range wp.peTotals {
				peTotals[i] += t
			}
		}
		r.backEnd.Add(wp.backEnd)
		serial += wp.serial
	}
	// Filter-group duration: the slowest PE of the tile.
	var groupCycles int64
	for _, t := range peTotals {
		if t > groupCycles {
			groupCycles = t
		}
	}
	// Tile-sync deficit for the PEs that carried work. PE columns with no
	// windows of their own are either serving reduction slices (the W < wg
	// split path — their lane time is already accounted on the owning
	// column) or idled by a partial final window group; neither is a sync
	// loss, so the census skips them. Absent rows burn the whole duration.
	for _, t := range peTotals {
		if t > 0 {
			r.backEnd.TileSync += (groupCycles - t) * int64(lanes)
		}
	}
	r.backEnd.WZero += int64(rows-ctx.nrows) * int64(wg) * int64(lanes) * groupCycles
	r.activity.SerialLaneCycles += serial
	r.cycles = groupCycles
	return r
}

// ceilDiv64 is ceil(a/b) for non-negative a. A non-positive divisor can
// only come from a misconfigured architecture parameter that bypassed
// Config.Validate (e.g. PsumRegsPerPE = 0); returning a quietly would
// dress the misconfiguration up as a plausible cycle count, so it panics
// instead. The quotient-plus-remainder form cannot overflow for any a,
// unlike (a+b-1)/b.
func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("sim: ceilDiv64: non-positive divisor %d (misconfigured arch parameter?)", b))
	}
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// muxSelects counts activation-mux switch events: one per effectual entry
// per window for front-end configs.
func muxSelects(cfg arch.Config, schedules []*sched.Schedule, W int) int64 {
	if !cfg.HasFrontEnd() {
		return 0
	}
	var n int64
	for _, s := range schedules {
		for _, col := range s.Columns {
			for _, e := range col.Entries {
				if e.Weight != 0 {
					n++
				}
			}
		}
	}
	return n * int64(W)
}
