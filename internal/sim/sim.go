package sim

import (
	"context"
	"fmt"
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

// workItem is one unit of pool work: one resident filter group of one layer
// of one sweep config. The worker that claims it prepares, walks and
// finishes the group, so no group state crosses workers.
type workItem struct {
	work         *configWork
	layer, group int
}

// configWork is one sweep config's private slice of the shared pool run:
// its cost table, per-layer pad masks, lazily-resolved activation cost
// planes, and the per-group results its items write. A sweep flattens
// every config's filter groups into one queue, so independent configs
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
	memo   groupMemo     // the config's tables in the lowering's memo
	planes []planeSlot   // one per act group (one for row-invariant layers)
	groups []groupResult // one per filter group, written by the worker that ran it
	// result is the layer's merged outcome, written by the worker that
	// finishes the layer's last group (and published to the caller by the
	// pool's WaitGroup barrier). Merging at completion time instead of
	// after the pool drains is what lets OnLayerResult stream a layer the
	// moment its groups finish; the merge reads only the layer's own
	// complete groups, so the result is bit-identical either way.
	result LayerResult
	// Latency tracking: first-touch timestamp (CAS once) and a countdown
	// of unfinished groups; the worker finishing the layer's last group
	// observes the span.
	start     atomic.Int64
	remaining atomic.Int32
}

// planeSlot resolves one (layer, act group) activation cost plane at most
// once per run, whichever worker gets there first; concurrent groups of
// the same layer wait on the Once instead of duplicating the cache lookup
// (and, through the cache's own single-flight, the build).
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

// simulateSweep is the engine core behind every entry point: it flattens
// every config's (layer, filter group) work into one queue, executes it on
// the option's pool, and merges each config's groups in (layer, group)
// order so no result depends on execution interleaving — per config,
// output is bit-identical to a serial run at any Parallelism and any sweep
// composition. A cancelled ctx stops the pool from claiming further groups
// and returns (nil, ctx.Err()) — never a partial merge. The entry points
// validate every config and lane count before calling it.
func simulateSweep(ctx context.Context, cfgs []arch.Config, lwss [][]*nn.Lowered, opts Options) ([][]LayerResult, error) {
	cache := opts.cache()
	planeCache := opts.planeCache()
	onLayer := opts.OnLayerResult

	// Exact working-set sizes up front. The totals size the pooled
	// sweepState carved below: figure runners and served requests invoke
	// the engine again and again, so without the pool every invocation
	// re-allocated this entire assembly.
	totalLayers, totalGroups, totalSlots := 0, 0, 0
	for k, cfg := range cfgs {
		totalLayers += len(lwss[k])
		for _, lw := range lwss[k] {
			totalGroups += (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
			if cfg.Serial() {
				totalSlots += lw.ActGroups()
			}
		}
	}
	// Every worker owns an arena, and Parallelism arrives unchecked from
	// requests, so size the pool by the work before sizing any state.
	workers := min(opts.workers(), totalGroups)

	st := sweepStatePool.Get().(*sweepState)
	defer sweepStatePool.Put(st)
	st.carve(len(cfgs), totalLayers, totalGroups, totalSlots)
	items := st.items[:0]
	layerOff, groupOff, slotOff := 0, 0, 0
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
			// tag are shared by every group lookup below, so a lookup needs
			// only the group's content hash, which the lowering's memo
			// holds after the group's first touch.
			cw.keyer = cache.Keyer(cfg.Pattern, cfg.Scheduler)
		}
		for li, lw := range lws {
			lwk := &cw.layers[li]
			lwk.memo = memoFor(cfg, lw, &cw.keyer)
			if cfg.Serial() {
				lwk.planes = st.slots[slotOff : slotOff+lw.ActGroups()]
				slotOff += lw.ActGroups()
			}
			groups := (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
			lwk.groups = st.groups[groupOff : groupOff+groups]
			groupOff += groups
			lwk.remaining.Store(int32(groups))
			if groups == 0 {
				// A layer with no filter groups never enters the pool; merge
				// its (empty) result here so callers and callbacks still see
				// every (config, layer) cell.
				lwk.result = mergeLayer(cfg, lw, nil)
				if onLayer != nil {
					onLayer(k, li, lwk.result)
				}
				continue
			}
			for g := 0; g < groups; g++ {
				items = append(items, workItem{work: cw, layer: li, group: g})
			}
		}
	}
	scratch := st.workerScratch(workers)
	completed := runPool(ctx.Done(), workers, len(items), func(w, i int) {
		it := items[i]
		cw := it.work
		lw := cw.lws[it.layer]
		lwk := &cw.layers[it.layer]
		if lwk.start.Load() == 0 {
			lwk.start.CompareAndSwap(0, time.Now().UnixNano())
		}
		gc := prepareGroupInto(&scratch[w], cw.cfg, lw, it.group, &cw.keyer, lwk.memo)
		r := gc.base
		if gc.needsWindows {
			// Resolve each PE row's act-group plane; a resident group of a
			// grouped/depthwise layer can straddle an act-group boundary, so
			// rows index their own plane.
			f0 := it.group * cw.cfg.FiltersPerTile
			for ri := range gc.rowPlanes {
				gc.rowPlanes[ri] = cw.planeFor(it.layer, lw.ActGroupOf(f0+ri), planeCache)
			}
			r = finishGroup(cw.cfg, gc, gc.evalWindows(cw.cfg))
		}
		lwk.groups[it.group] = r
		if lwk.remaining.Add(-1) == 0 {
			lwk.result = mergeLayer(cw.cfg, lw, lwk.groups)
			layerLatency.Observe(time.Duration(time.Now().UnixNano() - lwk.start.Load()))
			if onLayer != nil {
				onLayer(cw.idx, it.layer, lwk.result)
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
func mergeLayer(cfg arch.Config, lw *nn.Lowered, groups []groupResult) LayerResult {
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
	for g := range groups {
		gr := &groups[g]
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

// groupCtx is the window-independent state of one filter group, built by
// prepareGroupInto and read by evalWindows and finishGroup on the same
// worker. Its grids view the worker's groupScratch, flattened by (column,
// row): cr = ci*nrows + ri.
type groupCtx struct {
	nrows, cols  int
	windows      int  // the layer's window count; evalWindows walks them all
	needsWindows bool // serial back-ends walk windows; bit-parallel is done at prepare
	// laneOffs[cr*lanes : (cr+1)*lanes] is (column, row) cr's lane list:
	// each lane's cost row as a byte offset into its row's plane, slot ×
	// windows, where the slot (step*lanes + lane) is the promoted weight's
	// dense position for an effectual lane and the column head's for an
	// idle one. The effectual lanes come first, nEff[cr] of them. Gated
	// configs sync the column on those alone; ungated ones sync every lane.
	laneOffs []int
	nEff     []int32
	// maxOff is the largest offset in laneOffs. The walk reads 32 bytes
	// from offset + block start, and block starts stay below span, so
	// every read stays inside a plane whose length is at least
	// maxOff + span.
	maxOff int
	// span is the windows rounded up to whole 32-window blocks.
	span int
	// rowPlanes[ri] is PE row ri's activation cost plane (rows of one act
	// group share a plane; row-invariant layers share one across all
	// rows). Resolved by the engine between prepare and the window walk.
	rowPlanes []*costPlane
	// winSums holds each PE row's column max per window summed over up to
	// winFlushCols columns, in 16-bit fields: span/4 words a row, and per
	// 8 windows two words, the even windows' sums and the odd windows'.
	// Zeroed at prepare, summed and flushed by evalWindows.
	winSums []uint64
	// wideMax holds, for a PE wider than laneChunk lanes, the current
	// (column, row)'s peMax per 8 windows, taken with its first lane chunk
	// and read by the others: span/8 words, nil for narrower PEs.
	wideMax []uint64
	// peTotals[ri*WindowsPerTile+pc] is PE (row ri, column pc)'s cycle
	// total over the group's windows: window w runs on PE column w mod
	// WindowsPerTile in every (column, row), so evalWindows adds winSums
	// to it once per winFlushCols columns instead of once per column.
	// finishGroup reads it.
	peTotals []int64
	gate     bool
	avx2     bool        // fold with foldAVX2; hasAVX2 unless a test picks a fold
	base     groupResult // window-independent accumulations (full result when !needsWindows)
}

// windowPartial is the window walk's lane census and serial-cycle count
// over a group's windows; its PE totals go to the context's peTotals.
type windowPartial struct {
	backEnd Breakdown
	serial  int64
}

// groupMemo is one (config, layer)'s tables in the lowering's memo
// (nn.Lowered.Memo): its groups' schedule-cache keys, for front-end
// configs, and their front-end censuses.
type groupMemo struct {
	keys   *sched.MemoTable[sched.GroupKey]
	census *sched.MemoTable[sched.GroupCensus]
}

// memoFor finds cfg's tables in lw's memo; keyer is cfg's and is read
// only when cfg has a front end. Configs that group and schedule alike
// share tables, so TCLp and TCLe at one pattern key and census each group
// once between them.
func memoFor(cfg arch.Config, lw *nn.Lowered, keyer *sched.Keyer) groupMemo {
	m := lw.Memo()
	groups := (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
	if !cfg.HasFrontEnd() {
		return groupMemo{census: m.Census(cfg.FiltersPerTile, groups, nil)}
	}
	return groupMemo{
		keys:   m.Keys(cfg.FiltersPerTile, groups),
		census: m.Census(cfg.FiltersPerTile, groups, keyer),
	}
}

// groupRows is one filter group's rows, filters f0..f1-1 of lw (at lw's
// lanes and steps, under the layer's pad mask), read into sc's arena on
// first demand. The rows stay valid until sc's next group. The arena can
// hold them because schedules never retain their filters (sched.NewFilter
// wraps the row slice, and both the cache and the kernel copy entry data,
// not weights).
type groupRows struct {
	sc     *groupScratch
	lw     *nn.Lowered
	f0, f1 int
	read   bool
}

// filters returns the group's filters, reading lw on the first call only.
func (gr *groupRows) filters() []sched.Filter {
	if gr.read {
		return gr.sc.filters
	}
	gr.read = true
	sc, lw := gr.sc, gr.lw
	lanes, steps, pad := lw.Lanes, lw.Steps, lw.PadMask()
	sc.weights = grow(sc.weights, (gr.f1-gr.f0)*steps*lanes)
	sc.filters = grow(sc.filters, gr.f1-gr.f0)
	for i := range sc.filters {
		row := sc.weights[i*steps*lanes : (i+1)*steps*lanes]
		lw.FilterRowInto(gr.f0+i, row)
		sc.filters[i] = sched.NewFilter(lanes, steps, row, pad)
	}
	return sc.filters
}

// groupSchedules is the one place a lowered layer's filter group, group g
// of cfg's grouping, gets its schedules; the engine's prepare step and
// LayerSchedules share it. Front-end configs look the group up through
// keyer under its key from keys, which the group's first touch hashes
// from the rows and stores; configs without a front end get the dense
// schedule, built in the arena. So rows are read only to hash, to fill a
// cache miss, or to build dense schedules. Dense schedules stay valid
// until the arena's next group; front-end ones belong to the cache.
func groupSchedules(rows *groupRows, cfg arch.Config, g int, keyer *sched.Keyer, keys *sched.MemoTable[sched.GroupKey]) []*sched.Schedule {
	if !cfg.HasFrontEnd() {
		return denseSchedules(rows.sc, rows.filters())
	}
	key, ok := keys.Load(g)
	if !ok {
		key.H1, key.H2 = sched.HashFilters(rows.filters())
		keys.Store(g, key)
	}
	return keyer.ScheduleGroup(key.H1, key.H2, rows.filters)
}

// groupCensus sums the front-end census of a group's schedules against
// their filters.
func groupCensus(schedules []*sched.Schedule, filters []sched.Filter) sched.GroupCensus {
	var c sched.GroupCensus
	if len(schedules) > 0 {
		c.Cols = schedules[0].Len()
	}
	for i, s := range schedules {
		st := s.Stats(filters[i])
		c.Stats.Columns += st.Columns
		c.Stats.DenseSteps += st.DenseSteps
		for k := range st.Slots {
			c.Stats.Slots[k] += st.Slots[k]
		}
	}
	return c
}

// prepareGroupInto builds the context of lw's filter group g under cfg:
// the front-end census, datapath activity that depends only on column
// structure, and the per-column lane references the window walk consumes.
// The census comes from the lowering's memo, which the group's first
// preparation fills from its schedules (groupSchedules); after that only
// serial back-ends, whose window walk reads the columns, look schedules
// up. For the bit-parallel back-end the group's full result is computed
// here (its cost model is window-independent).
//
// Everything lives in the worker's scratch arena sc, and the returned
// context is sc's own: the filter rows and the context's grids carve from
// it, and both stay valid until the worker prepares its next group.
func prepareGroupInto(sc *groupScratch, cfg arch.Config, lw *nn.Lowered, g int, keyer *sched.Keyer, memo groupMemo) *groupCtx {
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	W := lw.WindowCount
	f0 := g * rows
	nrows := min(rows, lw.Filters-f0)
	ctx := &sc.ctx
	*ctx = groupCtx{nrows: nrows, windows: W, avx2: hasAVX2}
	r := &ctx.base

	gr := groupRows{sc: sc, lw: lw, f0: f0, f1: f0 + nrows}
	census, known := memo.census.Load(g)
	var schedules []*sched.Schedule
	if !known || cfg.Serial() {
		schedules = groupSchedules(&gr, cfg, g, keyer, memo.keys)
	}
	if !known {
		census = groupCensus(schedules, gr.filters())
		memo.census.Store(g, census)
	}
	cols := census.Cols
	ctx.cols = cols

	// The front-end census puts every effectual entry in exactly one of
	// unpromoted, lookahead and lookaside, so their sum also prices the mux
	// selects and bit-parallel MACs below without another walk.
	r.frontEnd = census.Stats
	effectual := r.frontEnd.Slots[sched.SlotUnpromoted] + r.frontEnd.Slots[sched.SlotLookahead] +
		r.frontEnd.Slots[sched.SlotLookaside]
	// Filter-count padding: PE rows beyond the layer's filters idle.
	r.frontEnd.Slots[sched.SlotPad] += int64(rows-nrows) * int64(cols) * int64(lanes)

	numWGroups := (W + wg - 1) / wg
	r.activity.WSColumnReads += int64(cols) * ceilDiv64(int64(numWGroups), int64(cfg.PsumRegsPerPE))
	if cfg.HasFrontEnd() {
		// One activation-mux switch per effectual entry per window.
		r.activity.MuxSelects += effectual * int64(W)
	}
	r.activity.PsumAccesses += int64(nrows) * int64(cols) * int64(W)

	if !cfg.Serial() {
		macs := effectual
		if !cfg.HasFrontEnd() {
			// The dense baseline multiplies every lane every cycle.
			macs = int64(nrows) * int64(lanes) * int64(cols)
		}
		r.activity.ParallelMACs += macs * int64(W)
		r.cycles = int64(cols) * int64(W)
		return ctx
	}
	ctx.needsWindows = true
	if cfg.Backend.OffsetEncoder() {
		r.activity.OffsetEncodes += int64(cols) * int64(lanes) * int64(W)
	}

	// Serial back-ends: column structure is window-independent; precompute
	// each (column, row)'s lane list once for the window walk. The lists,
	// their effectual counts and rowPlanes are rebuilt wholesale (reused
	// dirty); the +=-summed totals are zeroed here.
	ctx.gate = cfg.HasFrontEnd()
	ctx.span = blockWindows * ((W + blockWindows - 1) / blockWindows)
	sc.laneOffs = grow(sc.laneOffs, cols*nrows*lanes)
	ctx.laneOffs = sc.laneOffs
	sc.nEff = grow(sc.nEff, cols*nrows)
	ctx.nEff = sc.nEff
	sc.planes = grow(sc.planes, nrows)
	ctx.rowPlanes = sc.planes
	clear(ctx.rowPlanes)
	sc.winSums = grow(sc.winSums, nrows*ctx.span/4)
	ctx.winSums = sc.winSums
	clear(ctx.winSums)
	if lanes > laneChunk {
		sc.wideMax = grow(sc.wideMax, ctx.span/8)
		ctx.wideMax = sc.wideMax
	}
	sc.peTotals = grow(sc.peTotals, nrows*wg)
	ctx.peTotals = sc.peTotals
	clear(ctx.peTotals)
	// Each row's schedule is read in column order, and each list is
	// partitioned without a data-dependent branch: m is all ones for an
	// effectual lane and zero for an idle one, and selects the lane's slot
	// and its position (effectual lanes fill the list from the front, idle
	// ones from the back).
	maxSlot := 0
	for ri := 0; ri < nrows; ri++ {
		for ci, col := range schedules[ri].Columns[:cols] {
			cr := ci*nrows + ri
			offs := ctx.laneOffs[cr*lanes : (cr+1)*lanes]
			eff, idle := 0, lanes-1
			for ln, e := range col.Entries {
				m := -int(uint32(e.Weight|-e.Weight) >> 31)
				slot := col.Head*lanes + ln
				slot ^= (slot ^ int(e.Src)) & m
				offs[idle+(eff-idle)&m] = slot * W
				maxSlot = max(maxSlot, slot)
				eff -= m
				idle -= 1 + m
			}
			ctx.nEff[cr] = int32(eff)
		}
	}
	ctx.maxOff = maxSlot * W
	return ctx
}

// evalWindows walks the serial back-end over all of the group's windows
// and returns the lane census and serial cycles, its PE totals summed into
// ctx.peTotals.
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
// The walk is word-parallel over windows. Planes are window-minor, so a
// lane's costs for consecutive windows are consecutive bytes, and one
// uint64 holds a lane-word: one lane's costs for 8 windows. For each
// (column, row) the walk takes the windows a word at a time, words outside
// and lanes inside, and folds each word across the (column, row)'s lane
// list into, one byte per window,
//
//   - peMax, the column max over the syncing lanes, raised to at least 1;
//   - nzE and nzI, the number of nonzero costs over the effectual and the
//     idle lanes;
//
// and the word's cost sums over the effectual lanes (and the idle ones
// when no front end gates them). Two folds give these. The SWAR fold
// (foldSync, foldCount) folds one word per call. The AVX2 fold (foldAVX2)
// folds a 32-window block, four words, per pass: the walk runs it at each
// block's first word and reads the block's next three words from its
// results. One census tail serves both: byteSum gives a word's Σ peMax and
// dot its Σ peMax·nzE and Σ peMax·nzI. The Figure-9 lane census then
// follows from sums alone (E: effectual lanes, I: idle lanes, nEff and
// nIdle their counts, Σ over every (column, row, window)):
//
//	Useful     = Σ_E c
//	ColumnSync = Σ peMax·nzE − Σ_E c
//	AZero      = Σ nEff·peMax − Σ peMax·nzE
//	WZero      = Σ peMax·nzI
//	BothZero   = Σ nIdle·peMax − Σ peMax·nzI
//
// and the lane cycles add Σ_I c only when the config has no front-end to
// gate idle lanes. Every term is an exact integer sum, so the result is
// bit-identical to a per-lane walk that classifies each (lane, window)
// into one census bucket, whichever fold ran. A fold's counts and sums
// are exact for laneChunk lanes, so a wider PE folds its lane list a chunk
// at a time, chunks outside and words inside, and adds up the chunks' sums
// and dot products; since every dot product needs the column max, its
// first chunk also folds all of its syncing lanes for that max and keeps
// it, one word per 8 windows, in wideMax for the other chunks. Costs are
// loaded from PE row ri's cost plane, rowPlanes[ri], at the lane list's
// offsets; rows of one act group share a plane, so row-invariant,
// grouped, and depthwise layers all take this path.
//
// Each window's peMax is added to its row's winSums, 16-bit fields that
// hold winFlushCols columns; flushWindows adds them to the PE totals after
// every winFlushCols columns and after the last.
func (ctx *groupCtx) evalWindows(cfg arch.Config) windowPartial {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	W, span, avx2 := ctx.windows, ctx.span, ctx.avx2
	for _, p := range ctx.rowPlanes {
		// A block load reads plane bytes [off+at, off+at+32) for an offset
		// off <= maxOff and a block start at <= span-32.
		if ctx.maxOff+span > len(p.data) {
			panic(fmt.Sprintf("sim: lane offset %d + %d windows overrun a %d-byte cost plane", ctx.maxOff, span, len(p.data)))
		}
	}
	// The AVX2 fold masks a block by full, or the last block by last; the
	// SWAR fold masks the layer's last word by tail.
	full := blockMask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	var last blockMask
	lastWindows := W - (span - blockWindows)
	for k := range last {
		n := min(max(lastWindows-8*k, 0), 8)
		last[k] = ^uint64(0) >> (64 - 8*uint(n))
	}
	tail := last[(lastWindows-1)/8]
	var (
		costEff, costIdle int64 // Σ_E c, and Σ_I c without a front end
		maxSum, maxEff    int64 // Σ peMax, Σ nEff·peMax
		dotEff, dotIdle   int64 // Σ peMax·nzE, Σ peMax·nzI
		fs, fe, fi        blockFold
	)
	wide := lanes > laneChunk
	for ci := 0; ci < ctx.cols; ci++ {
		for ri := 0; ri < ctx.nrows; ri++ {
			cr := ci*ctx.nrows + ri
			list := ctx.laneOffs[cr*lanes : (cr+1)*lanes]
			nEff := int(ctx.nEff[cr])
			sync := list
			if ctx.gate {
				sync = list[:nEff]
			}
			plane := ctx.rowPlanes[ri].data
			sums := ctx.winSums[ri*span/4 : (ri+1)*span/4]
			var rowMax int64 // Σ peMax over this (column, row)
			for c0 := 0; c0 < lanes; c0 += laneChunk {
				c1 := min(c0+laneChunk, lanes)
				e := min(max(nEff, c0), c1) // the chunk's effectual lanes are [c0, e)
				eff, idle := list[c0:e], list[e:c1]
				syncMax := wide && c0 == 0 // this chunk takes the wide PE's column max
				for at := 0; at < W; at += 8 {
					valid := ^uint64(0)
					if at+8 > W {
						valid = tail
					}
					// The fold: word k of the AVX2 pass over this block, or
					// foldSync and foldCount over this word.
					var mE, nzE, mI, nzI, mS uint64
					if avx2 {
						k := at >> 3 & 3
						if k == 0 {
							vb := &full
							if at+blockWindows > W {
								vb = &last
							}
							block := plane[at:]
							foldAVX2(block, eff, vb, &fe)
							foldAVX2(block, idle, vb, &fi)
							if syncMax {
								foldAVX2(block, sync, vb, &fs)
							}
							costEff += fe.sum
							if !ctx.gate {
								costIdle += fi.sum
							}
						}
						mE, nzE, mI, nzI, mS = fe.mx[k], fe.nz[k], fi.mx[k], fi.nz[k], fs.mx[k]
					} else {
						word := plane[at:]
						var sum uint64
						mE, nzE, sum = foldSync(word, eff, valid)
						costEff += fieldSum(sum)
						if ctx.gate {
							nzI = foldCount(word, idle, valid)
						} else {
							mI, nzI, sum = foldSync(word, idle, valid)
							costIdle += fieldSum(sum)
						}
						if syncMax {
							mS, _, _ = foldSync(word, sync, valid)
						}
					}
					// The census tail.
					var p uint64 // peMax
					if c0 == 0 {
						m := mE
						if !ctx.gate {
							m = byteMax(m, mI)
						}
						if wide {
							m = mS
						}
						p = atLeastOne(m) & valid
						if wide {
							ctx.wideMax[at/8] = p
						}
						rowMax += byteSum(p)
						sums[at/4] += p & swarEven
						sums[at/4+1] += p >> 8 & swarEven
					} else {
						p = ctx.wideMax[at/8]
					}
					dotEff += dot(p, nzE)
					dotIdle += dot(p, nzI)
				}
			}
			maxSum += rowMax
			maxEff += int64(nEff) * rowMax
		}
		if (ci+1)%winFlushCols == 0 || ci+1 == ctx.cols {
			ctx.flushWindows(wg)
		}
	}
	wp := windowPartial{serial: costEff}
	wp.backEnd.Useful = costEff
	wp.backEnd.ColumnSync = dotEff - costEff
	wp.backEnd.AZero = maxEff - dotEff
	wp.backEnd.WZero = dotIdle
	wp.backEnd.BothZero = int64(lanes)*maxSum - maxEff - dotIdle
	if !ctx.gate {
		wp.serial += costIdle
	}
	return wp
}

// winFlushCols is the most columns winSums holds: a 16-bit field adds
// one peMax <= maxLaneCost per column.
const winFlushCols = 0xffff / maxLaneCost

// flushWindows adds each row's winSums to its PE totals, window w to PE
// column w mod wg, and zeroes them. Window w's sum is field (w mod 8)/2
// of word 2(w/8) for an even w and of word 2(w/8)+1 for an odd one.
func (ctx *groupCtx) flushWindows(wg int) {
	W, span := ctx.windows, ctx.span
	for ri := 0; ri < ctx.nrows; ri++ {
		sums := ctx.winSums[ri*span/4 : ri*span/4+(W+7)/8*2]
		pe := ctx.peTotals[ri*wg : (ri+1)*wg]
		pc := 0
		for w := 0; w < W; w++ {
			pe[pc] += int64(sums[w>>3<<1|w&1] >> (w & 6 * 8) & 0xffff)
			if pc++; pc == wg {
				pc = 0
			}
		}
		clear(sums)
	}
}

// finishGroup completes a serial group's result shard from its window
// walk: group cycles are the slowest PE's total, and the PEs that finish
// earlier charge the difference as tile sync.
func finishGroup(cfg arch.Config, ctx *groupCtx, wp windowPartial) groupResult {
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	r := ctx.base
	r.backEnd.Add(wp.backEnd)
	// Filter-group duration: the slowest PE of the tile.
	var groupCycles int64
	for _, t := range ctx.peTotals {
		if t > groupCycles {
			groupCycles = t
		}
	}
	// Tile-sync deficit for the PEs that carried work. PE columns with no
	// windows of their own are either serving reduction slices (the W < wg
	// split path — their lane time is already accounted on the owning
	// column) or idled by a partial final window group; neither is a sync
	// loss, so the census skips them. Absent rows burn the whole duration.
	for _, t := range ctx.peTotals {
		if t > 0 {
			r.backEnd.TileSync += (groupCycles - t) * int64(lanes)
		}
	}
	r.backEnd.WZero += int64(rows-ctx.nrows) * int64(wg) * int64(lanes) * groupCycles
	r.activity.SerialLaneCycles += wp.serial
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
