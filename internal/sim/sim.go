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
// worker. Its slices view the worker's groupScratch.
type groupCtx struct {
	nrows, cols  int
	windows      int  // the layer's window count; evalWindows walks them all
	needsWindows bool // serial back-ends walk windows; bit-parallel is done at prepare
	// schedules[ri] is PE row ri's schedule; the walk reads (column ci,
	// row ri)'s lanes from schedules[ri].Columns[ci]. A lane's cost row in
	// its row's plane is its slot (step*lanes + lane): the promoted
	// weight's dense position (Src) for an effectual lane, the column
	// head's for an idle one. Gated configs sync the column on the effectual lanes alone;
	// ungated ones sync every lane.
	schedules []*sched.Schedule
	// slots is the layer's Steps × Lanes: every slot a lane reads lies
	// below it, and a plane holds slots × windows cost bytes.
	slots int
	// list is the column kernel's lane list, one (column, row)'s at a
	// time: Lanes plane offsets, effectual lanes first.
	list []int
	// span is the windows rounded up to whole 32-window blocks.
	span int
	// rowPlanes[ri] is PE row ri's activation cost plane (rows of one act
	// group share a plane; row-invariant layers share one across all
	// rows). Resolved by the engine between prepare and the window walk.
	rowPlanes []*costPlane
	// winSums holds the walked PE row's column max per window summed over
	// up to winFlushCols columns, in 16-bit fields: span/4 words, and per
	// 8 windows two words, the even windows' sums and the odd windows'.
	// Zeroed at prepare, summed by the walk and zeroed by each flush.
	winSums []uint64
	// peTotals[ri*WindowsPerTile+pc] is PE (row ri, column pc)'s cycle
	// total over the group's windows: window w runs on PE column w mod
	// WindowsPerTile in every (column, row), so the walk adds winSums to
	// it once per winFlushCols columns instead of once per column.
	// finishGroup reads it.
	peTotals []int64
	gate     bool
	avx2     bool        // walk with columnAVX2, else columnSWAR; hasAVX2 unless a test picks a kernel
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
// structure, and, for serial back-ends, the schedules the window walk
// reads its lanes from.
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

	// Serial back-ends: the walk reads each (column, row)'s lanes from the
	// schedules. The row planes are filled in by the engine; the
	// +=-summed totals are zeroed here.
	ctx.gate = cfg.HasFrontEnd()
	ctx.schedules = schedules
	ctx.slots = lw.Steps * lanes
	ctx.span = blockWindows * ((W + blockWindows - 1) / blockWindows)
	sc.list = grow(sc.list, lanes)
	ctx.list = sc.list
	sc.planes = grow(sc.planes, nrows)
	ctx.rowPlanes = sc.planes
	clear(ctx.rowPlanes)
	sc.winSums = grow(sc.winSums, ctx.span/4)
	ctx.winSums = sc.winSums
	clear(ctx.winSums)
	sc.peTotals = grow(sc.peTotals, nrows*wg)
	ctx.peTotals = sc.peTotals
	clear(ctx.peTotals)
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
// The walk goes row by row, the row's columns in order, one column kernel
// call per (row, column): columnAVX2 when ctx.avx2 holds, columnSWAR
// otherwise (kernel.go), both direct calls so the walk's buffers stay off
// the heap. Planes are window-minor, so a lane's costs for consecutive
// windows are consecutive bytes and a kernel folds many windows per load.
// A call lists the column's lanes as plane offsets, effectual lanes
// first, and folds the row's windows across that list into, one byte per
// window,
//
//   - peMax, the column max over the syncing lanes, raised to at least 1;
//   - nzE and nzI, the number of nonzero costs over the effectual and the
//     idle lanes;
//
// and returns the cost sums over the effectual lanes (and the idle ones
// when no front end gates them), Σ peMax, Σ peMax·nzE and Σ peMax·nzI.
// The Figure-9 lane census then follows from sums alone (E: effectual
// lanes, I: idle lanes, nEff and nIdle their counts, Σ over every
// (column, row, window)):
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
// into one census bucket, whichever kernel ran. Costs are loaded from PE
// row ri's cost plane, rowPlanes[ri]; rows of one act group share a
// plane, so row-invariant, grouped, and depthwise layers all take this
// path.
//
// Each window's peMax is added to winSums, 16-bit fields that hold
// winFlushCols columns; flushWindows adds them to the row's PE totals
// after every winFlushCols columns and after the row's last.
func (ctx *groupCtx) evalWindows(cfg arch.Config) windowPartial {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	W, span := ctx.windows, ctx.span
	for _, p := range ctx.rowPlanes {
		// A block load reads plane bytes [off+at, off+at+32) for an offset
		// off <= (slots-1)*W and a block start at <= span-32.
		if (ctx.slots-1)*W+span > len(p.data) {
			panic(fmt.Sprintf("sim: %d slots of %d windows overrun a %d-byte cost plane", ctx.slots, W, len(p.data)))
		}
	}
	// The row's last block is masked by last.
	var last blockMask
	lastWindows := W - (span - blockWindows)
	for k := range last {
		n := min(max(lastWindows-8*k, 0), 8)
		last[k] = ^uint64(0) >> (64 - 8*uint(n))
	}
	// The census sums stay in a struct of six words, which the compiler
	// keeps in memory: each call's results are added in place, where six
	// locals were moved between registers and the stack around every call
	// (up to 5% more time per lane-word in BenchmarkEvalWindows' avx2 rows).
	var s struct {
		costEff, costIdle int64 // Σ_E c, and Σ_I c without a front end
		maxSum, maxEff    int64 // Σ peMax, Σ nEff·peMax
		dotEff, dotIdle   int64 // Σ peMax·nzE, Σ peMax·nzI
	}
	for ri := 0; ri < ctx.nrows; ri++ {
		plane := ctx.rowPlanes[ri].data
		for ci, col := range ctx.schedules[ri].Columns[:ctx.cols] {
			var costE, costI, rowMax, dotE, dotI int64
			var nEff int
			if ctx.avx2 {
				costE, costI, rowMax, dotE, dotI, nEff = columnAVX2(col.Entries[:lanes], col.Head*lanes, ctx.slots, W,
					plane, ctx.winSums, &last, ctx.list, ctx.gate)
			} else {
				costE, costI, rowMax, dotE, dotI, nEff = columnSWAR(col.Entries[:lanes], col.Head*lanes, ctx.slots, W,
					plane, ctx.winSums, &last, ctx.list, ctx.gate)
			}
			if nEff < 0 {
				ctx.slotOutside(ci, ri, lanes)
			}
			s.costEff += costE
			s.costIdle += costI
			s.maxSum += rowMax
			s.maxEff += int64(nEff) * rowMax
			s.dotEff += dotE
			s.dotIdle += dotI
			if (ci+1)%winFlushCols == 0 || ci+1 == ctx.cols {
				ctx.flushWindows(ri, wg)
			}
		}
	}
	wp := windowPartial{serial: s.costEff}
	wp.backEnd.Useful = s.costEff
	wp.backEnd.ColumnSync = s.dotEff - s.costEff
	wp.backEnd.AZero = s.maxEff - s.dotEff
	wp.backEnd.WZero = s.dotIdle
	wp.backEnd.BothZero = int64(lanes)*s.maxSum - s.maxEff - s.dotIdle
	if !ctx.gate {
		wp.serial += s.costIdle
	}
	return wp
}

// slotOutside panics for the first lane of (column ci, row ri) whose slot
// is not below ctx.slots: the schedule names an activation the layer's
// cost plane does not hold.
func (ctx *groupCtx) slotOutside(ci, ri, lanes int) {
	col := &ctx.schedules[ri].Columns[ci]
	for ln, e := range col.Entries {
		slot := col.Head*lanes + ln
		if e.Weight != 0 {
			slot = int(e.Src)
		}
		if uint(slot) >= uint(ctx.slots) {
			panic(fmt.Sprintf("sim: column %d of PE row %d: lane %d reads slot %d outside the layer's %d", ci, ri, ln, slot, ctx.slots))
		}
	}
	panic(fmt.Sprintf("sim: column %d of PE row %d: no lane reads outside the layer's %d slots", ci, ri, ctx.slots))
}

// winFlushCols is the most columns winSums holds: a 16-bit field adds
// one peMax <= maxLaneCost per column.
const winFlushCols = 0xffff / maxLaneCost

// flushWindows adds winSums to row ri's PE totals, window w to PE column
// w mod wg, and zeroes them. Window w's sum is field (w mod 8)/2 of word
// 2(w/8) for an even w and of word 2(w/8)+1 for an odd one. When wg is a
// multiple of 8, the 8 windows of a word pair go to 8 consecutive PE
// columns starting at 8k mod wg; windows past the layer's last carry a
// zero sum, so the pair is added whole.
func (ctx *groupCtx) flushWindows(ri, wg int) {
	W := ctx.windows
	sums := ctx.winSums[:(W+7)/8*2]
	pe := ctx.peTotals[ri*wg : (ri+1)*wg]
	pc := 0
	if wg%8 == 0 {
		for k := 0; k < len(sums); k += 2 {
			e, o := sums[k], sums[k+1]
			p := pe[pc : pc+8 : pc+8]
			p[0] += int64(e & 0xffff)
			p[1] += int64(o & 0xffff)
			p[2] += int64(e >> 16 & 0xffff)
			p[3] += int64(o >> 16 & 0xffff)
			p[4] += int64(e >> 32 & 0xffff)
			p[5] += int64(o >> 32 & 0xffff)
			p[6] += int64(e >> 48)
			p[7] += int64(o >> 48)
			if pc += 8; pc == wg {
				pc = 0
			}
		}
	} else {
		for w := 0; w < W; w++ {
			pe[pc] += int64(sums[w>>3<<1|w&1] >> (w & 6 * 8) & 0xffff)
			if pc++; pc == wg {
				pc = 0
			}
		}
	}
	clear(sums)
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
