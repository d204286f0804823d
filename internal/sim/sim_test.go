package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// testConv builds a small conv layer with pruned weights and mixed-sign
// activations, lowered at 16 lanes.
func testConv(t *testing.T, seed int64, k, c, r, s, in int, wSparsity, aZero float64) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "conv", Kind: nn.Conv, K: k, C: c, R: r, S: s, Stride: 1, Pad: 1, InH: in, InW: in}
	l.Weights = tensor.New(k, c, r, s)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, wSparsity)
	act := tensor.New(1, c, in, in)
	m := sparsity.ActModel{ZeroFrac: aZero, MeanLog2: 6, SigmaLog2: 2, NegFrac: 0.2}
	m.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func testFC(t *testing.T, seed int64, k, c, steps int, wSparsity float64) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "fc", Kind: nn.FC, K: k, C: c, R: 1, S: 1, Timesteps: steps}
	l.Weights = tensor.New(k, c, 1, 1)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, wSparsity)
	w := 1
	if steps > 1 {
		w = steps
	}
	act := tensor.New(1, c, 1, w)
	m := sparsity.ActModel{ZeroFrac: 0.3, MeanLog2: 6, SigmaLog2: 2}
	m.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func testDW(t *testing.T, seed int64, c, in int) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "dw", Kind: nn.Depthwise, K: c, C: c, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
	l.Weights = tensor.New(c, 1, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.3)
	act := tensor.New(1, c, in, in)
	m := sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2}
	m.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// simLayer runs one layer through SimulateLayerContext, failing the test
// on error.
func simLayer(t *testing.T, cfg arch.Config, lw *nn.Lowered, opts Options) LayerResult {
	t.Helper()
	r, err := SimulateLayerContext(context.Background(), cfg, lw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// simModel runs every layer of a model under one config through
// SimulateSweepContext, failing the test on error.
func simModel(t *testing.T, cfg arch.Config, m *nn.Model, acts []*tensor.T, opts Options) *Result {
	t.Helper()
	rs, err := SimulateSweepContext(context.Background(), []arch.Config{cfg}, m, acts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// fresh returns engine options with private, empty schedule and plane
// caches, so a run computes every schedule and plane itself.
func fresh(par int) Options {
	return Options{Parallelism: par, Cache: sched.NewCache(0), PlaneCache: NewPlaneCache(0)}
}

func allConfigs() []arch.Config {
	return []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
		arch.TCLe(sched.L(1, 6)),
		arch.TCLe(sched.Pattern{}), // Pragmatic-like
		arch.TCLp(sched.Pattern{}), // Dynamic-Stripes-like
	}
}

func TestGoldenConvAllConfigs(t *testing.T) {
	lw := testConv(t, 1, 20, 24, 3, 3, 6, 0.6, 0.4)
	for _, cfg := range allConfigs() {
		if err := ExecuteGolden(cfg, lw); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestGoldenFCAllConfigs(t *testing.T) {
	lw := testFC(t, 2, 20, 40, 18, 0.7)
	for _, cfg := range allConfigs() {
		if err := ExecuteGolden(cfg, lw); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestGoldenDepthwise(t *testing.T) {
	lw := testDW(t, 3, 20, 5)
	for _, cfg := range allConfigs() {
		if err := ExecuteGolden(cfg, lw); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestGoldenSingleWindowFC(t *testing.T) {
	lw := testFC(t, 4, 33, 64, 1, 0.5)
	for _, cfg := range allConfigs() {
		if err := ExecuteGolden(cfg, lw); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestDenseBaselineMatchesReference(t *testing.T) {
	// Simulating DaDianNao++ must yield exactly the DenseCycles reference.
	for _, lw := range []*nn.Lowered{
		testConv(t, 5, 20, 24, 3, 3, 6, 0.6, 0.4),
		testFC(t, 6, 20, 40, 18, 0.7),
		testDW(t, 7, 20, 5),
	} {
		r := simLayer(t, arch.DaDianNaoPP(), lw, Options{})
		if r.Cycles != r.DenseCycles {
			t.Errorf("%s: baseline cycles %d != dense reference %d", lw.Name, r.Cycles, r.DenseCycles)
		}
		if r.Speedup() != 1.0 {
			t.Errorf("%s: baseline speedup %f != 1", lw.Name, r.Speedup())
		}
	}
}

func TestFrontEndSpeedupTracksSparsity(t *testing.T) {
	// Front-end-only speedup must grow with weight sparsity and never fall
	// below 1 (the schedule is never longer than dense).
	cfg := arch.FrontEndOnly(sched.T(2, 5))
	prev := 0.0
	for _, sp := range []float64{0.0, 0.5, 0.8} {
		lw := testConv(t, 8, 16, 32, 3, 3, 6, sp, 0.4)
		r := simLayer(t, cfg, lw, Options{})
		got := r.Speedup()
		if got < 1.0 {
			t.Errorf("sparsity %.1f: front-end speedup %.3f < 1", sp, got)
		}
		if got < prev {
			t.Errorf("sparsity %.1f: speedup %.3f dropped below %.3f", sp, got, prev)
		}
		prev = got
	}
}

func TestBackEndsBeatBitParallelOnLowPrecision(t *testing.T) {
	// With small-magnitude activations, TCLp and TCLe must beat the
	// front-end-only configuration, and TCLe must beat TCLp (oneffsets ≤
	// precision bits).
	lw := testConv(t, 9, 32, 32, 3, 3, 8, 0.6, 0.4)
	fe := simLayer(t, arch.FrontEndOnly(sched.T(2, 5)), lw, Options{}).Speedup()
	p := simLayer(t, arch.TCLp(sched.T(2, 5)), lw, Options{}).Speedup()
	e := simLayer(t, arch.TCLe(sched.T(2, 5)), lw, Options{}).Speedup()
	if p <= fe {
		t.Errorf("TCLp %.2f should beat front-end-only %.2f", p, fe)
	}
	if e <= p {
		t.Errorf("TCLe %.2f should beat TCLp %.2f", e, p)
	}
}

func TestFrontEndBackEndNearMultiplicative(t *testing.T) {
	// Section 1: "the benefits of the front- and back-end are nearly
	// multiplicative". Allow generous tolerance for sync losses.
	lw := testConv(t, 10, 32, 32, 3, 3, 8, 0.7, 0.4)
	fe := simLayer(t, arch.FrontEndOnly(sched.T(2, 5)), lw, Options{}).Speedup()
	be := simLayer(t, arch.TCLe(sched.Pattern{}), lw, Options{}).Speedup()
	both := simLayer(t, arch.TCLe(sched.T(2, 5)), lw, Options{}).Speedup()
	if both < 0.5*fe*be {
		t.Errorf("combined %.2f far below product %.2f × %.2f", both, fe, be)
	}
	if both > 1.3*fe*be {
		t.Errorf("combined %.2f implausibly above product %.2f × %.2f", both, fe, be)
	}
}

func TestBreakdownConservation(t *testing.T) {
	// The lane-time census must exactly cover rows×lanes×Σ(column duration)
	// summed over every window (W chosen as a multiple of the 16 columns).
	lw := testConv(t, 11, 20, 24, 3, 3, 7, 0.6, 0.4) // 7x7 in, pad 1 -> 7x7 out? stride1 pad1 k3: out 7 -> 49 windows
	cfg := arch.TCLe(sched.T(2, 5))
	r := simLayer(t, cfg, lw, Options{})
	if r.BackEnd.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
	if r.BackEnd.Useful == 0 {
		t.Error("no useful work recorded")
	}
	// All categories non-negative.
	for name, v := range map[string]int64{
		"useful": r.BackEnd.Useful, "colsync": r.BackEnd.ColumnSync,
		"tilesync": r.BackEnd.TileSync, "azero": r.BackEnd.AZero,
		"wzero": r.BackEnd.WZero, "bothzero": r.BackEnd.BothZero,
	} {
		if v < 0 {
			t.Errorf("%s negative: %d", name, v)
		}
	}
}

func TestBreakdownExactCoverage(t *testing.T) {
	// With a single filter group and W == wg, the census total equals
	// rows × lanes × wg × group cycles.
	lw := testConv(t, 12, 16, 24, 3, 3, 4, 0.5, 0.4) // out 4x4 = 16 windows
	if lw.WindowCount != 16 {
		t.Fatalf("want 16 windows, got %d", lw.WindowCount)
	}
	cfg := arch.TCLe(sched.T(2, 5))
	r := simLayer(t, cfg, lw, Options{})
	want := int64(cfg.FiltersPerTile) * int64(cfg.Lanes) * int64(cfg.WindowsPerTile) * r.Cycles
	if got := r.BackEnd.Total(); got != want {
		t.Errorf("census total %d != rows×lanes×wg×cycles %d", got, want)
	}
}

func TestFrontEndCensusConservation(t *testing.T) {
	lw := testConv(t, 13, 20, 20, 3, 3, 6, 0.6, 0.4)
	cfg := arch.FrontEndOnly(sched.T(2, 5))
	r := simLayer(t, cfg, lw, Options{})
	var slots int64
	for _, v := range r.FrontEnd.Slots {
		slots += v
	}
	// Each column contributes rows(16) × lanes(16) slots (idle rows counted
	// as padding). Columns in the census are summed per filter.
	groups := (lw.Filters + 15) / 16
	perGroupCols := r.FrontEnd.Columns / lw.Filters // equal per filter within a group
	_ = groups
	if slots%int64(cfg.Lanes) != 0 {
		t.Errorf("census %d not a multiple of lane count", slots)
	}
	if perGroupCols == 0 {
		t.Error("no columns recorded")
	}
	// Effectual slots must equal the layer's non-zero weights.
	eff := r.FrontEnd.Slots[sched.SlotUnpromoted] + r.FrontEnd.Slots[sched.SlotLookahead] + r.FrontEnd.Slots[sched.SlotLookaside]
	if eff != int64(lw.Layer().Weights.NNZ()) {
		t.Errorf("effectual slots %d != nnz weights %d", eff, lw.Layer().Weights.NNZ())
	}
}

func TestPragmaticLikeIgnoresWeightSparsity(t *testing.T) {
	// Without a front-end, weight sparsity must not change cycles (the
	// value-agnostic schedule runs every column; only activations matter).
	rng := rand.New(rand.NewSource(14))
	mk := func(ws float64) *nn.Lowered {
		l := &nn.Layer{Name: "c", Kind: nn.Conv, K: 16, C: 16, R: 3, S: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
		l.Weights = tensor.New(16, 16, 3, 3)
		sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, ws)
		act := tensor.New(1, 16, 8, 8)
		act.Fill(255) // uniform cost
		lw, _ := nn.Lower(l, act, 16)
		return lw
	}
	cfg := arch.TCLe(sched.Pattern{})
	a := simLayer(t, cfg, mk(0.0), Options{}).Cycles
	b := simLayer(t, cfg, mk(0.9), Options{}).Cycles
	if a != b {
		t.Errorf("no-front-end cycles vary with weight sparsity: %d vs %d", a, b)
	}
}

func TestTCLpCostIsGroupPrecision(t *testing.T) {
	// Uniform activations of value 255 need 8 bits: TCLp cycles per column
	// must be exactly 8× the bit-parallel count.
	rng := rand.New(rand.NewSource(15))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: 16, C: 16, R: 1, S: 1, Stride: 1, Pad: 0, InH: 16, InW: 16}
	l.Weights = tensor.New(16, 16, 1, 1)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0)
	act := tensor.New(1, 16, 16, 16)
	act.Fill(255)
	lw, _ := nn.Lower(l, act, 16)
	r := simLayer(t, arch.TCLp(sched.Pattern{}), lw, Options{})
	// Dense: 1 column/window-group; 16 window groups ⇒ dense serial cycles
	// = 16 groups × 8 bits.
	if r.Cycles != 16*8 {
		t.Errorf("TCLp cycles = %d, want 128", r.Cycles)
	}
}

func TestReductionSplitFC(t *testing.T) {
	// A single-window FC on a 16-column tile splits the reduction: cycles
	// must be well below the serial single-column execution.
	lw := testFC(t, 16, 16, 512, 1, 0.0)
	cfg := arch.TCLp(sched.Pattern{})
	r := simLayer(t, cfg, lw, Options{})
	// Single-column serial would cost ~32 columns × ~cost; split by 16.
	if r.Cycles >= r.DenseCycles*4 {
		t.Errorf("FC reduction split ineffective: %d cycles vs dense %d", r.Cycles, r.DenseCycles)
	}
}

func TestSimulateModelAggregates(t *testing.T) {
	cfg := nn.DefaultZoo()
	cfg.ChannelScale, cfg.SpatialScale = 0.1, 0.2
	m, err := nn.BuildModel("AlexNet-ES", cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(1)
	res := simModel(t, arch.TCLe(sched.T(2, 5)), m, acts, Options{})
	if len(res.Layers) != len(m.Layers) {
		t.Fatalf("simulated %d of %d layers", len(res.Layers), len(m.Layers))
	}
	if res.Speedup() < 1.5 {
		t.Errorf("TCLe on sparse AlexNet-ES speedup %.2f implausibly low", res.Speedup())
	}
	if res.TotalCycles() <= 0 || res.TotalDenseCycles() <= res.TotalCycles() {
		t.Error("cycle totals inconsistent")
	}
}

func TestSimulateModelRejectsInvalidConfig(t *testing.T) {
	m, _ := nn.BuildModel("MobileNet", nn.DefaultZoo())
	acts := m.GenerateActs(1)
	bad := arch.DaDianNaoPP()
	bad.Tiles = 0
	if _, err := SimulateSweepContext(context.Background(), []arch.Config{bad}, m, acts, Options{}); err == nil {
		t.Error("accepted invalid config")
	}
}

// TestEntryPointsRejectWidePE requires every engine entry point to return
// the lane bound's error for a TCLe config one lane wider than maxLanes,
// rather than panic or walk a PE its kernels cannot count exactly; and a
// config of exactly maxLanes lanes to run.
func TestEntryPointsRejectWidePE(t *testing.T) {
	wide := arch.TCLe(sched.T(2, 5))
	wide.Lanes = maxLanes + 1
	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	m, err := nn.BuildModel("MobileNet", zoo)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(1)
	lw := windowLayer(t, nn.FC, 1, wide.Lanes, 5, 0.4)
	ctx := context.Background()
	cfgs := []arch.Config{wide}
	want := fmt.Sprintf("has %d lanes; the engine simulates PEs of at most %d", wide.Lanes, maxLanes)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"SimulateLayerContext", func() error {
			_, err := SimulateLayerContext(ctx, wide, lw, Options{})
			return err
		}},
		{"SimulateSweepContext", func() error {
			_, err := SimulateSweepContext(ctx, cfgs, m, acts, Options{})
			return err
		}},
		{"SimulateLoweredSweepContext", func() error {
			_, err := SimulateLoweredSweepContext(ctx, cfgs, [][]*nn.Lowered{{lw}}, Options{})
			return err
		}},
		{"SimulateGridContext", func() error {
			_, err := SimulateGridContext(ctx, cfgs, m, acts, []int{0}, Options{})
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, want)
		}
	}
	at := wide
	at.Lanes = maxLanes
	if _, err := SimulateLayerContext(ctx, at, windowLayer(t, nn.FC, 1, maxLanes, 5, 0.4), Options{}); err != nil {
		t.Errorf("%d lanes: %v", maxLanes, err)
	}
}

// cost is costU8 widened to int, for the table checks below.
func (ct *costTable) cost(v int32) int { return int(ct.costU8(v)) }

func TestCostTableValues(t *testing.T) {
	e := newCostTable(backend.MustLookup("TCLe"), fixed.W16)
	if e.cost(0x008F) != 3 {
		t.Errorf("TCLe cost(0x8F) = %d, want 3", e.cost(0x008F))
	}
	if e.cost(0) != 0 {
		t.Error("TCLe cost(0) != 0")
	}
	if e.cost(-1) != 1 {
		t.Errorf("TCLe cost(-1) = %d, want 1", e.cost(-1))
	}
	p := newCostTable(backend.MustLookup("TCLp"), fixed.W16)
	if p.cost(0x008E) != 7 {
		t.Errorf("TCLp cost(0x8E) = %d, want 7", p.cost(0x008E))
	}
	bp := newCostTable(backend.MustLookup("bit-parallel"), fixed.W16)
	if bp.cost(12345) != 1 || bp.cost(0) != 1 {
		t.Error("bit-parallel cost must be 1 for all values")
	}
	e8 := newCostTable(backend.MustLookup("TCLe"), fixed.W8)
	if e8.cost(127) != 2 { // 127 = +128-1
		t.Errorf("8b TCLe cost(127) = %d, want 2", e8.cost(127))
	}
}

// badCostBackend is a TCLe back-end whose Cost returns cost for code 5.
type badCostBackend struct {
	backend.Backend
	cost int
}

func (b badCostBackend) Name() string { return fmt.Sprintf("bad-cost%d", b.cost) }

func (b badCostBackend) Cost(v int32, w fixed.Width) int {
	if v == 5 {
		return b.cost
	}
	return b.Backend.Cost(v, w)
}

// TestCostTableRejectsOutOfRangeCost pins the cost-table guard: a cost
// outside [0, maxLaneCost] would set bit 7 of its packed byte and corrupt
// the neighbouring windows of the word-parallel walk, so newCostTable
// panics, naming the back-end, width, code and cost. Every registered
// back-end stays inside the range at both widths.
func TestCostTableRejectsOutOfRangeCost(t *testing.T) {
	for _, cost := range []int{-1, maxLaneCost + 1} {
		be := badCostBackend{Backend: backend.MustLookup("TCLe"), cost: cost}
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{be.Name(), "code 5 ", "width 8 ", fmt.Sprintf("as %d cycles", cost)} {
					if !strings.Contains(msg, want) {
						t.Errorf("cost %d: panic %q does not name %q", cost, msg, want)
					}
				}
			}()
			newCostTable(be, fixed.W8)
		}()
	}
	for _, name := range backend.Names() {
		for _, w := range []fixed.Width{fixed.W8, fixed.W16} {
			newCostTable(backend.MustLookup(name), w)
		}
	}
}

func TestActivityCounts(t *testing.T) {
	lw := testConv(t, 17, 16, 16, 3, 3, 6, 0.5, 0.4)
	r := simLayer(t, arch.TCLe(sched.T(2, 5)), lw, Options{})
	a := r.Activity
	if a.SerialLaneCycles <= 0 || a.WSColumnReads <= 0 || a.ActReads <= 0 ||
		a.MuxSelects <= 0 || a.PsumAccesses <= 0 || a.OffsetEncodes <= 0 {
		t.Errorf("activity has empty counters: %+v", a)
	}
	b := simLayer(t, arch.DaDianNaoPP(), lw, Options{}).Activity
	if b.ParallelMACs <= 0 {
		t.Error("baseline records no MACs")
	}
	if b.MuxSelects != 0 || b.OffsetEncodes != 0 {
		t.Error("baseline must not record TCL-only events")
	}
}

func TestGoldenGroupedConv(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := &nn.Layer{Name: "g", Kind: nn.Conv, K: 8, C: 32, R: 3, S: 3, Stride: 1,
		Pad: 1, InH: 5, InW: 5, Groups: 2}
	l.Weights = tensor.New(8, 16, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	act := tensor.New(1, 32, 5, 5)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range allConfigs() {
		if err := ExecuteGolden(cfg, lw); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestResultAggregation(t *testing.T) {
	m, err := nn.BuildModel("AlexNet-ES", func() nn.ZooConfig {
		z := nn.DefaultZoo()
		z.ChannelScale, z.SpatialScale = 0.1, 0.25
		return z
	}())
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(1)
	res := simModel(t, arch.TCLe(sched.T(2, 5)), m, acts, Options{})
	fe := res.FrontEnd()
	if fe.Columns <= 0 || fe.DenseSteps <= 0 {
		t.Error("aggregated front-end census empty")
	}
	act := res.Activity()
	if act.SerialLaneCycles <= 0 || act.WSColumnReads <= 0 {
		t.Error("aggregated activity empty")
	}
	be := res.BackEnd()
	if be.Total() <= 0 {
		t.Error("aggregated back-end census empty")
	}
	var sum int64
	for _, l := range res.Layers {
		sum += l.Cycles
	}
	if sum != res.TotalCycles() {
		t.Error("TotalCycles disagrees with layer sum")
	}
}

func TestLayerResultSpeedupZeroCycles(t *testing.T) {
	if (LayerResult{Cycles: 0, DenseCycles: 5}).Speedup() != 1 {
		t.Error("zero-cycle layer speedup must be neutral")
	}
	if (&Result{}).Speedup() != 1 {
		t.Error("empty result speedup must be neutral")
	}
}

// TestSimulateLayerRejectsBadGeometry pins the single-layer entry's
// validation: a config whose lane count differs from the lowering's, one
// with no filters per tile, one with no partial-sum registers, and one
// whose pattern has more offsets than the scheduler supports are errors —
// not a construction-bug panic or an integer divide by zero inside the
// engine.
func TestSimulateLayerRejectsBadGeometry(t *testing.T) {
	lw := testConv(t, 40, 4, 16, 1, 1, 4, 0, 0)
	lanes := arch.DaDianNaoPP()
	lanes.Lanes = 8
	zero := arch.TCLe(sched.T(2, 5))
	zero.FiltersPerTile = 0
	psum := arch.TCLe(sched.T(2, 5))
	psum.PsumRegsPerPE = 0
	for _, tc := range []struct {
		cfg  arch.Config
		want string
	}{
		{lanes, "lowered at 16"},
		{zero, "non-positive geometry"},
		{psum, "non-positive geometry"},
		{arch.TCLe(sched.L(65, 0)), "exceed the bound of 64"},
	} {
		_, err := SimulateLayerContext(context.Background(), tc.cfg, lw, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.cfg.Name, err, tc.want)
		}
	}
}
