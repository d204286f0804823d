package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// evalWindowsScalar is the per-lane window walk the engine ran before the
// word-parallel one, kept as its executable specification. It visits one
// (column, row, window) at a time. It derives each lane's slot from the
// (column, row)'s schedule column itself, not from a kernel's lane list:
// Src for a nonzero weight, Head×Lanes+lane otherwise; the lane is
// effectual when its weight is nonzero. It fetches every lane's cost
// straight through Act and the cost table (so it does not depend on the
// plane layout), takes the column max with columnMaxScalar over the lanes
// ordered effectual first, and classifies each lane into one census
// bucket with a four-way switch. It walks the window range [wLo, wHi) —
// whole window groups — and returns the census and serial cycles over it
// with the per-(row, PE column) cycle totals.
func evalWindowsScalar(ctx *groupCtx, cfg arch.Config, lw *nn.Lowered, ct *costTable, f0, wLo, wHi int) (wp windowPartial, peTotals []int64) {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	peTotals = make([]int64, ctx.nrows*wg)
	laneCost := make([]uint8, lanes)
	slots := make([]int, lanes)
	for w0 := wLo; w0 < wHi; w0 += wg {
		w1 := min(w0+wg, wHi)
		for ci := 0; ci < ctx.cols; ci++ {
			for ri := 0; ri < ctx.nrows; ri++ {
				// The lanes' slots, effectual lanes first.
				col := ctx.schedules[ri].Columns[ci]
				nEff := 0
				for _, e := range col.Entries {
					if e.Weight != 0 {
						slots[nEff] = int(e.Src)
						nEff++
					}
				}
				i := nEff
				for ln, e := range col.Entries {
					if e.Weight == 0 {
						slots[i] = col.Head*lanes + ln
						i++
					}
				}
				nSync := lanes
				if ctx.gate {
					nSync = nEff
				}
				for win := w0; win < w1; win++ {
					for i, slot := range slots {
						laneCost[i] = ct.costU8(lw.Act(f0+ri, win, slot/lanes, slot%lanes))
					}
					peMax := columnMaxScalar(laneCost, nSync)
					peTotals[ri*wg+win-w0] += int64(peMax)
					for i := range slots {
						effectual := i < nEff
						c := int(laneCost[i])
						switch {
						case effectual && c > 0:
							wp.backEnd.Useful += int64(c)
							wp.backEnd.ColumnSync += int64(peMax - c)
							wp.serial += int64(c)
						case effectual:
							wp.backEnd.AZero += int64(peMax)
						case c > 0:
							wp.backEnd.WZero += int64(peMax)
							if !ctx.gate {
								wp.serial += int64(c)
							}
						default:
							wp.backEnd.BothZero += int64(peMax)
						}
					}
				}
			}
		}
	}
	return wp, peTotals
}

// columnMaxScalar is the reference column max, max(1, max cost over
// participating lanes): the cycles a PE spends on one schedule column. The
// first nSync costs are the participating lanes'. The floor of 1 models
// the column issue slot.
func columnMaxScalar(cost []uint8, nSync int) int {
	peMax := 1
	for _, c := range cost[:nSync] {
		peMax = max(peMax, int(c))
	}
	return peMax
}

// windowLayer builds a small random layer lowered at the given lane count:
// conv (windows = in*in), fc (windows = in timesteps) or depthwise (one act
// group per filter, windows = in*in), with a fraction aZero of zero
// activations. Channel counts straddle the lane count so lowering pads the
// last channel group.
func windowLayer(tb testing.TB, kind nn.Kind, seed int64, lanes, in int, aZero float64) *nn.Lowered {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := lanes + lanes/2 + 1
	var l *nn.Layer
	var act *tensor.T
	switch kind {
	case nn.Conv:
		l = &nn.Layer{Name: "conv", Kind: nn.Conv, K: 20, C: c, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
		l.Weights = tensor.New(20, c, 3, 3)
		act = tensor.New(1, c, in, in)
	case nn.FC:
		l = &nn.Layer{Name: "fc", Kind: nn.FC, K: 20, C: c, R: 1, S: 1, Timesteps: in}
		l.Weights = tensor.New(20, c, 1, 1)
		act = tensor.New(1, c, 1, in)
	case nn.Depthwise:
		l = &nn.Layer{Name: "dw", Kind: nn.Depthwise, K: 20, C: 20, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
		l.Weights = tensor.New(20, 1, 3, 3)
		act = tensor.New(1, 20, in, in)
	}
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.3+0.4*rng.Float64())
	sparsity.ActModel{ZeroFrac: aZero, MeanLog2: 6, SigmaLog2: 3, NegFrac: 0.2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, lanes)
	if err != nil {
		tb.Fatal(err)
	}
	return lw
}

// denseFCLayer is an FC layer of 20 filters over one step of `lanes`
// inputs with no zero weight and no zero activation, lowered at `lanes`
// lanes.
func denseFCLayer(tb testing.TB, lanes, windows int) *nn.Lowered {
	tb.Helper()
	l := &nn.Layer{Name: "dense-fc", Kind: nn.FC, K: 20, C: lanes, R: 1, S: 1, Timesteps: windows}
	l.Weights = tensor.New(20, lanes, 1, 1)
	for i := range l.Weights.Data {
		l.Weights.Data[i] = int32(1 + i%251)
	}
	act := tensor.New(1, lanes, 1, windows)
	sparsity.ActModel{MeanLog2: 6, SigmaLog2: 3, NegFrac: 0.2}.FillTensor(rand.New(rand.NewSource(1)), act, fixed.W16)
	lw, err := nn.Lower(l, act, lanes)
	if err != nil {
		tb.Fatal(err)
	}
	return lw
}

// checkWindowsMatchScalar prepares every filter group of lw under cfg and
// requires evalWindows, under columnAVX2 when avx2 is set and columnSWAR
// otherwise, to reproduce evalWindowsScalar: PE totals, every census field
// and the serial lane cycles. The reference walks the
// group's window groups in `slices` contiguous runs and sums them, so the
// single word-parallel pass is also held to run boundaries that need not
// fall on its blocks or words. One scratch arena serves every group, as on
// a pool worker.
func checkWindowsMatchScalar(tb testing.TB, cfg arch.Config, lw *nn.Lowered, slices int, avx2 bool) {
	tb.Helper()
	ct := newCostTable(cfg.Backend, cfg.Width)
	planes := make([]*costPlane, lw.ActGroups())
	for g := range planes {
		planes[g] = buildPlane(lw, ct, g)
	}
	keyer := sched.NewCache(0).Keyer(cfg.Pattern, cfg.Scheduler)
	sc := &groupScratch{}
	wg := cfg.WindowsPerTile
	windowGroups := (lw.WindowCount + wg - 1) / wg
	slices = min(slices, windowGroups)
	memo := memoFor(cfg, lw, &keyer)
	for f0 := 0; f0 < lw.Filters; f0 += cfg.FiltersPerTile {
		ctx := prepareGroupInto(sc, cfg, lw, f0/cfg.FiltersPerTile, &keyer, memo)
		ctx.avx2 = avx2
		for ri := range ctx.rowPlanes {
			ctx.rowPlanes[ri] = planes[lw.ActGroupOf(f0+ri)]
		}
		got := ctx.evalWindows(cfg)
		var want windowPartial
		wantPE := make([]int64, len(ctx.peTotals))
		for c := 0; c < slices; c++ {
			w0 := windowGroups * c / slices * wg
			w1 := min(windowGroups*(c+1)/slices*wg, lw.WindowCount)
			wp, pe := evalWindowsScalar(ctx, cfg, lw, ct, f0, w0, w1)
			want.backEnd.Add(wp.backEnd)
			want.serial += wp.serial
			for i, t := range pe {
				wantPE[i] += t
			}
		}
		if got != want {
			tb.Fatalf("%s group %d: census %+v serial %d, scalar %+v serial %d",
				cfg.Name, f0/cfg.FiltersPerTile, got.backEnd, got.serial, want.backEnd, want.serial)
		}
		for i := range wantPE {
			if ctx.peTotals[i] != wantPE[i] {
				tb.Fatalf("%s group %d: PE total %d = %d, scalar %d",
					cfg.Name, f0/cfg.FiltersPerTile, i, ctx.peTotals[i], wantPE[i])
			}
		}
	}
}

// walks are the window walk's two column kernels: swar (columnSWAR) runs
// on every host, avx2 (columnAVX2) only where the CPU has AVX2 (ok). Tests
// pick one per walk through groupCtx.avx2.
var walks = []struct {
	name     string
	avx2, ok bool
}{{"swar", false, true}, {"avx2", true, hasAVX2}}

// windowConfig is a serial config reshaped to the given geometry: gated
// (T<2,5> front-end) or not, TCLe or TCLp, at 16 or 8 bits.
func windowConfig(gated, tclp, w8 bool, lanes, wg int) arch.Config {
	p, tcl := sched.Pattern{}, arch.TCLe
	if gated {
		p = sched.T(2, 5)
	}
	if tclp {
		tcl = arch.TCLp
	}
	cfg := tcl(p)
	if w8 {
		cfg = cfg.WithWidth(fixed.W8)
	}
	cfg.Lanes, cfg.WindowsPerTile = lanes, wg
	return cfg
}

// eachWalk runs check once per kernel as a subtest, skipping the AVX2
// kernel where the CPU lacks it.
func eachWalk(t *testing.T, check func(t *testing.T, avx2 bool)) {
	t.Helper()
	for _, walk := range walks {
		t.Run(walk.name, func(t *testing.T) {
			if !walk.ok {
				t.Skip("CPU has no AVX2")
			}
			check(t, walk.avx2)
		})
	}
}

// TestEvalWindowsMatchesScalar pins the word-parallel walk, under each
// kernel, to the scalar reference across lane counts (including ones not
// divisible by 8), window-group widths below, at and above one 8-window
// word, window counts that are a multiple of neither 8 nor the group
// width, gated and ungated configs, both serial back-ends and both widths.
// The subtests' chunks label is how many runs the reference sums (1-4).
func TestEvalWindowsMatchesScalar(t *testing.T) {
	layers := []struct {
		kind nn.Kind
		in   int
	}{{nn.Conv, 5}, {nn.FC, 13}, {nn.Depthwise, 9}}
	k := 0
	for _, lanes := range []int{8, 12, 16, 32} {
		for li, ls := range layers {
			lw := windowLayer(t, ls.kind, int64(100*lanes+li), lanes, ls.in, 0.4)
			for _, wg := range []int{4, 8, 12, 16, 72} {
				// Cycle back-end, width and reference run count through all
				// 16 combinations across consecutive cases.
				k++
				tclp, w8, chunks := k%2 == 0, k/2%2 == 0, 1+k/4%4
				for _, gated := range []bool{true, false} {
					cfg := windowConfig(gated, tclp, w8, lanes, wg)
					t.Run(fmt.Sprintf("%s/lanes%d/wg%d/%s/chunks%d", lw.Name, lanes, wg, cfg.Name, chunks), func(t *testing.T) {
						eachWalk(t, func(t *testing.T, avx2 bool) { checkWindowsMatchScalar(t, cfg, lw, chunks, avx2) })
					})
				}
			}
		}
	}
	// Long rows of blocks; and the widest PE the engine simulates, a dense
	// layer in which every lane is effectual with a nonzero cost, so a
	// window's count reaches maxLanes (128): the edge of the AVX2 kernel's
	// unsigned operand and of the SWAR dot product's 16-bit fields.
	lw := windowLayer(t, nn.FC, 7, 16, 150, 0.4)
	dense128 := denseFCLayer(t, maxLanes, 45)
	for _, gated := range []bool{true, false} {
		t.Run(fmt.Sprintf("wide/gated=%v", gated), func(t *testing.T) {
			eachWalk(t, func(t *testing.T, avx2 bool) {
				checkWindowsMatchScalar(t, windowConfig(gated, false, false, 16, 72), lw, 2, avx2)
				checkWindowsMatchScalar(t, windowConfig(gated, true, true, 16, 8), lw, 3, avx2)
				checkWindowsMatchScalar(t, windowConfig(gated, false, false, maxLanes, 16), dense128, 1, avx2)
			})
		})
	}
}

// TestWindowSumsFlush runs a dense group of 4,500 columns whose
// activations all lie in [0x7000, 0x7fff], so a window's column maxima
// sum past 2^16 (the test checks that) and the walk's 16-bit window sums
// must flush to the PE totals mid-group (winFlushCols). A PE column per
// window (72 > 33 windows) makes each PE total one window's sum.
func TestWindowSumsFlush(t *testing.T) {
	const lanes, steps, windows = 4, 4500, 33
	l := &nn.Layer{Name: "long-fc", Kind: nn.FC, K: 2, C: lanes * steps, R: 1, S: 1, Timesteps: windows}
	l.Weights = tensor.New(2, lanes*steps, 1, 1)
	for i := range l.Weights.Data {
		l.Weights.Data[i] = 1
	}
	act := tensor.New(1, lanes*steps, 1, windows)
	for i := range act.Data {
		act.Data[i] = int32(0x7000 + i%0x0fff)
	}
	lw, err := nn.Lower(l, act, lanes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := windowConfig(false, true, false, lanes, 72)
	ct := newCostTable(cfg.Backend, cfg.Width)
	keyer := sched.NewCache(0).Keyer(cfg.Pattern, cfg.Scheduler)
	ctx := prepareGroupInto(&groupScratch{}, cfg, lw, 0, &keyer, memoFor(cfg, lw, &keyer))
	if ctx.cols <= winFlushCols {
		t.Fatalf("%d columns do not reach a flush every %d", ctx.cols, winFlushCols)
	}
	_, pe := evalWindowsScalar(ctx, cfg, lw, ct, 0, 0, windows)
	if m := slices.Max(pe); m <= 0xffff {
		t.Fatalf("largest window sum %d fits 16 bits", m)
	}
	eachWalk(t, func(t *testing.T, avx2 bool) { checkWindowsMatchScalar(t, cfg, lw, 1, avx2) })
}

// FuzzEvalWindowsMatchesScalar drives the differential check over random
// FC layers: lane count (1 to maxLanes, 128), window count (1-300),
// window-group width, gating, back-end and width all come from the
// fuzzer. Each input runs under columnSWAR, and under columnAVX2 where the
// CPU has it. The seeds hold gated and ungated configs from 1 to 128
// lanes.
func FuzzEvalWindowsMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint16(16), uint8(16), uint16(13), true, false, false)
	f.Add(int64(2), uint16(12), uint8(72), uint16(90), false, true, false)
	f.Add(int64(3), uint16(8), uint8(4), uint16(29), true, true, true)
	f.Add(int64(4), uint16(127), uint8(16), uint16(40), true, false, false)
	f.Add(int64(5), uint16(100), uint8(8), uint16(17), false, true, false)
	f.Add(int64(6), uint16(127), uint8(12), uint16(9), true, true, true)
	f.Add(int64(7), uint16(0), uint8(16), uint16(33), false, false, false)
	f.Add(int64(8), uint16(31), uint8(12), uint16(64), false, false, true)
	f.Add(int64(9), uint16(63), uint8(8), uint16(31), false, true, false)
	f.Add(int64(10), uint16(127), uint8(16), uint16(45), false, false, false)
	f.Fuzz(func(t *testing.T, seed int64, lanes uint16, wg uint8, windows uint16, gated, tclp, w8 bool) {
		nLanes := int(lanes)%maxLanes + 1
		cfg := windowConfig(gated, tclp, w8, nLanes, int(wg)%80+1)
		lw := windowLayer(t, nn.FC, seed, nLanes, int(windows)%300+1, 0.4)
		for _, walk := range walks {
			if walk.ok {
				checkWindowsMatchScalar(t, cfg, lw, 1, walk.avx2)
			}
		}
	})
}

// TestEvalWindowsAllocatesNothing holds the walk to zero allocations under
// each kernel, gated and ungated, at 16 lanes and at maxLanes: the mask
// lives on the walk's stack, and the lane list and sums in the arena.
func TestEvalWindowsAllocatesNothing(t *testing.T) {
	eachWalk(t, func(t *testing.T, avx2 bool) {
		for _, lanes := range []int{16, maxLanes} {
			lw := windowLayer(t, nn.FC, 3, lanes, 45, 0.4)
			for _, gated := range []bool{true, false} {
				cfg := windowConfig(gated, false, false, lanes, 16)
				ct := newCostTable(cfg.Backend, cfg.Width)
				keyer := sched.NewCache(0).Keyer(cfg.Pattern, cfg.Scheduler)
				ctx := prepareGroupInto(&groupScratch{}, cfg, lw, 0, &keyer, memoFor(cfg, lw, &keyer))
				ctx.avx2 = avx2
				plane := buildPlane(lw, ct, 0)
				for ri := range ctx.rowPlanes {
					ctx.rowPlanes[ri] = plane
				}
				if n := testing.AllocsPerRun(20, func() { ctx.evalWindows(cfg) }); n != 0 {
					t.Errorf("%d lanes, %s: the walk allocates %v times", lanes, cfg.Name, n)
				}
			}
		}
	})
}

// TestEvalWindowsSlotOutside corrupts the first column of a prepared
// group, one effectual lane's Src set to the layer's Steps × Lanes or to
// -1, and requires the walk under both kernels, gated and ungated, to
// panic naming the slot before it reads a plane byte: the window sums
// stay zero.
func TestEvalWindowsSlotOutside(t *testing.T) {
	lw := windowLayer(t, nn.FC, 11, 16, 45, 0.4)
	eachWalk(t, func(t *testing.T, avx2 bool) {
		for _, gated := range []bool{true, false} {
			cfg := windowConfig(gated, false, false, 16, 16)
			for _, bad := range []int32{int32(lw.Steps * lw.Lanes), -1} {
				keyer := sched.NewCache(0).Keyer(cfg.Pattern, cfg.Scheduler)
				ctx := prepareGroupInto(&groupScratch{}, cfg, lw, 0, &keyer, memoFor(cfg, lw, &keyer))
				ctx.avx2 = avx2
				plane := buildPlane(lw, newCostTable(cfg.Backend, cfg.Width), 0)
				for ri := range ctx.rowPlanes {
					ctx.rowPlanes[ri] = plane
				}
				entries := ctx.schedules[0].Columns[0].Entries
				ln := slices.IndexFunc(entries, func(e sched.Entry) bool { return e.Weight != 0 })
				if ln < 0 {
					t.Fatal("the first column has no effectual lane")
				}
				entries[ln].Src = bad
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					ctx.evalWindows(cfg)
					return ""
				}()
				want := fmt.Sprintf("reads slot %d outside the layer's %d", bad, lw.Steps*lw.Lanes)
				if !strings.Contains(msg, want) {
					t.Fatalf("%s, Src %d: walk panicked with %q, want %q", cfg.Name, bad, msg, want)
				}
				if i := slices.IndexFunc(ctx.winSums, func(s uint64) bool { return s != 0 }); i >= 0 {
					t.Fatalf("%s, Src %d: window sum word %d = %#x before the panic", cfg.Name, bad, i, ctx.winSums[i])
				}
			}
		}
	})
}
