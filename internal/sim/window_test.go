package sim

import (
	"fmt"
	"math/rand"
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
// (column, row, window) at a time, fetches every lane's cost straight
// through Act and the cost table (so it does not depend on the plane
// layout), takes the column max with columnMaxScalar, and classifies each
// lane into one census bucket with a four-way switch. It walks the window
// range [wLo, wHi) — whole window groups — and returns the census and
// serial cycles over it with the per-(row, PE column) cycle totals.
func evalWindowsScalar(ctx *groupCtx, cfg arch.Config, lw *nn.Lowered, ct *costTable, f0, wLo, wHi int) (wp windowPartial, peTotals []int64) {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	mw := laneWords(lanes)
	peTotals = make([]int64, ctx.nrows*wg)
	laneCost := make([]uint8, lanes)
	all := fullLaneMask(lanes)
	for w0 := wLo; w0 < wHi; w0 += wg {
		w1 := min(w0+wg, wHi)
		for ci := 0; ci < ctx.cols; ci++ {
			for ri := 0; ri < ctx.nrows; ri++ {
				cr := ci*ctx.nrows + ri
				refs := ctx.refs[cr*lanes : (cr+1)*lanes]
				eff := ctx.masks[cr*mw : (cr+1)*mw]
				sync := eff
				if !ctx.gate {
					sync = all
				}
				for win := w0; win < w1; win++ {
					for ln, ref := range refs {
						laneCost[ln] = ct.costU8(lw.Act(f0+ri, win, int(ref)/lanes, int(ref)%lanes))
					}
					peMax := columnMaxScalar(laneCost, sync)
					peTotals[ri*wg+win-w0] += int64(peMax)
					for ln := range refs {
						effectual := eff[ln>>3]>>(8*uint(ln&7))&0xff != 0
						c := int(laneCost[ln])
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
// participating lanes): the cycles a PE spends on one schedule column. mask
// holds 0xFF bytes for participating lanes and 0x00 elsewhere. The floor of
// 1 models the column issue slot.
func columnMaxScalar(cost []uint8, mask []uint64) int {
	peMax := 1
	for ln := 0; ln < len(cost); ln++ {
		if mask[ln>>3]>>(8*uint(ln&7))&0xff != 0 && int(cost[ln]) > peMax {
			peMax = int(cost[ln])
		}
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

// checkWindowsMatchScalar prepares every filter group of lw under cfg and
// requires evalWindows to reproduce evalWindowsScalar: PE totals, every
// census field and the serial lane cycles. The reference walks the group's
// window groups in `slices` contiguous runs and sums them, so the single
// word-parallel pass is also held to run boundaries that need not fall on
// its 64-window blocks. One scratch arena serves every group, as on a
// pool worker.
func checkWindowsMatchScalar(tb testing.TB, cfg arch.Config, lw *nn.Lowered, slices int) {
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

// TestEvalWindowsMatchesScalar pins the word-parallel walk to the scalar
// reference across lane counts (including ones not divisible by 8),
// window-group widths below, at and above one 64-window block, window
// counts that are a multiple of neither 8 nor the group width, gated and
// ungated configs, both serial back-ends and both widths. The subtests'
// chunks label is how many runs the reference sums (1-4).
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
						checkWindowsMatchScalar(t, cfg, lw, chunks)
					})
				}
			}
		}
	}
	// Past 64 windows a group spans several blocks; past 255 nonzero lanes
	// a window's count spills out of its byte.
	for _, gated := range []bool{true, false} {
		lw := windowLayer(t, nn.FC, 7, 16, 150, 0.4)
		checkWindowsMatchScalar(t, windowConfig(gated, false, false, 16, 72), lw, 2)
		checkWindowsMatchScalar(t, windowConfig(gated, true, true, 16, 8), lw, 3)
		wide := windowLayer(t, nn.FC, 8, 260, 21, 0)
		checkWindowsMatchScalar(t, windowConfig(gated, false, false, 260, 16), wide, 1)
	}
}

// FuzzEvalWindowsMatchesScalar drives the differential check over random
// FC layers: lane count, window count, window-group width, gating,
// back-end and width all come from the fuzzer.
func FuzzEvalWindowsMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(13), true, false, false)
	f.Add(int64(2), uint8(12), uint8(72), uint8(90), false, true, false)
	f.Add(int64(3), uint8(8), uint8(4), uint8(29), true, true, true)
	f.Fuzz(func(t *testing.T, seed int64, lanes, wg, windows uint8, gated, tclp, w8 bool) {
		nLanes := int(lanes)%40 + 1
		cfg := windowConfig(gated, tclp, w8, nLanes, int(wg)%80+1)
		lw := windowLayer(t, nn.FC, seed, nLanes, int(windows)%130+1, 0.4)
		checkWindowsMatchScalar(t, cfg, lw, 1)
	})
}
