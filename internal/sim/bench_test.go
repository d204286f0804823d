package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// BenchmarkEvalWindows times the window walk alone on one prepared filter
// group: 16 FC filters of 256 inputs (16 columns of 16 lanes before
// skipping), about half the weights and 40% of the activations zero, at
// 1, 49, 128 and 3,136 windows, with a T8<2,5> front end gating idle lanes
// and without one, under each column kernel: swar (columnSWAR), and avx2
// (columnAVX2) where the CPU has it. ns/lane-word is the time per lane per
// 8-window word the walk covers: (columns × rows × lanes × ⌈windows/8⌉)
// per walk, the same count under both kernels. Both rows do the same work
// on every pass: each kernel call lists its (column, row)'s lanes, then
// folds the row.
func BenchmarkEvalWindows(b *testing.B) {
	for _, windows := range []int{1, 49, 128, 3136} {
		lw := benchFCLayer(b, windows)
		for _, gated := range []bool{true, false} {
			cfg := windowConfig(gated, false, false, 16, 16)
			name := "ungated"
			if gated {
				name = "gated"
			}
			for _, walk := range walks {
				b.Run(fmt.Sprintf("w%d/%s/%s", windows, name, walk.name), func(b *testing.B) {
					if !walk.ok {
						b.Skip("CPU has no AVX2")
					}
					ct := newCostTable(cfg.Backend, cfg.Width)
					keyer := sched.NewCache(0).Keyer(cfg.Pattern, cfg.Scheduler)
					ctx := prepareGroupInto(&groupScratch{}, cfg, lw, 0, &keyer, memoFor(cfg, lw, &keyer))
					ctx.avx2 = walk.avx2
					plane := buildPlane(lw, ct, 0)
					for ri := range ctx.rowPlanes {
						ctx.rowPlanes[ri] = plane
					}
					laneWords := ctx.cols * ctx.nrows * cfg.Lanes * ((windows + 7) / 8)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						clear(ctx.peTotals)
						benchPartial = ctx.evalWindows(cfg)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(laneWords), "ns/lane-word")
				})
			}
		}
	}
}

// benchPartial keeps the benchmarked walk's result live.
var benchPartial windowPartial

// benchFCLayer is BenchmarkEvalWindows's fixed layer at the given window
// (timestep) count, lowered at 16 lanes.
func benchFCLayer(tb testing.TB, windows int) *nn.Lowered {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(windows)))
	l := &nn.Layer{Name: "fc", Kind: nn.FC, K: 16, C: 256, R: 1, S: 1, Timesteps: windows}
	l.Weights = tensor.New(16, 256, 1, 1)
	act := tensor.New(1, 256, 1, windows)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 3, NegFrac: 0.2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		tb.Fatal(err)
	}
	return lw
}
