package sim

import (
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// TestEstimateLayerCostMatchesDenseCycles pins the cost estimate to the
// engine: for every layer of a real zoo model, under both a dense and a
// serial configuration, EstimateLayerCost must equal the DenseCycles the
// simulator reports — the estimate IS the merge arithmetic, computed
// without running anything.
func TestEstimateLayerCostMatchesDenseCycles(t *testing.T) {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.1, 0.25
	m, err := nn.BuildModel("AlexNet-ES", z)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(7)
	for _, cfg := range []arch.Config{
		arch.DaDianNaoPP(),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
	} {
		res := simModel(t, cfg, m, acts, Options{Parallelism: 2})
		for i, l := range m.Layers {
			est, err := EstimateLayerCost(cfg, l)
			if err != nil {
				t.Fatalf("%s layer %d: %v", cfg.Name, i, err)
			}
			if got := res.Layers[i].DenseCycles; est != got {
				t.Errorf("%s layer %s: estimate %d != simulated dense cycles %d",
					cfg.Name, l.Name, est, got)
			}
		}
	}
}

// TestEstimateSweepLayerCosts: the sweep aggregate is the per-config sum,
// and conv1-class layers dominate the prediction — the skew the shard
// partitioner exists to balance.
func TestEstimateSweepLayerCosts(t *testing.T) {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.1, 0.25
	m, err := nn.BuildModel("AlexNet-ES", z)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []arch.Config{arch.DaDianNaoPP(), arch.NewTCL(sched.T(2, 5), arch.TCLe)}
	costs, err := EstimateSweepLayerCosts(cfgs, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(m.Layers) {
		t.Fatalf("%d costs for %d layers", len(costs), len(m.Layers))
	}
	for i, l := range m.Layers {
		var want int64
		for _, cfg := range cfgs {
			c, err := EstimateLayerCost(cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			want += c
		}
		if costs[i] != want {
			t.Errorf("layer %d: sweep cost %d != per-config sum %d", i, costs[i], want)
		}
		if costs[i] <= 0 {
			t.Errorf("layer %d: non-positive predicted cost %d", i, costs[i])
		}
	}
	// The early convolution must out-cost the mean by a wide margin —
	// uniform partitioning of such a model is exactly the imbalance the
	// LPT partitioner corrects.
	var sum int64
	for _, c := range costs {
		sum += c
	}
	mean := sum / int64(len(costs))
	var max int64
	for _, c := range costs {
		if c > max {
			max = c
		}
	}
	if max < 2*mean {
		t.Errorf("expected a dominant layer: max %d < 2x mean %d", max, mean)
	}
}
