package dstripes_test

import (
	"context"
	"math/rand"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/backend/dstripes"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// mkLowered builds a pruned conv layer with realistic activations.
func mkLowered(t *testing.T, seed int64) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: 6, C: 20, R: 3, S: 3, Stride: 1, Pad: 1, InH: 6, InW: 6}
	l.Weights = tensor.New(6, 20, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.6)
	act := tensor.New(1, 20, 6, 6)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 8, SigmaLog2: 2, NegFrac: 0.2, SigBits: 5}.
		FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// TestEndToEndThroughEngine is the seam proof: a config carrying the plugin
// back-end — which internal/sim, internal/arch's constructors, and the
// golden model have never heard of by name — runs the full engine and the
// value-exact golden model with zero edits to any engine package.
func TestEndToEndThroughEngine(t *testing.T) {
	lw := mkLowered(t, 41)
	cfg := arch.NewTCLBackend(sched.T(2, 5), backend.MustLookup(dstripes.Name))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("no cycles accounted: %+v", r)
	}
	if r.Speedup() <= 0 {
		t.Fatalf("speedup = %v", r.Speedup())
	}
	if r.Activity.SerialLaneCycles <= 0 {
		t.Fatal("serial back-end recorded no serial lane cycles")
	}
	if r.Activity.OffsetEncodes != 0 {
		t.Fatal("sign-magnitude streaming has no offset encoder")
	}
	if err := sim.ExecuteGolden(cfg, lw); err != nil {
		t.Fatalf("golden model: %v", err)
	}
}

// TestCostOrderingVsTCLp pins the modeled trade-off on the same data: the
// sign-magnitude stream walks from bit 0, so a layer can never be faster
// under dstripes-sm than under TCLp's trimmed window minus its sign step
// overhead — per value, Cost_sm >= Bits - 1 and Cost_sm >= Hi+1.
func TestCostOrderingVsTCLp(t *testing.T) {
	sm := backend.MustLookup(dstripes.Name)
	tclp := backend.MustLookup("TCLp")
	for _, w := range []fixed.Width{fixed.W16, fixed.W8} {
		for v := w.MinInt(); v <= w.MaxInt(); v += 3 {
			c, p := sm.Cost(v, w), tclp.Cost(v, w)
			if c < p-1 {
				t.Fatalf("Cost(%d, %s): dstripes-sm %d < TCLp %d - 1", v, w, c, p)
			}
		}
	}
}

// TestEngineAtBothWidths runs the plugin at W8 as well, exercising the
// width-indexed cost table and the serial window provisioning.
func TestEngineAtBothWidths(t *testing.T) {
	lw := mkLowered(t, 43)
	base := arch.NewTCLBackend(sched.T(2, 5), backend.MustLookup(dstripes.Name))
	for _, cfg := range []arch.Config{base, base.WithWidth(fixed.W8)} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles <= 0 {
			t.Fatalf("%s: no cycles", cfg.Name)
		}
	}
	if w8 := base.WithWidth(fixed.W8); w8.WindowsPerTile != 8 {
		t.Fatalf("W8 plugin tile has %d windows, want 8", w8.WindowsPerTile)
	}
}
