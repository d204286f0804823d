package dataflow

import (
	"math/rand"
	"strings"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

func mkLayer(t *testing.T, k, c, in, windows int) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: k, C: c, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
	l.Weights = tensor.New(k, c, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	act := tensor.New(1, c, in, in)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 8, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = windows
	return lw
}

func TestEnumerateCoversSpace(t *testing.T) {
	cfg := arch.TCLe(sched.T(2, 5))
	lw := mkLayer(t, 32, 32, 16, 0)
	cands := Enumerate(cfg, lw, DefaultCosts())
	if len(cands) != 2*cfg.PsumRegsPerPE {
		t.Fatalf("got %d candidates, want %d", len(cands), 2*cfg.PsumRegsPerPE)
	}
	for _, c := range cands {
		if c.EnergyPJ <= 0 || c.WSColumnReads <= 0 || c.ASValueReads <= 0 {
			t.Errorf("degenerate candidate %+v", c)
		}
	}
}

func TestOptimizeIsMinimum(t *testing.T) {
	cfg := arch.TCLe(sched.T(2, 5))
	lw := mkLayer(t, 64, 32, 16, 0)
	k := DefaultCosts()
	best := Optimize(cfg, lw, k)
	for _, c := range Enumerate(cfg, lw, k) {
		if c.EnergyPJ < best.EnergyPJ {
			t.Fatalf("Optimize missed a cheaper blocking: %v < %v", c, best)
		}
	}
}

func TestMorePsumRegsNeverHurt(t *testing.T) {
	// Deeper psum blocking strictly reduces weight re-reads, so the optimum
	// with 4 registers is at least as cheap as with 1.
	lw := mkLayer(t, 64, 32, 16, 0)
	k := DefaultCosts()
	cfg1 := arch.TCLe(sched.T(2, 5))
	cfg1.PsumRegsPerPE = 1
	cfg4 := arch.TCLe(sched.T(2, 5))
	cfg4.PsumRegsPerPE = 4
	if Optimize(cfg4, lw, k).EnergyPJ > Optimize(cfg1, lw, k).EnergyPJ {
		t.Error("4 psum registers costed more than 1")
	}
}

func TestManyFiltersFavorActStationary(t *testing.T) {
	// With many filter groups, re-streaming activations per group dominates:
	// the optimizer must pick act-stationary.
	cfg := arch.TCLe(sched.T(2, 5))
	lw := mkLayer(t, 512, 32, 16, 0) // 32 filter groups
	best := Optimize(cfg, lw, DefaultCosts())
	if best.Order != ActStationary {
		t.Errorf("512-filter layer chose %v", best.Order)
	}
}

func TestSingleGroupIndifferent(t *testing.T) {
	// One filter group: the two orders price identically at equal psum
	// blocking; the optimizer must still return a minimal choice.
	cfg := arch.TCLe(sched.T(2, 5))
	lw := mkLayer(t, 16, 32, 16, 0)
	k := DefaultCosts()
	best := Optimize(cfg, lw, k)
	for _, c := range Enumerate(cfg, lw, k) {
		if c.PsumBlock == best.PsumBlock && c.EnergyPJ != best.EnergyPJ {
			t.Errorf("orders disagree at equal blocking for one group: %v vs %v", c, best)
		}
	}
	if best.PsumBlock != cfg.PsumRegsPerPE {
		t.Errorf("single group should still use full psum blocking, got %d", best.PsumBlock)
	}
}

func TestPlanAggregates(t *testing.T) {
	cfg := arch.TCLe(sched.T(2, 5))
	lws := []*nn.Lowered{mkLayer(t, 32, 32, 16, 0), mkLayer(t, 64, 32, 8, 0)}
	choices, total := Plan(cfg, lws, DefaultCosts())
	if len(choices) != 2 {
		t.Fatalf("got %d choices", len(choices))
	}
	if total != choices[0].EnergyPJ+choices[1].EnergyPJ {
		t.Error("Plan total disagrees with per-layer sum")
	}
}

func TestStrings(t *testing.T) {
	if WeightStationary.String() != "weight-stationary" || ActStationary.String() != "act-stationary" {
		t.Error("Order labels wrong")
	}
	if !strings.Contains((Choice{Order: ActStationary, PsumBlock: 2}).String(), "psum block 2") {
		t.Error("Choice.String missing blocking")
	}
}
