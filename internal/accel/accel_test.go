package accel

import (
	"context"
	"math/rand"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

func mkConv(t *testing.T, seed int64, k, c, in int, wSp, aZero float64) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: k, C: c, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
	l.Weights = tensor.New(k, c, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, wSp)
	act := tensor.New(1, c, in, in)
	sparsity.ActModel{ZeroFrac: aZero, MeanLog2: 5, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func TestSCNNGainsFromBothSparsities(t *testing.T) {
	dense := mkConv(t, 1, 32, 32, 16, 0, 0)
	sparse := mkConv(t, 2, 32, 32, 16, 0.7, 0.5)
	sd := SCNN(dense).Speedup()
	ss := SCNN(sparse).Speedup()
	if ss <= sd {
		t.Errorf("SCNN on sparse layer (%.2f) must beat dense layer (%.2f)", ss, sd)
	}
	if ss < 2.0 {
		t.Errorf("SCNN on 70%%W/50%%A layer speedup %.2f implausibly low", ss)
	}
}

func TestSCNNSmallMapImbalance(t *testing.T) {
	// Section 6.4: 7×7-class feature maps map poorly onto SCNN's 8×8 PEs;
	// per-MAC efficiency must drop versus a large map at equal sparsity.
	big := mkConv(t, 3, 32, 32, 32, 0.6, 0.4)
	small := mkConv(t, 4, 32, 32, 7, 0.6, 0.4)
	sb, ssm := SCNN(big).Speedup(), SCNN(small).Speedup()
	if ssm >= sb {
		t.Errorf("small map speedup %.2f should trail large map %.2f", ssm, sb)
	}
}

func TestSCNNFCPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &nn.Layer{Name: "fc", Kind: nn.FC, K: 256, C: 256, R: 1, S: 1}
	l.Weights = tensor.New(256, 256, 1, 1)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	act := tensor.New(1, 256, 1, 1)
	sparsity.ActModel{ZeroFrac: 0.3, MeanLog2: 5, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	lw, _ := nn.Lower(l, act, 16)
	got := SCNN(lw)
	// W+A potential here ≈ 1/(0.5×0.7) ≈ 2.9, but the 4× FC bandwidth
	// penalty must cap the realized speedup well below it.
	if got.Speedup() > 1.5 {
		t.Errorf("SCNN FC speedup %.2f should be throttled by the 1/4 peak BW", got.Speedup())
	}
}

func TestSCNNpBeatsSCNNOnLargeFirstLayer(t *testing.T) {
	// Section 6.4: SCNNp wins on first-layer-sized maps (large x/y).
	big := mkConv(t, 6, 16, 16, 64, 0.4, 0.35)
	s, sp := SCNN(big).Speedup(), SCNNp(big, fixed.W16).Speedup()
	if sp <= s {
		t.Errorf("SCNNp (%.2f) should beat SCNN (%.2f) on a 64×64 map", sp, s)
	}
}

func TestSCNNpDegradesOnSmallMaps(t *testing.T) {
	small := mkConv(t, 7, 32, 32, 8, 0.5, 0.4)
	s, sp := SCNN(small).Speedup(), SCNNp(small, fixed.W16).Speedup()
	if sp >= s*1.6 {
		t.Errorf("SCNNp (%.2f) should lose most of its edge on an 8×8 map (SCNN %.2f)", sp, s)
	}
}

func TestCambriconXTracksWeightSparsity(t *testing.T) {
	for _, wsp := range []float64{0.0, 0.5, 0.8} {
		lw := mkConv(t, 8, 64, 32, 12, wsp, 0.4)
		got := CambriconX(lw).Speedup()
		ideal := 1.0 / (1.0 - wsp)
		if got > ideal+1e-9 {
			t.Errorf("Cambricon-X speedup %.2f exceeds ideal %.2f at sparsity %.1f", got, ideal, wsp)
		}
		if got < 0.5*ideal {
			t.Errorf("Cambricon-X speedup %.2f below half of ideal %.2f", got, ideal)
		}
	}
}

func TestCambriconXIgnoresActivations(t *testing.T) {
	a := mkConv(t, 9, 32, 32, 12, 0.6, 0.0)
	b := mkConv(t, 9, 32, 32, 12, 0.6, 0.0)
	// Rewrite b's activations to all-dense large values; cycles must match.
	b.Input().Fill(12345)
	ca, cb := CambriconX(a).Cycles, CambriconX(b).Cycles
	if ca != cb {
		t.Errorf("Cambricon-X cycles vary with activations: %d vs %d", ca, cb)
	}
}

func TestCnvlutinTracksActivationSparsity(t *testing.T) {
	low := mkConv(t, 10, 32, 32, 12, 0.6, 0.1)
	high := mkConv(t, 11, 32, 32, 12, 0.6, 0.6)
	sl, sh := Cnvlutin(low).Speedup(), Cnvlutin(high).Speedup()
	if sh <= sl {
		t.Errorf("Cnvlutin speedup %.2f at 60%%A should beat %.2f at 10%%A", sh, sl)
	}
	if sl < 1.0 {
		t.Errorf("Cnvlutin speedup %.2f below 1", sl)
	}
}

func TestCnvlutinIgnoresWeights(t *testing.T) {
	a := mkConv(t, 12, 32, 32, 12, 0.0, 0.4)
	cyc := Cnvlutin(a).Cycles
	for i := range a.Layer().Weights.Data {
		if i%3 == 0 {
			a.Layer().Weights.Data[i] = 0
		}
	}
	if got := Cnvlutin(a).Cycles; got != cyc {
		t.Errorf("Cnvlutin cycles vary with weights: %d vs %d", got, cyc)
	}
}

func TestDenseCyclesNormalization(t *testing.T) {
	lw := mkConv(t, 13, 70, 32, 12, 0.5, 0.4)
	// 70 filters -> 5 groups of 16 -> 2 rounds of 4 tiles.
	want := int64(2) * int64(lw.Steps) * int64(lw.WindowCount)
	if got := denseCycles(lw); got != want {
		t.Errorf("denseCycles = %d, want %d", got, want)
	}
}

// TestDenseCyclesMatchEngine requires every baseline here to normalize to
// the engine's dense reference: for every conv layer of a zoo model, the
// DenseCycles of SCNN, Cambricon-X and Cnvlutin equal the DenseCycles a
// DaDianNao++ simulation of the layer reports.
func TestDenseCyclesMatchEngine(t *testing.T) {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.1, 0.25
	m, err := nn.BuildModel("AlexNet-ES", z)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.DaDianNaoPP()
	lws, err := m.Lowered(cfg.Lanes, m.GenerateActs(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateLoweredSweepContext(context.Background(), []arch.Config{cfg}, [][]*nn.Lowered{lws}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for i, lw := range lws {
		if lw.Kind != nn.Conv {
			continue
		}
		convs++
		want := res[0][i].DenseCycles
		for _, r := range []LayerCycles{SCNN(lw), CambriconX(lw), Cnvlutin(lw)} {
			if r.DenseCycles != want {
				t.Errorf("%s layer %s: DenseCycles %d, engine's DaDianNao++ %d", r.Name, lw.Name, r.DenseCycles, want)
			}
		}
	}
	if convs == 0 {
		t.Fatal("model has no conv layers")
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	l := LayerCycles{Cycles: 0, DenseCycles: 100}
	if l.Speedup() != 1 {
		t.Error("zero-cycle layer should report neutral speedup")
	}
}
