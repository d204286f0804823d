package nn

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bittactical/internal/fixed"
	"bittactical/internal/tensor"
)

func TestLayerOutDims(t *testing.T) {
	l := &Layer{Name: "c", Kind: Conv, K: 8, C: 4, R: 3, S: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
	if h, w := l.OutDims(); h != 8 || w != 8 {
		t.Errorf("same-pad conv dims = %dx%d, want 8x8", h, w)
	}
	l2 := &Layer{Name: "p", Kind: MaxPool, C: 4, R: 3, S: 3, Stride: 2, InH: 13, InW: 13}
	if h, w := l2.OutDims(); h != 6 || w != 6 {
		t.Errorf("pool dims = %dx%d, want 6x6", h, w)
	}
}

func TestLayerCounts(t *testing.T) {
	l := &Layer{Name: "c", Kind: Conv, K: 8, C: 4, R: 3, S: 3, Stride: 1, Pad: 0, InH: 6, InW: 6}
	if l.Reduction() != 36 {
		t.Errorf("Reduction = %d, want 36", l.Reduction())
	}
	if l.Windows() != 16 {
		t.Errorf("Windows = %d, want 16", l.Windows())
	}
	if l.MACs() != 8*36*16 {
		t.Errorf("MACs = %d", l.MACs())
	}
	f := &Layer{Name: "f", Kind: FC, K: 10, C: 20, R: 1, S: 1, Timesteps: 5}
	if f.MACs() != 10*20*5 {
		t.Errorf("FC MACs = %d", f.MACs())
	}
	p := &Layer{Name: "p", Kind: MaxPool, C: 4, R: 2, S: 2, Stride: 2, InH: 4, InW: 4}
	if p.MACs() != 0 || p.HasCompute() {
		t.Error("pool layers have no MACs")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Conv: "conv", Depthwise: "dwconv", FC: "fc", MaxPool: "maxpool", AvgPool: "avgpool"} {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestLowerConvGeometry(t *testing.T) {
	l := &Layer{Name: "c", Kind: Conv, K: 4, C: 20, R: 3, S: 3, Stride: 1, Pad: 1, InH: 5, InW: 5}
	l.Weights = tensor.New(4, 20, 3, 3)
	in := tensor.New(1, 20, 5, 5)
	lw, err := Lower(l, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(20/16) = 2 channel groups × 9 kernel positions.
	if lw.Steps != 18 {
		t.Errorf("Steps = %d, want 18", lw.Steps)
	}
	if lw.WindowCount != 25 {
		t.Errorf("Windows = %d, want 25", lw.WindowCount)
	}
	// Lane 4 of the second channel group is channel 20 — padding.
	if !lw.IsPad(1, 4) {
		t.Error("channel 20 position should be padding")
	}
	if lw.IsPad(0, 4) {
		t.Error("channel 4 should not be padding")
	}
}

func TestLowerWeightActConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &Layer{Name: "c", Kind: Conv, K: 3, C: 18, R: 3, S: 3, Stride: 2, Pad: 1, InH: 7, InW: 7}
	l.Weights = tensor.New(3, 18, 3, 3)
	l.Weights.FillGaussian(rng, 300, 3000)
	in := tensor.New(1, 18, 7, 7)
	in.FillRandom(rng, 1000)
	lw, err := Lower(l, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	// ReferenceOutput must equal the direct convolution at every window.
	oh, ow := l.OutDims()
	for f := 0; f < 3; f++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var want int64
				for c := 0; c < 18; c++ {
					for r := 0; r < 3; r++ {
						for s := 0; s < 3; s++ {
							want += int64(l.Weights.At(f, c, r, s)) *
								int64(in.AtPadded(0, c, oy*2+r-1, ox*2+s-1))
						}
					}
				}
				got := lw.ReferenceOutput(f, oy*ow+ox)
				if got != want {
					t.Fatalf("filter %d window (%d,%d): lowered %d != direct %d", f, oy, ox, got, want)
				}
			}
		}
	}
}

// TestContentHashMemo pins the lowering's content hash: the memo equals a
// fresh hash, lowerings of equal inputs agree, and lowerings of different
// activations — or of the same activations at another lane count — differ.
func TestContentHashMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := &Layer{Name: "c", Kind: Conv, K: 3, C: 18, R: 3, S: 3, Stride: 1, Pad: 1, InH: 5, InW: 5}
	l.Weights = tensor.New(3, 18, 3, 3)
	l.Weights.FillGaussian(rng, 300, 3000)
	a, b := tensor.New(1, 18, 5, 5), tensor.New(1, 18, 5, 5)
	a.FillRandom(rng, 1000)
	copy(b.Data, a.Data)
	lower := func(in *tensor.T, lanes int) *Lowered {
		lw, err := Lower(l, in, lanes)
		if err != nil {
			t.Fatal(err)
		}
		return lw
	}
	lw := lower(a, 16)
	m1, m2 := lw.ContentHash()
	if f1, f2 := contentHash(lw); m1 != f1 || m2 != f2 {
		t.Fatalf("memo (%#x, %#x) != fresh hash (%#x, %#x)", m1, m2, f1, f2)
	}
	// Concurrent workers share lowerings; every caller sees the one memo.
	shared := lower(b, 16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h1, h2 := shared.ContentHash(); h1 != m1 || h2 != m2 {
				t.Error("equal activations hash differently")
			}
		}()
	}
	wg.Wait()
	b.Data[len(b.Data)-1]++
	if h1, h2 := lower(b, 16).ContentHash(); h1 == m1 || h2 == m2 {
		t.Fatal("different activations share a content hash")
	}
	if h1, h2 := lower(a, 8).ContentHash(); h1 == m1 || h2 == m2 {
		t.Fatal("lane counts share a content hash")
	}
}

func TestLowerFCTimesteps(t *testing.T) {
	l := &Layer{Name: "f", Kind: FC, K: 4, C: 10, R: 1, S: 1, Timesteps: 6}
	l.Weights = tensor.New(4, 10, 1, 1)
	in := tensor.New(1, 10, 1, 6)
	for i := range in.Data {
		in.Data[i] = int32(i)
	}
	lw, err := Lower(l, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lw.WindowCount != 6 {
		t.Fatalf("WindowCount = %d, want 6", lw.WindowCount)
	}
	// Channel c at timestep w is stored at (0, c, 0, w).
	if got := lw.Act(0, 3, 0, 2); got != in.At(0, 2, 0, 3) {
		t.Errorf("FC act(win=3, lane=2) = %d, want %d", got, in.At(0, 2, 0, 3))
	}
}

func TestLowerDepthwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := &Layer{Name: "dw", Kind: Depthwise, K: 8, C: 8, R: 3, S: 3, Stride: 1, Pad: 1, InH: 4, InW: 4}
	l.Weights = tensor.New(8, 1, 3, 3)
	l.Weights.FillGaussian(rng, 300, 3000)
	in := tensor.New(1, 8, 4, 4)
	in.FillRandom(rng, 500)
	lw, err := Lower(l, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lw.Steps != 1 {
		t.Errorf("Steps = %d, want 1 (9 positions in 16 lanes)", lw.Steps)
	}
	// Lanes 9..15 are padding.
	if !lw.IsPad(0, 9) || lw.IsPad(0, 8) {
		t.Error("depthwise padding misplaced")
	}
	for f := 0; f < 8; f++ {
		for win := 0; win < 16; win++ {
			var want int64
			oy, ox := win/4, win%4
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					want += int64(l.Weights.At(f, 0, r, s)) *
						int64(in.AtPadded(0, f, oy+r-1, ox+s-1))
				}
			}
			if got := lw.ReferenceOutput(f, win); got != want {
				t.Fatalf("dw filter %d win %d: %d != %d", f, win, got, want)
			}
		}
	}
}

func TestLowerRejects(t *testing.T) {
	l := &Layer{Name: "p", Kind: MaxPool, C: 4, R: 2, S: 2, Stride: 2, InH: 4, InW: 4}
	if _, err := Lower(l, tensor.New(1, 4, 4, 4), 16); err == nil {
		t.Error("Lower accepted a pool layer")
	}
	c := &Layer{Name: "c", Kind: Conv, K: 1, C: 1, R: 1, S: 1, Stride: 1, InH: 1, InW: 1}
	c.Weights = tensor.New(1, 1, 1, 1)
	if _, err := Lower(c, tensor.New(1, 1, 1, 1), 0); err == nil {
		t.Error("Lower accepted zero lanes")
	}
}

func TestFilterRowMatchesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := &Layer{Name: "c", Kind: Conv, K: 2, C: 5, R: 2, S: 2, Stride: 1, Pad: 0, InH: 3, InW: 3}
	l.Weights = tensor.New(2, 5, 2, 2)
	l.Weights.FillGaussian(rng, 300, 3000)
	lw, _ := Lower(l, tensor.New(1, 5, 3, 3), 4)
	row := lw.FilterRow(1)
	if len(row) != lw.Steps*4 {
		t.Fatalf("row len = %d", len(row))
	}
	for st := 0; st < lw.Steps; st++ {
		for ln := 0; ln < 4; ln++ {
			if row[st*4+ln] != lw.Weight(1, st, ln) {
				t.Fatalf("FilterRow disagrees with Weight at (%d,%d)", st, ln)
			}
		}
	}
}

func TestZooModels(t *testing.T) {
	if len(ModelNames) != 7 {
		t.Fatalf("zoo has %d models, want 7", len(ModelNames))
	}
	cfg := DefaultZoo()
	for _, name := range ModelNames {
		m, err := BuildModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalMACs() < 1e6 {
			t.Errorf("%s suspiciously small: %d MACs", m.Name, m.TotalMACs())
		}
		for _, l := range m.Layers {
			if err := l.Validate(); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
		got := m.WeightSparsity()
		if diff := got - m.TargetWeightSparsity; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: weight sparsity %.3f, target %.2f", m.Name, got, m.TargetWeightSparsity)
		}
	}
}

func TestZooDeterministic(t *testing.T) {
	cfg := DefaultZoo()
	a, err := BuildModel("AlexNet-SS", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildModel("AlexNet-SS", cfg)
	for i := range a.Layers {
		if !tensor.Equal(a.Layers[i].Weights, b.Layers[i].Weights) {
			t.Fatalf("layer %d weights differ across builds with same seed", i)
		}
	}
}

func TestZooUnknownModel(t *testing.T) {
	if _, err := BuildModel("VGG-19", DefaultZoo()); err == nil {
		t.Error("BuildModel accepted unknown name")
	}
}

// TestBuildModelScaleBounds pins the (0, 1] domain of both zoo scales:
// the scaling rules clamp anything else to their floors, so an
// out-of-range scale must be an error, not the smallest model.
func TestBuildModelScaleBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cscale, sscale float64
		ok             bool
	}{
		{0.03, 0.2, true},
		{0.03, 1, true},
		{-1, 0.5, false},
		{0, 0.5, false},
		{nan, 0.5, false},
		{1.5, 0.5, false},
		{inf, 0.5, false},
		{0.25, -2, false},
		{0.25, 0, false},
		{0.25, nan, false},
		{0.25, 1.0001, false},
	} {
		cfg := DefaultZoo()
		cfg.ChannelScale, cfg.SpatialScale = tc.cscale, tc.sscale
		_, err := BuildModel("AlexNet-ES", cfg)
		if tc.ok && err != nil {
			t.Errorf("scales (%g, %g): %v", tc.cscale, tc.sscale, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "(0, 1]")) {
			t.Errorf("scales (%g, %g): error %v, want one naming the (0, 1] bound", tc.cscale, tc.sscale, err)
		}
	}
}

func TestZoo8Bit(t *testing.T) {
	cfg := DefaultZoo()
	cfg.Width = fixed.W8
	m, err := BuildModel("AlexNet-ES", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Width != fixed.W8 {
		t.Fatal("width not 8b")
	}
	for _, l := range m.Layers {
		for _, v := range l.Weights.Data {
			if v > 127 || v < -127 {
				t.Fatalf("8b weight %d out of range", v)
			}
		}
	}
	acts := m.GenerateActs(9)
	for _, a := range acts {
		for _, v := range a.Data {
			if v > 127 || v < -127 {
				t.Fatalf("8b activation %d out of range", v)
			}
		}
	}
}

func TestGenerateActsShapes(t *testing.T) {
	m, err := BuildModel("Bi-LSTM", DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(1)
	for i, l := range m.Layers {
		a := acts[i]
		if l.Kind == FC {
			if a.Shape != (tensor.Shape{1, l.C, 1, l.Windows()}) {
				t.Errorf("%s act shape %v", l.Name, a.Shape)
			}
		} else if a.Shape != (tensor.Shape{1, l.C, l.InH, l.InW}) {
			t.Errorf("%s act shape %v", l.Name, a.Shape)
		}
	}
	// Deterministic in seed.
	acts2 := m.GenerateActs(1)
	if !tensor.Equal(acts[0], acts2[0]) {
		t.Error("GenerateActs not deterministic")
	}
}

func TestModelLowered(t *testing.T) {
	m, err := BuildModel("MobileNet", DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(2)
	lws, err := m.Lowered(16, acts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lws) != len(m.Layers) {
		t.Fatalf("lowered %d of %d layers", len(lws), len(m.Layers))
	}
	for i, lw := range lws {
		if lw.Layer() != m.Layers[i] || lw.Input() != acts[i] {
			t.Fatalf("%s: lowering does not expose its layer and input", lw.Name)
		}
	}
	if _, err := m.Lowered(16, acts[:1]); err == nil {
		t.Error("Lowered accepted mismatched act count")
	}
}

func TestAssignSparsityAggregate(t *testing.T) {
	m, _ := BuildModel("GoogLeNet-SS", DefaultZoo())
	fracs := assignSparsity(m.Layers, 0.77)
	var agg, tot float64
	for i, l := range m.Layers {
		agg += float64(l.MACs()) * fracs[i]
		tot += float64(l.MACs())
	}
	if got := agg / tot; got < 0.76 || got > 0.78 {
		t.Errorf("aggregate assigned sparsity %.3f, want 0.77", got)
	}
	// First conv prunes less than mid-network convs.
	if fracs[0] >= fracs[5] {
		t.Errorf("conv1 frac %.2f should be below mid-layer frac %.2f", fracs[0], fracs[5])
	}
}

func TestAssignSparsityZeroTarget(t *testing.T) {
	m, _ := BuildModel("AlexNet-ES", DefaultZoo())
	for _, f := range assignSparsity(m.Layers, 0) {
		if f != 0 {
			t.Fatal("zero target must assign zero fractions")
		}
	}
}

func TestGroupedConvLowering(t *testing.T) {
	// A 2-group conv: filters in the second group must read the second half
	// of the channels; ReferenceOutput must match a direct grouped conv.
	rng := rand.New(rand.NewSource(31))
	l := &Layer{Name: "g", Kind: Conv, K: 8, C: 32, R: 3, S: 3, Stride: 1, Pad: 1,
		InH: 5, InW: 5, Groups: 2}
	l.Weights = tensor.New(8, 16, 3, 3)
	l.Weights.FillGaussian(rng, 300, 3000)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Reduction() != 16*9 {
		t.Errorf("Reduction = %d, want 144", l.Reduction())
	}
	if l.MACs() != 8*144*25 {
		t.Errorf("MACs = %d", l.MACs())
	}
	in := tensor.New(1, 32, 5, 5)
	in.FillRandom(rng, 500)
	lw, err := Lower(l, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 8; f++ {
		off := (f / 4) * 16
		for win := 0; win < 25; win += 6 {
			oy, ox := win/5, win%5
			var want int64
			for c := 0; c < 16; c++ {
				for r := 0; r < 3; r++ {
					for s := 0; s < 3; s++ {
						want += int64(l.Weights.At(f, c, r, s)) *
							int64(in.AtPadded(0, off+c, oy+r-1, ox+s-1))
					}
				}
			}
			if got := lw.ReferenceOutput(f, win); got != want {
				t.Fatalf("filter %d window %d: %d != %d", f, win, got, want)
			}
		}
	}
}

func TestAlexNetGroupedConvs(t *testing.T) {
	m, err := BuildModel("AlexNet-ES", DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	grouped := 0
	for _, l := range m.Layers {
		if l.Groups > 1 {
			grouped++
			if err := l.Validate(); err != nil {
				t.Errorf("%s: %v", l.Name, err)
			}
		}
	}
	if grouped != 3 {
		t.Errorf("AlexNet has %d grouped convs, want 3 (conv2/4/5)", grouped)
	}
}

func TestModelMisc(t *testing.T) {
	m, _ := BuildModel("MobileNet", DefaultZoo())
	q := m.Quantize8()
	if q.Name != "MobileNet-8b" || q.Width != fixed.W8 {
		t.Errorf("Quantize8 name/width: %s %v", q.Name, q.Width)
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestScaleHelpers(t *testing.T) {
	cfg := DefaultZoo()
	if got := scaleC(8, cfg); got != 32 {
		t.Errorf("scaleC floor = %d, want 32", got)
	}
	if got := scaleC(2048, cfg); got != 512 {
		t.Errorf("scaleC(2048) = %d", got)
	}
	if got := scaleS(10, 31, cfg); got != 10 {
		t.Errorf("scaleS must not exceed native: %d", got)
	}
	if got := scaleS(200, 31, cfg); got != 100 {
		t.Errorf("scaleS(200) = %d", got)
	}
}
