package nn

import (
	"fmt"
	"math"
	"math/rand"

	"bittactical/internal/fixed"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// ZooConfig controls model-zoo instantiation.
type ZooConfig struct {
	Width fixed.Width
	// ChannelScale and SpatialScale shrink the native topologies for
	// tractable simulation (DESIGN.md §6). 1.0 reproduces native shapes.
	ChannelScale float64
	SpatialScale float64
	// Seed drives weight generation and pruning.
	Seed int64
	// Batch multiplies the timestep/token count of sequence workloads
	// (FC-lowered layers gain window parallelism; spatial layers are
	// untouched). 0 means 1. The CNN builders ignore it — batching images
	// through a conv layer only repeats identical per-image timing.
	Batch int
}

// BatchSize is the canonical batch: Batch with the zero value mapped to 1.
func (c ZooConfig) BatchSize() int {
	if c.Batch < 1 {
		return 1
	}
	return c.Batch
}

// ScaleChannels applies the zoo's channel scaling rule (multiple-of-16
// rounding with a 32-channel floor) — exported so workload packages outside
// internal/nn scale their native topologies exactly as the paper zoo does.
func (c ZooConfig) ScaleChannels(ch int) int { return scaleC(ch, c) }

// ScaleSpatial applies the zoo's spatial scaling rule, keeping at least
// minDim.
func (c ZooConfig) ScaleSpatial(d, minDim int) int { return scaleS(d, minDim, c) }

// DefaultZoo is the configuration the experiment harness uses: every layer
// type and the paper's relative orderings are preserved at ~1/30 the MACs.
func DefaultZoo() ZooConfig {
	return ZooConfig{Width: fixed.W16, ChannelScale: 0.25, SpatialScale: 0.5, Seed: 1}
}

// ModelNames lists the seven paper evaluation networks in the paper's
// order — the default set the figure runners sweep. The full registered
// set, including workload zoos from outside this package, is Names().
var ModelNames = []string{
	"AlexNet-ES", "AlexNet-SS", "GoogLeNet-ES", "GoogLeNet-SS",
	"ResNet50-SS", "MobileNet", "Bi-LSTM",
}

// BuildModel instantiates a registered workload by name (case-insensitive):
// geometry from the entry's builder, then deterministic weight synthesis,
// pruning to the entry's target, and — for 8-bit configs — range-oblivious
// requantization. Both scales must lie in (0, 1]: the scaling rules clamp
// any other value to their floors, which would quietly build a model no
// one asked for. Every built layer must pass Layer.Validate: a scale small
// enough to shrink a layer's output to nothing is an error naming the
// layer, the model and the scales, not a model the engine divides by zero
// on.
func BuildModel(name string, cfg ZooConfig) (*Model, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if !(cfg.ChannelScale > 0 && cfg.ChannelScale <= 1 && cfg.SpatialScale > 0 && cfg.SpatialScale <= 1) {
		return nil, fmt.Errorf("nn: %s: channel scale %g and spatial scale %g must both lie in (0, 1]",
			e.Name, cfg.ChannelScale, cfg.SpatialScale)
	}
	m := e.Build(cfg)
	m.Name = e.Name
	m.Width = fixed.W16
	m.Act = e.Act
	m.TargetWeightSparsity = e.WeightSparsity
	fillWeights(m, cfg, e.WeightSparsity)
	if cfg.Width == fixed.W8 {
		m = m.Quantize8()
		m.Name = e.Name // experiments address 8b models by the plain name
	}
	for _, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("%w (model %s at channel scale %g, spatial scale %g)",
				err, e.Name, cfg.ChannelScale, cfg.SpatialScale)
		}
	}
	return m, nil
}

// The paper's seven networks register like any other workload. The
// per-network calibration targets derive from the paper's Table 1
// potentials (DESIGN.md §2): aggregate weight sparsity from the W column
// (1 − 1/W), activation zero fraction from the A column, and the
// log-magnitude law matched to the Ap/Ae columns.
func init() {
	for _, e := range []Entry{
		{Name: "AlexNet-ES", Build: buildAlexNet, WeightSparsity: 0.77,
			Act: sparsity.ActModel{ZeroFrac: 0.33, MeanLog2: 11.0, SigmaLog2: 2.0, SigBits: 5}},
		{Name: "AlexNet-SS", Build: buildAlexNet, WeightSparsity: 0.85,
			Act: sparsity.ActModel{ZeroFrac: 0.38, MeanLog2: 11.0, SigmaLog2: 2.0, SigBits: 4}},
		{Name: "GoogLeNet-ES", Build: buildGoogLeNet, WeightSparsity: 0.60,
			Act: sparsity.ActModel{ZeroFrac: 0.47, MeanLog2: 11.2, SigmaLog2: 2.0, SigBits: 5}},
		{Name: "GoogLeNet-SS", Build: buildGoogLeNet, WeightSparsity: 0.77,
			Act: sparsity.ActModel{ZeroFrac: 0.44, MeanLog2: 11.0, SigmaLog2: 2.0, SigBits: 4}},
		{Name: "ResNet50-SS", Build: buildResNet50, WeightSparsity: 0.41,
			Act: sparsity.ActModel{ZeroFrac: 0.60, MeanLog2: 10.6, SigmaLog2: 1.8, SigBits: 3}},
		{Name: "MobileNet", Build: buildMobileNet, WeightSparsity: 0.55,
			Act: sparsity.ActModel{ZeroFrac: 0.44, MeanLog2: 11.4, SigmaLog2: 1.9, SigBits: 8}},
		{Name: "Bi-LSTM", Build: buildBiLSTM, WeightSparsity: 0.73,
			Act: sparsity.ActModel{ZeroFrac: 0.38, MeanLog2: 11.2, SigmaLog2: 1.9, SigBits: 8}},
	} {
		Register(e)
	}
}

// ---- geometry helpers ----

// scaleC scales a channel count, rounding to a multiple of 16 so the scaled
// topologies keep the native networks' property that channel depths fill the
// 16 weight lanes exactly (network input channel counts such as RGB's 3 are
// passed through unscaled by callers). A 32-channel floor keeps scheduling
// windows meaningful (a 16-channel 1×1 layer has a single-step schedule).
func scaleC(c int, cfg ZooConfig) int {
	s := int(math.Round(float64(c)*cfg.ChannelScale/16)) * 16
	if s < 32 {
		s = 32
	}
	if s > c && c >= 16 {
		s = c / 16 * 16
	}
	return s
}

// scaleS scales a spatial dimension, keeping at least minDim.
func scaleS(d, minDim int, cfg ZooConfig) int {
	s := int(math.Round(float64(d) * cfg.SpatialScale))
	if s < minDim {
		s = minDim
	}
	if s > d {
		s = d
	}
	return s
}

func conv(name string, k, c, r, s, stride, pad, inH, inW int) *Layer {
	return &Layer{Name: name, Kind: Conv, K: k, C: c, R: r, S: s, Stride: stride, Pad: pad, InH: inH, InW: inW}
}

func dwconv(name string, c, r, s, stride, pad, inH, inW int) *Layer {
	return &Layer{Name: name, Kind: Depthwise, K: c, C: c, R: r, S: s, Stride: stride, Pad: pad, InH: inH, InW: inW}
}

func fc(name string, k, c int) *Layer {
	return &Layer{Name: name, Kind: FC, K: k, C: c, R: 1, S: 1, InH: 1, InW: 1}
}

func fcT(name string, k, c, timesteps int) *Layer {
	l := fc(name, k, c)
	l.Timesteps = timesteps
	return l
}

// outDim is the conv output size for input d, kernel r, stride, pad.
func outDim(d, r, stride, pad int) int { return (d+2*pad-r)/stride + 1 }

// ---- network builders (native topologies, scaled) ----

func buildAlexNet(cfg ZooConfig) *Model {
	m := &Model{}
	in := scaleS(227, 31, cfg)
	c1 := scaleC(96, cfg)
	m.Layers = append(m.Layers, conv("conv1", c1, 3, 11, 11, 4, 0, in, in))
	d := outDim(in, 11, 4, 0)
	d = outDim(d, 3, 2, 0) // pool1 3x3/2
	c2 := scaleC(256, cfg)
	conv2 := conv("conv2", c2, c1, 5, 5, 1, 2, d, d)
	conv2.Groups = 2 // the Caffe AlexNet splits conv2/4/5 across two GPUs
	m.Layers = append(m.Layers, conv2)
	d = outDim(d, 3, 2, 0) // pool2
	c3 := scaleC(384, cfg)
	m.Layers = append(m.Layers, conv("conv3", c3, c2, 3, 3, 1, 1, d, d))
	c4 := scaleC(384, cfg)
	conv4 := conv("conv4", c4, c3, 3, 3, 1, 1, d, d)
	conv4.Groups = 2
	m.Layers = append(m.Layers, conv4)
	c5 := scaleC(256, cfg)
	conv5 := conv("conv5", c5, c4, 3, 3, 1, 1, d, d)
	conv5.Groups = 2
	m.Layers = append(m.Layers, conv5)
	d = outDim(d, 3, 2, 0) // pool5
	f6 := scaleC(4096, cfg)
	m.Layers = append(m.Layers, fc("fc6", f6, c5*d*d))
	f7 := scaleC(4096, cfg)
	m.Layers = append(m.Layers, fc("fc7", f7, f6))
	m.Layers = append(m.Layers, fc("fc8", scaleC(1000, cfg), f7))
	return m
}

func buildGoogLeNet(cfg ZooConfig) *Model {
	m := &Model{}
	in := scaleS(224, 31, cfg)
	c1 := scaleC(64, cfg)
	m.Layers = append(m.Layers, conv("conv1", c1, 3, 7, 7, 2, 3, in, in))
	d := outDim(in, 7, 2, 3)
	d = outDim(d, 3, 2, 0) // pool1
	cr := scaleC(64, cfg)
	m.Layers = append(m.Layers, conv("conv2/red", cr, c1, 1, 1, 1, 0, d, d))
	c2 := scaleC(192, cfg)
	m.Layers = append(m.Layers, conv("conv2", c2, cr, 3, 3, 1, 1, d, d))
	d = outDim(d, 3, 2, 0) // pool2

	type icp struct {
		name                         string
		b1, b2r, b2, b3r, b3, b4, in int
	}
	cin := c2
	add := func(i icp, dim int) int {
		s := func(c int) int { return scaleC(c, cfg) }
		m.Layers = append(m.Layers,
			conv(i.name+"/1x1", s(i.b1), cin, 1, 1, 1, 0, dim, dim),
			conv(i.name+"/3x3red", s(i.b2r), cin, 1, 1, 1, 0, dim, dim),
			conv(i.name+"/3x3", s(i.b2), s(i.b2r), 3, 3, 1, 1, dim, dim),
			conv(i.name+"/5x5red", s(i.b3r), cin, 1, 1, 1, 0, dim, dim),
			conv(i.name+"/5x5", s(i.b3), s(i.b3r), 5, 5, 1, 2, dim, dim),
			conv(i.name+"/poolproj", s(i.b4), cin, 1, 1, 1, 0, dim, dim),
		)
		return s(i.b1) + s(i.b2) + s(i.b3) + s(i.b4)
	}
	mods3 := []icp{
		{"icp1", 64, 96, 128, 16, 32, 32, 0},
		{"icp2", 128, 128, 192, 32, 96, 64, 0},
	}
	for _, md := range mods3 {
		cin2 := add(md, d)
		cin = cin2
	}
	d = outDim(d, 3, 2, 0) // pool3
	mods4 := []icp{
		{"icp3", 192, 96, 208, 16, 48, 64, 0},
		{"icp4", 160, 112, 224, 24, 64, 64, 0},
		{"icp5", 128, 128, 256, 24, 64, 64, 0},
		{"icp6", 112, 144, 288, 32, 64, 64, 0},
		{"icp7", 256, 160, 320, 32, 128, 128, 0},
	}
	for _, md := range mods4 {
		cin = add(md, d)
	}
	d = outDim(d, 3, 2, 0) // pool4
	mods5 := []icp{
		{"icp8", 256, 160, 320, 32, 128, 128, 0},
		{"icp9", 384, 192, 384, 48, 128, 128, 0},
	}
	for _, md := range mods5 {
		cin = add(md, d)
	}
	m.Layers = append(m.Layers, fc("fc", scaleC(1000, cfg), cin))
	return m
}

func buildResNet50(cfg ZooConfig) *Model {
	m := &Model{}
	in := scaleS(224, 31, cfg)
	c1 := scaleC(64, cfg)
	m.Layers = append(m.Layers, conv("conv1", c1, 3, 7, 7, 2, 3, in, in))
	d := outDim(in, 7, 2, 3)
	d = outDim(d, 3, 2, 1) // pool1 3x3/2 pad1
	cin := c1
	stage := func(prefix string, blocks, mid, out, dim, firstStride int) int {
		s := func(c int) int { return scaleC(c, cfg) }
		for b := 0; b < blocks; b++ {
			name := fmt.Sprintf("%s%c", prefix, 'a'+b)
			stride := 1
			if b == 0 {
				stride = firstStride
				m.Layers = append(m.Layers,
					conv(name+"_br1", s(out), cin, 1, 1, stride, 0, dim, dim))
			}
			m.Layers = append(m.Layers,
				conv(name+"_br2a", s(mid), cin, 1, 1, stride, 0, dim, dim))
			dim2 := outDim(dim, 1, stride, 0)
			m.Layers = append(m.Layers,
				conv(name+"_br2b", s(mid), s(mid), 3, 3, 1, 1, dim2, dim2),
				conv(name+"_br2c", s(out), s(mid), 1, 1, 1, 0, dim2, dim2))
			cin = s(out)
			dim = dim2
		}
		return dim
	}
	d = stage("2", 3, 64, 256, d, 1)
	d = stage("3", 4, 128, 512, d, 2)
	d = stage("4", 6, 256, 1024, d, 2)
	d = stage("5", 3, 512, 2048, d, 2)
	m.Layers = append(m.Layers, fc("fc", scaleC(1000, cfg), cin))
	return m
}

func buildMobileNet(cfg ZooConfig) *Model {
	m := &Model{}
	in := scaleS(224, 31, cfg)
	c := scaleC(32, cfg)
	m.Layers = append(m.Layers, conv("conv1", c, 3, 3, 3, 2, 1, in, in))
	d := outDim(in, 3, 2, 1)
	type blk struct {
		out, stride int
	}
	blocks := []blk{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1},
	}
	for i, b := range blocks {
		n := i + 1
		m.Layers = append(m.Layers, dwconv(fmt.Sprintf("dw%d", n), c, 3, 3, b.stride, 1, d, d))
		d = outDim(d, 3, b.stride, 1)
		out := scaleC(b.out, cfg)
		m.Layers = append(m.Layers, conv(fmt.Sprintf("sep%d", n), out, c, 1, 1, 1, 0, d, d))
		c = out
	}
	m.Layers = append(m.Layers, fc("fc", scaleC(1000, cfg), c))
	return m
}

func buildBiLSTM(cfg ZooConfig) *Model {
	// DeepSpeech2-style speech model (paper ref [28]): two conv layers over
	// the spectrogram, four bidirectional LSTM layers, a character FC.
	m := &Model{}
	// The 41-tap then 21-tap frequency kernels need at least 81 input bins.
	freq := scaleS(161, 81, cfg)
	// Utterances are long: keep enough timesteps after the strided conv
	// front-end that LSTM weights amortize over real window parallelism.
	t := scaleS(480, 120, cfg)
	c1 := scaleC(32, cfg)
	m.Layers = append(m.Layers, conv("conv1", c1, 1, 41, 11, 2, 0, freq, t))
	fd := outDim(freq, 41, 2, 0)
	td := outDim(t, 11, 2, 0)
	c2 := scaleC(32, cfg)
	m.Layers = append(m.Layers, conv("conv5", c2, c1, 21, 11, 2, 0, fd, td))
	fd = outDim(fd, 21, 2, 0)
	td = outDim(td, 11, 2, 0)
	h := scaleC(512, cfg)
	d := c2 * fd
	for layer := 1; layer <= 4; layer++ {
		for _, dir := range []string{"fwd", "bwd"} {
			m.Layers = append(m.Layers,
				fcT(fmt.Sprintf("lstm%d/%s/x", layer, dir), 4*h, d, td),
				fcT(fmt.Sprintf("lstm%d/%s/h", layer, dir), 4*h, h, td))
		}
		d = 2 * h
	}
	m.Layers = append(m.Layers, fcT("fc8", 29, 2*h, td))
	return m
}

// ---- weight generation & pruning ----

// fillWeights allocates and fills every layer's weights, then prunes to
// per-layer targets whose reuse-weighted aggregate matches the network
// target. Per-layer multipliers follow the paper's observations: first conv
// layers and depthwise kernels prune least, FC layers most.
func fillWeights(m *Model, cfg ZooConfig, target float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	wm := sparsity.WeightModel{Sigma: 400}
	for _, l := range m.Layers {
		switch l.Kind {
		case Depthwise:
			l.Weights = tensor.New(l.C, 1, l.R, l.S)
		case Conv:
			l.Weights = tensor.New(l.K, l.GroupChannels(), l.R, l.S)
		default:
			l.Weights = tensor.New(l.K, l.C, l.R, l.S)
		}
		l.WFrac = 12
	}
	fracs := assignSparsity(m.Layers, target)
	for i, l := range m.Layers {
		wm.FillPruned(rng, l.Weights, fixed.W16, fracs[i])
	}
}

// layerMult returns the relative pruning aggressiveness of a layer.
func layerMult(l *Layer, index int) float64 {
	switch {
	case l.Kind == Depthwise:
		return 0.45
	case l.Kind == FC:
		return 1.10
	case index == 0:
		return 0.45 // first conv layer retains most weights
	default:
		return 1.0
	}
}

// assignSparsity solves for per-layer pruning fractions alpha*mult_l
// (clamped to 0.95) whose reuse-weighted mean equals target.
func assignSparsity(layers []*Layer, target float64) []float64 {
	if target <= 0 {
		return make([]float64, len(layers))
	}
	weights := make([]float64, len(layers))
	mults := make([]float64, len(layers))
	var totalW float64
	for i, l := range layers {
		weights[i] = float64(l.MACs())
		mults[i] = layerMult(l, i)
		totalW += weights[i]
	}
	agg := func(alpha float64) float64 {
		var s float64
		for i := range layers {
			f := alpha * mults[i]
			if f > 0.95 {
				f = 0.95
			}
			s += weights[i] * f
		}
		return s / totalW
	}
	// Bisection on alpha: agg is monotone non-decreasing.
	lo, hi := 0.0, 2.5
	if agg(hi) < target {
		// Even max clamping cannot reach the target; saturate.
		out := make([]float64, len(layers))
		for i := range out {
			out[i] = math.Min(0.95, hi*mults[i])
		}
		return out
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if agg(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	out := make([]float64, len(layers))
	for i := range out {
		out[i] = math.Min(0.95, hi*mults[i])
	}
	return out
}
