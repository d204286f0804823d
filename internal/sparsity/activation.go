package sparsity

import (
	"cmp"
	"math"
	"math/rand"

	"bittactical/internal/fixed"
	"bittactical/internal/tensor"
)

// ActivationModel is the pluggable activation-distribution seam: anything
// that can draw single codes (what the Table-1 potential analysis sees) and
// fill whole layer-input tensors (what the simulator consumes). The legacy
// post-ReLU log-normal law (ActModel) implements it, as do the
// transformer-era GELU and softmax shapes below; workload packages outside
// internal/nn pick one per model — or per layer, via Layer.Act — without
// the engine enumerating distributions anywhere.
//
// Implementations must be usable by value and deterministic in the rng:
// models are cached and shared across goroutines, so a model must carry no
// mutable state.
type ActivationModel interface {
	// Name identifies the distribution family (for fingerprints and docs).
	Name() string
	// Sample draws one activation code at width w from the marginal law.
	Sample(rng *rand.Rand, w fixed.Width) int32
	// FillTensor fills t — interpreted as (1, C, H, W) — with the law's
	// full structure (spatial/channel correlation, row normalization, ...).
	FillTensor(rng *rand.Rand, t *tensor.T, w fixed.Width)
}

// Name identifies the legacy calibrated law: ReLU value sparsity over a
// log-normal magnitude distribution.
func (m ActModel) Name() string { return "relu-lognormal" }

// Compile-time interface checks for every shipped distribution.
var (
	_ ActivationModel = ActModel{}
	_ ActivationModel = GELUAct{}
	_ ActivationModel = SoftmaxAct{}
)

// GELUAct models post-GELU (or post-LayerNorm) activations: signed codes
// whose positive lobe follows the same two-level log-normal law as ActModel,
// but with a substantial negative fraction whose magnitudes are *bounded* —
// GELU's negative output never exceeds ≈0.17·σ while the positive lobe is
// unbounded, so negative codes cluster below a magnitude cap. The signed
// lobe is what sign-magnitude bit-serial back-ends and Booth-term encodings
// (Pragmatic/TCLe) must handle; the bounded cap keeps the negative lobe's
// dynamic precision low, which per-bit-plane accounting (SliceProfile)
// makes visible.
type GELUAct struct {
	// ZeroFrac is the probability a code underflows to exactly zero.
	ZeroFrac float64
	// MeanLog2/SigmaLog2 parameterize the positive lobe's log2-magnitude
	// law, as in ActModel.
	MeanLog2  float64
	SigmaLog2 float64
	// NegFrac is the probability a non-zero code is negative (the token
	// fraction in GELU's negative lobe). Zero value defaults to 0.30.
	NegFrac float64
	// NegCapLog2 caps the log2 magnitude of negative codes. Zero value
	// defaults to MeanLog2 − 2 (the bounded GELU dip).
	NegCapLog2 float64
	// GroupShare / ZeroGroupShare structure the two-level law exactly as in
	// ActModel (token neighborhoods are loud or quiet together); zero
	// values default to 0.95 / 0.92.
	GroupShare     float64
	ZeroGroupShare float64
	// SigBits bounds significant bits of a non-zero code (0 = unlimited).
	SigBits int
}

// Name identifies the GELU-shaped signed law.
func (m GELUAct) Name() string { return "gelu-signed" }

// law is m with its defaults resolved.
func (m GELUAct) law() twoLevel {
	return twoLevel{
		zeroFrac: m.ZeroFrac, meanLog2: m.MeanLog2, sigmaLog2: m.SigmaLog2,
		groupShare: cmp.Or(m.GroupShare, 0.95), zeroGroupShare: cmp.Or(m.ZeroGroupShare, 0.92),
		negFrac: cmp.Or(m.NegFrac, 0.30), negCapLog2: cmp.Or(m.NegCapLog2, m.MeanLog2-2), sigBits: m.SigBits,
	}
}

// Sample draws one code from the marginal law.
func (m GELUAct) Sample(rng *rand.Rand, w fixed.Width) int32 { return m.law().sample(rng, w) }

// FillTensor fills t with the structured two-level law of
// ActModel.FillTensor, with GELU sign handling per value.
func (m GELUAct) FillTensor(rng *rand.Rand, t *tensor.T, w fixed.Width) { m.law().fill(rng, t, w) }

// SoftmaxAct models attention-probability inputs: within each reduction row
// (the channel axis, i.e. one query's probabilities over all keys) the
// values are a softmax over Gaussian logits, scaled to fixed point. Mass
// concentrates on a few keys per row, so most codes underflow to zero —
// the value sparsity is *emergent* from the row normalization rather than
// dialed in — and the survivors span a wide dynamic range, exactly the
// regime dynamic-precision back-ends exploit on attention×V matmuls.
type SoftmaxAct struct {
	// Temp is the logit standard deviation: higher is peakier rows (more
	// underflow zeros). Zero value defaults to 4 — trained attention heads
	// concentrate, and at 64 keys / Q12 that default underflows a majority
	// of codes.
	Temp float64
	// FracBits is the fixed-point scale of a probability: code =
	// round(p · 2^FracBits). Zero value defaults to 12 (Q12 in a 16-bit
	// datapath; requantization to 8 bits drops the bottom planes).
	FracBits int
	// Keys is the synthetic row length Sample uses for the marginal law
	// (FillTensor uses the tensor's real channel depth). Defaults to 64.
	Keys int
	// SigBits bounds significant bits of a non-zero code (0 = unlimited).
	SigBits int
}

// Name identifies the softmax-row-shaped law.
func (m SoftmaxAct) Name() string { return "softmax-rows" }

func (m SoftmaxAct) temp() float64 {
	if m.Temp == 0 {
		return 4
	}
	return m.Temp
}

func (m SoftmaxAct) fracBits() int {
	if m.FracBits == 0 {
		return 12
	}
	return m.FracBits
}

func (m SoftmaxAct) keys() int {
	if m.Keys == 0 {
		return 64
	}
	return m.Keys
}

// softmaxCodes converts logits in place to fixed-point probability codes,
// returning nothing: logits[i] becomes round(softmax(logits)[i] · 2^frac).
func (m SoftmaxAct) softmaxCodes(logits []float64) {
	maxl := math.Inf(-1)
	for _, l := range logits {
		if l > maxl {
			maxl = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxl)
		logits[i] = e
		sum += e
	}
	scale := math.Exp2(float64(m.fracBits()))
	for i, e := range logits {
		logits[i] = math.Round(e / sum * scale)
	}
}

func (m SoftmaxAct) clampCode(p float64, w fixed.Width) int32 {
	v := int32(p)
	if v <= 0 {
		return 0
	}
	v = TruncateSigBits(v, m.SigBits)
	if v > w.MaxInt() {
		v = w.MaxInt()
	}
	return v
}

// Sample draws one code from the marginal law: one element of a synthetic
// Keys-long softmax row (row elements are exchangeable, so any fixed
// position is the marginal).
func (m SoftmaxAct) Sample(rng *rand.Rand, w fixed.Width) int32 {
	logits := make([]float64, m.keys())
	temp := m.temp()
	for i := range logits {
		logits[i] = temp * rng.NormFloat64()
	}
	m.softmaxCodes(logits)
	return m.clampCode(logits[0], w)
}

// FillTensor fills t — (1, C, H, W) — normalizing along the channel axis:
// each (h, w) position is one query's probability row over C keys, the
// layout FC-lowered attention×V layers use (channels are the reduction).
func (m SoftmaxAct) FillTensor(rng *rand.Rand, t *tensor.T, w fixed.Width) {
	c, h, wd := t.Shape[1], t.Shape[2], t.Shape[3]
	logits := make([]float64, c)
	temp := m.temp()
	for hi := 0; hi < h; hi++ {
		for wi := 0; wi < wd; wi++ {
			for ci := range logits {
				logits[ci] = temp * rng.NormFloat64()
			}
			m.softmaxCodes(logits)
			for ci := range logits {
				if v := m.clampCode(logits[ci], w); v != 0 {
					t.Set(0, ci, hi, wi, v)
				}
			}
		}
	}
}
