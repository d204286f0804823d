// Package sparsity provides the value-distribution machinery of the
// reproduction: magnitude pruning to target weight-sparsity levels, the
// calibrated activation synthesizer that stands in for real IMAGENET
// activation traces, and the random sparse filter generator behind the
// paper's Figure 11 sensitivity study.
//
// Substitution note (see DESIGN.md §2): the paper uses published pruned
// models and real activations. Timing and energy depend on (a) the
// zero/non-zero structure of weights, (b) the zero fraction of activations,
// and (c) the bit-level magnitude distribution of activations. This package
// reproduces all three from explicit, calibrated distributions.
package sparsity

import (
	"cmp"
	"math"
	mathbits "math/bits"
	"math/rand"
	"sort"

	"bittactical/internal/fixed"
	"bittactical/internal/tensor"
)

// PruneMagnitude zeroes the fraction frac of t's elements with the smallest
// magnitudes, the magnitude-based per-layer pruning rule the paper follows
// for MobileNet and Bi-LSTM (after Narang et al. and Zhu & Gupta). Ties are
// broken arbitrarily but deterministically. frac is clamped to [0, 1].
func PruneMagnitude(t *tensor.T, frac float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	n := len(t.Data)
	k := int(frac * float64(n))
	if k <= 0 {
		return
	}
	if k >= n {
		t.Fill(0)
		return
	}
	mags := make([]int32, n)
	for i, v := range t.Data {
		if v < 0 {
			v = -v
		}
		mags[i] = v
	}
	sorted := make([]int32, n)
	copy(sorted, mags)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	threshold := sorted[k-1]
	// Zero strictly-below-threshold first, then zero at-threshold elements
	// until exactly k are gone, so the realized sparsity matches frac.
	zeroed := 0
	for i := range t.Data {
		if mags[i] < threshold {
			t.Data[i] = 0
			zeroed++
		}
	}
	for i := range t.Data {
		if zeroed >= k {
			break
		}
		if mags[i] == threshold && t.Data[i] != 0 {
			t.Data[i] = 0
			zeroed++
		}
	}
}

// ActModel describes the synthetic activation distribution for one network:
// a zero fraction (ReLU value sparsity) and a log-normal magnitude law for
// the non-zero codes, parameterized in the log2 domain so the mean dynamic
// precision is directly controlled.
//
// Real post-ReLU activations are strongly structured: whole channels go
// quiet over image regions (features absent) and magnitudes are locally
// smooth, so the max precision over a hardware sync group tracks the
// per-value precision instead of the distribution tail. FillTensor
// reproduces that structure with a two-level law — a per-block factor shared
// by 16 consecutive channels over a 4×4 spatial patch (the lane-group ×
// window-group sync neighborhood), plus per-value jitter — while Sample
// draws from the equivalent marginal (what the Table 1 per-value potential
// analysis sees).
type ActModel struct {
	// ZeroFrac is the total probability an activation is exactly zero.
	ZeroFrac float64
	// MeanLog2 is the mean of log2(code) for non-zero codes — approximately
	// the mean msb position, i.e. the mean dynamic precision minus one.
	MeanLog2 float64
	// SigmaLog2 is the total standard deviation of log2(code).
	SigmaLog2 float64
	// NegFrac is the probability a non-zero activation is negative (zero for
	// post-ReLU layers; small for network inputs).
	NegFrac float64
	// GroupShare is the fraction of the log-magnitude variance carried by
	// the block factor (0 ⇒ i.i.d.). Zero value defaults to 0.95.
	GroupShare float64
	// ZeroGroupShare is the fraction of zeros arising from fully-inactive
	// blocks. Zero value defaults to 0.92.
	ZeroGroupShare float64
	// SigBits bounds the significant bits of a non-zero code: the value is
	// rounded to its top SigBits bits, leaving trailing zeros below. Real
	// activation traces carry limited mantissa information across a wide
	// dynamic range — the property that makes Dynamic Stripes' prefix+suffix
	// trimming effective at 16 bits AND keeps it effective after 8-bit
	// requantization (Figure 13). Zero means unlimited.
	SigBits int
}

// law is m with its defaults resolved. A negative code's magnitude is
// unbounded.
func (m ActModel) law() twoLevel {
	return twoLevel{
		zeroFrac: m.ZeroFrac, meanLog2: m.MeanLog2, sigmaLog2: m.SigmaLog2,
		groupShare: cmp.Or(m.GroupShare, 0.95), zeroGroupShare: cmp.Or(m.ZeroGroupShare, 0.92),
		negFrac: m.NegFrac, negCapLog2: math.Inf(1), sigBits: m.SigBits,
	}
}

// quantizeLog2 converts a log2 magnitude to a clamped non-zero code,
// rounded to sigBits significant bits (0 = unlimited).
func quantizeLog2(lg float64, neg bool, sigBits int, w fixed.Width) int32 {
	if lg < 0 {
		lg = 0
	}
	if limit := float64(int(w) - 1); lg > limit {
		lg = limit
	}
	v := int32(math.Exp2(lg))
	if v < 1 {
		v = 1
	}
	if v > w.MaxInt() {
		v = w.MaxInt()
	}
	v = TruncateSigBits(v, sigBits)
	if v > w.MaxInt() {
		v = w.MaxInt() &^ 1 // rounding carry past the clamp: drop the LSB instead
	}
	if neg {
		v = -v
	}
	return v
}

// TruncateSigBits rounds a positive code to its top sigBits significant
// bits (round half up); sigBits <= 0 returns v unchanged.
func TruncateSigBits(v int32, sigBits int) int32 {
	if sigBits <= 0 || v <= 0 {
		return v
	}
	msb := 31 - mathbits.LeadingZeros32(uint32(v))
	drop := msb - sigBits + 1
	if drop <= 0 {
		return v
	}
	half := int32(1) << uint(drop-1)
	return (v + half) >> uint(drop) << uint(drop)
}

// Sample draws one activation code at width w from the marginal law.
func (m ActModel) Sample(rng *rand.Rand, w fixed.Width) int32 { return m.law().sample(rng, w) }

// FillTensor fills t — interpreted as (1, C, H, W) — with the structured
// two-level law described on ActModel.
func (m ActModel) FillTensor(rng *rand.Rand, t *tensor.T, w fixed.Width) { m.law().fill(rng, t, w) }

// twoLevel is the structured log-normal law ActModel and GELUAct share,
// with their defaults resolved: ZeroFrac, MeanLog2, SigmaLog2, the two
// shares and SigBits as on ActModel. A non-zero code is negative with
// probability negFrac (no draw when it is 0), and a negative code's log2
// magnitude above negCapLog2 folds back under the cap (GELU's bounded
// dip).
type twoLevel struct {
	zeroFrac, meanLog2, sigmaLog2 float64
	groupShare, zeroGroupShare    float64
	negFrac, negCapLog2           float64
	sigBits                       int
}

// code draws the sign of one non-zero code of log2 magnitude lg and
// quantizes it. fill calls it once per value, so it takes l by pointer.
func (l *twoLevel) code(rng *rand.Rand, lg float64, w fixed.Width) int32 {
	neg := l.negFrac > 0 && rng.Float64() < l.negFrac
	if neg && lg > l.negCapLog2 {
		lg = l.negCapLog2 - (lg-l.negCapLog2)*0.25
	}
	return quantizeLog2(lg, neg, l.sigBits, w)
}

// sample draws one code from the marginal law.
func (l twoLevel) sample(rng *rand.Rand, w fixed.Width) int32 {
	if rng.Float64() < l.zeroFrac {
		return 0
	}
	return l.code(rng, l.meanLog2+l.sigmaLog2*rng.NormFloat64(), w)
}

// Correlation neighborhoods of FillTensor: the magnitude scale is shared by
// every channel over a spatial patch (layer regions are loud or quiet as a
// whole), while ReLU zero-gating clusters per channel-block × patch (a
// feature is absent over a region).
const (
	blockChannels = 16
	blockSpatial  = 4
)

// fill fills t — interpreted as (1, C, H, W) — with the two-level law:
// block zero-gating and a shared per-patch magnitude factor, then per-value
// zeros, jitter and sign.
func (l twoLevel) fill(rng *rand.Rand, t *tensor.T, w fixed.Width) {
	c, h, wd := t.Shape[1], t.Shape[2], t.Shape[3]
	gSigma := l.sigmaLog2 * math.Sqrt(l.groupShare)
	vSigma := l.sigmaLog2 * math.Sqrt(1-l.groupShare)
	zg := l.zeroGroupShare * l.zeroFrac
	zv := 0.0
	if zg < 1 {
		zv = (l.zeroFrac - zg) / (1 - zg)
	}
	hPatches := (h + blockSpatial - 1) / blockSpatial
	wPatches := (wd + blockSpatial - 1) / blockSpatial
	// One magnitude factor per spatial patch, shared by all channels.
	patchFactor := make([]float64, hPatches*wPatches)
	for i := range patchFactor {
		patchFactor[i] = gSigma * rng.NormFloat64()
	}
	for c0 := 0; c0 < c; c0 += blockChannels {
		for h0 := 0; h0 < h; h0 += blockSpatial {
			for w0 := 0; w0 < wd; w0 += blockSpatial {
				if rng.Float64() < zg {
					continue // inactive feature block: stays zero
				}
				gFactor := patchFactor[(h0/blockSpatial)*wPatches+w0/blockSpatial]
				for ci := c0; ci < c0+blockChannels && ci < c; ci++ {
					for hi := h0; hi < h0+blockSpatial && hi < h; hi++ {
						for wi := w0; wi < w0+blockSpatial && wi < wd; wi++ {
							if rng.Float64() < zv {
								continue
							}
							lg := l.meanLog2 + gFactor + vSigma*rng.NormFloat64()
							t.Set(0, ci, hi, wi, l.code(rng, lg, w))
						}
					}
				}
			}
		}
	}
}

// WeightModel describes the synthetic weight distribution before pruning:
// Gaussian codes with the given sigma, clamped to the width.
type WeightModel struct {
	Sigma float64
}

// FillPruned fills t with Gaussian codes and magnitude-prunes to frac. Any
// value that would round to zero is pushed to ±1 first so the realized
// sparsity is set by pruning alone.
func (wm WeightModel) FillPruned(rng *rand.Rand, t *tensor.T, w fixed.Width, frac float64) {
	for i := range t.Data {
		v := int32(math.Round(rng.NormFloat64() * wm.Sigma))
		if v == 0 {
			if rng.Intn(2) == 0 {
				v = 1
			} else {
				v = -1
			}
		}
		if v > w.MaxInt() {
			v = w.MaxInt()
		}
		if v < w.MinInt() {
			v = w.MinInt()
		}
		t.Data[i] = v
	}
	PruneMagnitude(t, frac)
}

// RandomSparseFilter builds one randomly sparsified filter laid out as a
// Steps×Lanes dense schedule (row-major), the workload of the paper's
// Figure 11: "randomly sparsified 3×3 filters with 512 channels". Exactly
// round(sparsity*len) positions are zero. It allocates the filter and the
// permutation; FillRandomSparse draws the same filter into caller storage.
func RandomSparseFilter(rng *rand.Rand, steps, lanes int, sparsity float64) []int32 {
	n := steps * lanes
	w := make([]int32, n)
	FillRandomSparse(rng, w, make([]int, n), sparsity)
	return w
}

// FillRandomSparse draws a RandomSparseFilter into w, using perm (at least
// len(w) long) as the permutation's scratch: nonzero magnitudes first, then
// round(sparsity*len(w)) positions zeroed by a uniformly random
// permutation. The permutation is rand.Perm's own swap loop, so the filter
// and the state rng is left in match a draw through rng.Perm exactly.
func FillRandomSparse(rng *rand.Rand, w []int32, perm []int, sparsity float64) {
	n := len(w)
	for i := range w {
		w[i] = int32(rng.Intn(200) + 1) // non-zero magnitudes; sign irrelevant
	}
	k := min(int(math.Round(sparsity*float64(n))), n)
	perm = perm[:n]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	// Zero a uniformly random subset of size k.
	for _, idx := range perm[:k] {
		w[idx] = 0
	}
}

// Requantize8 derives 8-bit codes from 16-bit codes by the paper's
// range-oblivious linear quantization (Section 6.5): the tensor's value
// range is mapped onto the 8-bit range (largest power-of-two rescale that
// fits), and each code is rounded. Values that land below the new LSB round
// to zero, exactly as an 8-bit quantizer of the same real values produces.
func Requantize8(t *tensor.T) *tensor.T {
	var maxAbs int64
	for _, v := range t.Data {
		a := int64(v)
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	shift := 0
	for maxAbs>>uint(shift) > int64(fixed.W8.MaxInt()) {
		shift++
	}
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = fixed.RequantizeProduct(int64(v), shift, fixed.W8)
	}
	return out
}
