package sparsity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/tensor"
)

func TestPruneMagnitudeExactFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, frac := range []float64{0, 0.25, 0.5, 0.77, 0.95, 1} {
		x := tensor.New(1, 1, 20, 20)
		x.FillGaussian(rng, 300, 30000)
		for i := range x.Data {
			if x.Data[i] == 0 {
				x.Data[i] = 1
			}
		}
		PruneMagnitude(x, frac)
		want := int(frac * 400)
		zeros := 400 - x.NNZ()
		if zeros != want {
			t.Errorf("frac %.2f: zeroed %d, want %d", frac, zeros, want)
		}
	}
}

func TestPruneMagnitudeKeepsLargest(t *testing.T) {
	x := tensor.New(1, 1, 1, 6)
	copy(x.Data, []int32{10, -200, 3, 50, -7, 100})
	PruneMagnitude(x, 0.5)
	want := []int32{0, -200, 0, 50, 0, 100}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Errorf("data[%d] = %d, want %d", i, x.Data[i], want[i])
		}
	}
}

func TestPruneMagnitudeClamps(t *testing.T) {
	x := tensor.New(1, 1, 1, 4)
	x.Fill(5)
	PruneMagnitude(x, 1.7)
	if x.NNZ() != 0 {
		t.Error("frac > 1 should zero everything")
	}
	y := tensor.New(1, 1, 1, 4)
	y.Fill(5)
	PruneMagnitude(y, -0.3)
	if y.NNZ() != 4 {
		t.Error("negative frac should be a no-op")
	}
}

func TestPruneMagnitudeTies(t *testing.T) {
	// All-equal magnitudes: exactly k zeroed despite ties.
	x := tensor.New(1, 1, 1, 10)
	x.Fill(7)
	PruneMagnitude(x, 0.3)
	if got := 10 - x.NNZ(); got != 3 {
		t.Errorf("zeroed %d of tied values, want 3", got)
	}
}

func TestPruneFractionProperty(t *testing.T) {
	f := func(seed int64, fr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		frac := float64(fr%100) / 100
		x := tensor.New(1, 1, 8, 8)
		x.FillGaussian(rng, 500, 30000)
		for i := range x.Data {
			if x.Data[i] == 0 {
				x.Data[i] = -1
			}
		}
		PruneMagnitude(x, frac)
		return 64-x.NNZ() == int(frac*64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActModelZeroFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2}
	n, zeros := 50000, 0
	for i := 0; i < n; i++ {
		if m.Sample(rng, fixed.W16) == 0 {
			zeros++
		}
	}
	got := float64(zeros) / float64(n)
	if math.Abs(got-0.4) > 0.02 {
		t.Errorf("zero fraction %.3f, want ≈0.40", got)
	}
}

func TestActModelMagnitudeLaw(t *testing.T) {
	// Mean log2 magnitude of non-zeros tracks MeanLog2 (truncation shifts
	// it slightly); mean precision must land in the calibrated band.
	rng := rand.New(rand.NewSource(3))
	m := ActModel{ZeroFrac: 0, MeanLog2: 6.5, SigmaLog2: 2.0}
	var sumLog float64
	n := 20000
	for i := 0; i < n; i++ {
		v := m.Sample(rng, fixed.W16)
		if v <= 0 {
			t.Fatalf("NegFrac=0 must yield positive codes, got %d", v)
		}
		sumLog += math.Log2(float64(v))
	}
	mean := sumLog / float64(n)
	if math.Abs(mean-6.5) > 0.5 {
		t.Errorf("mean log2 = %.2f, want ≈6.5", mean)
	}
}

func TestActModelRespectsWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := ActModel{ZeroFrac: 0.1, MeanLog2: 7, SigmaLog2: 3, NegFrac: 0.5}
	for i := 0; i < 10000; i++ {
		v := m.Sample(rng, fixed.W8)
		if v > 127 || v < -127 {
			t.Fatalf("8-bit sample %d out of range", v)
		}
	}
}

func TestWeightModelFillPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(16, 16, 3, 3)
	WeightModel{Sigma: 400}.FillPruned(rng, x, fixed.W16, 0.6)
	got := x.Sparsity()
	if math.Abs(got-0.6) > 0.001 {
		t.Errorf("sparsity %.4f, want 0.60", got)
	}
	for _, v := range x.Data {
		if v > 32767 || v < -32767 {
			t.Fatalf("weight %d out of 16b range", v)
		}
	}
}

// sliceSparsity returns the zero fraction of a code slice, counted
// directly: the oracle SliceProfile.ValueSparsity and RandomSparseFilter are
// checked against.
func sliceSparsity(vs []int32) float64 {
	if len(vs) == 0 {
		return 0
	}
	z := 0
	for _, v := range vs {
		if v == 0 {
			z++
		}
	}
	return float64(z) / float64(len(vs))
}

func TestRandomSparseFilterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sp := range []float64{0, 0.1, 0.5, 0.9, 1.0} {
		w := RandomSparseFilter(rng, 288, 16, sp) // 3×3×512 channels over 16 lanes
		if len(w) != 288*16 {
			t.Fatalf("len = %d", len(w))
		}
		got := sliceSparsity(w)
		if math.Abs(got-sp) > 0.001 {
			t.Errorf("sparsity %.3f, want %.1f", got, sp)
		}
	}
}

// permSparseFilter is the rng.Perm construction RandomSparseFilter's draw
// is pinned to: nonzero magnitudes, then the first k indices of rng.Perm
// zeroed.
func permSparseFilter(rng *rand.Rand, n int, sparsity float64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(200) + 1)
	}
	k := int(math.Round(sparsity * float64(n)))
	if k > n {
		k = n
	}
	for _, idx := range rng.Perm(n)[:k] {
		out[idx] = 0
	}
	return out
}

// TestFillRandomSparseMatchesPerm checks the one random-filter draw against
// the rng.Perm construction: the allocating RandomSparseFilter and the fill
// into reused (dirty) storage must produce the same filter and leave the
// RNG in the same state, over seeds, sparsities and sizes.
func TestFillRandomSparseMatchesPerm(t *testing.T) {
	w := make([]int32, 0, 4608)
	perm := make([]int, 0, 4608)
	for seed := int64(1); seed <= 4; seed++ {
		for _, sp := range []float64{0, 0.5, 0.9, 1} {
			for _, n := range []int{1, 7, 16 * 18, 16 * 288} {
				want := rand.New(rand.NewSource(seed))
				got := rand.New(rand.NewSource(seed))
				fill := rand.New(rand.NewSource(seed))
				ref := permSparseFilter(want, n, sp)
				if alloc := RandomSparseFilter(got, 1, n, sp); !slices.Equal(alloc, ref) {
					t.Fatalf("seed %d sparsity %g n %d: RandomSparseFilter differs from the rng.Perm draw", seed, sp, n)
				}
				w, perm = w[:n], perm[:n]
				for i := range w {
					w[i], perm[i] = -1, -1
				}
				FillRandomSparse(fill, w, perm, sp)
				if !slices.Equal(w, ref) {
					t.Fatalf("seed %d sparsity %g n %d: FillRandomSparse differs from the rng.Perm draw", seed, sp, n)
				}
				next := want.Int63()
				if a, f := got.Int63(), fill.Int63(); a != next || f != next {
					t.Fatalf("seed %d sparsity %g n %d: next Int63 %d (alloc) and %d (fill), want %d",
						seed, sp, n, a, f, next)
				}
			}
		}
	}
}

func TestRequantize8RangeFit(t *testing.T) {
	x := tensor.New(1, 1, 1, 4)
	copy(x.Data, []int32{32000, -16000, 100, 0})
	q := Requantize8(x)
	if q.Data[0] != 125 { // 32000>>8 = 125
		t.Errorf("requantized max = %d, want 125", q.Data[0])
	}
	if q.Data[1] != -63 && q.Data[1] != -62 {
		t.Errorf("requantized -16000 = %d, want ≈-62", q.Data[1])
	}
	if q.Data[2] != 0 {
		t.Errorf("sub-LSB value should round to zero, got %d", q.Data[2])
	}
}

func TestRequantize8SmallRange(t *testing.T) {
	// Values already within 8 bits are preserved exactly.
	x := tensor.New(1, 1, 1, 3)
	copy(x.Data, []int32{100, -100, 7})
	q := Requantize8(x)
	for i, want := range []int32{100, -100, 7} {
		if q.Data[i] != want {
			t.Errorf("data[%d] = %d, want %d", i, q.Data[i], want)
		}
	}
}

func TestRequantize8GrowsSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2}
	x := tensor.New(1, 1, 50, 50)
	m.FillTensor(rng, x, fixed.W16)
	q := Requantize8(x)
	if q.Sparsity() <= x.Sparsity() {
		t.Errorf("8b sparsity %.3f should exceed 16b %.3f (sub-LSB rounding)",
			q.Sparsity(), x.Sparsity())
	}
}

func TestCalibrationShapes(t *testing.T) {
	// The calibrated law must produce ResNet-like streams whose ideal Ap
	// and Ae potentials dwarf AlexNet-like streams (Table 1 ordering).
	rng := rand.New(rand.NewSource(8))
	measure := func(m ActModel) (ap, ae float64) {
		var precSum, termSum, n int64
		for i := 0; i < 30000; i++ {
			v := m.Sample(rng, fixed.W16)
			precSum += int64(bits.ValuePrecision(v, fixed.W16).Bits())
			termSum += int64(bits.OneffsetCount(v, fixed.W16))
			n++
		}
		return float64(16*n) / float64(precSum), float64(16*n) / float64(termSum)
	}
	alex := ActModel{ZeroFrac: 0.38, MeanLog2: 6.6, SigmaLog2: 2.4}
	res := ActModel{ZeroFrac: 0.60, MeanLog2: 3.8, SigmaLog2: 2.0}
	apA, aeA := measure(alex)
	apR, aeR := measure(res)
	if apR < 1.5*apA {
		t.Errorf("ResNet Ap %.1f should far exceed AlexNet Ap %.1f", apR, apA)
	}
	if aeR < 1.5*aeA {
		t.Errorf("ResNet Ae %.1f should far exceed AlexNet Ae %.1f", aeR, aeA)
	}
	if aeA < apA {
		t.Errorf("Ae (%.1f) must exceed Ap (%.1f): oneffsets ≤ precision bits", aeA, apA)
	}
}
