package sparsity

import (
	"fmt"
	"math/rand"
	"testing"

	"bittactical/internal/fixed"
	"bittactical/internal/metrics"
)

// profileSlice profiles one slice into a fresh SliceProfile.
func profileSlice(vs []int32) SliceProfile {
	var p SliceProfile
	p.Add(vs)
	return p
}

func TestSliceProfileKnownCodes(t *testing.T) {
	// 0 (all planes zero), 1 (plane 0 set), -5 (0b101: planes 0 and 2 set,
	// counted as a negative with magnitude accounting), 0x8000 is out of W16
	// positive range so use 0x4000 (plane 14 set).
	p := profileSlice([]int32{0, 1, -5, 0x4000})
	if p.Values != 4 || p.ZeroValues != 1 || p.NegValues != 1 {
		t.Fatalf("counts = %+v, want 4 values, 1 zero, 1 negative", p)
	}
	// Set bits per plane across the four codes: plane 0 ← {1, 5}, plane 2 ←
	// {5}, plane 14 ← {0x4000}; every other plane is zero in all four.
	wantZeros := map[int]int{0: 2, 2: 3, 14: 3}
	for plane := 0; plane < BitPlanes; plane++ {
		want := 4
		if z, ok := wantZeros[plane]; ok {
			want = z
		}
		if p.PlaneZeros[plane] != want {
			t.Errorf("PlaneZeros[%d] = %d, want %d", plane, p.PlaneZeros[plane], want)
		}
	}
	if got := p.ValueSparsity(); got != 0.25 {
		t.Errorf("ValueSparsity = %v, want 0.25", got)
	}
	if got, want := p.PlaneSparsity(0), 0.5; got != want {
		t.Errorf("PlaneSparsity(0) = %v, want %v", got, want)
	}
	// Total set bits: 1 has one, 5 has two, 0x4000 has one → 4 of 64.
	if got, want := p.BitSparsity(), 60.0/64.0; got != want {
		t.Errorf("BitSparsity = %v, want %v", got, want)
	}
}

func TestSliceProfileZeroValue(t *testing.T) {
	var p SliceProfile
	if p.ValueSparsity() != 0 || p.BitSparsity() != 0 || p.PlaneSparsity(0) != 0 {
		t.Error("empty profile must report zero sparsity, not NaN")
	}
	if p.PlaneSparsity(-1) != 0 || p.PlaneSparsity(BitPlanes) != 0 {
		t.Error("out-of-range plane must report 0")
	}
}

func TestSliceProfileMatchesSliceSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := ActModel{ZeroFrac: 0.45, MeanLog2: 10, SigmaLog2: 2.5, SigBits: 5}
	vs := make([]int32, 4096)
	for i := range vs {
		vs[i] = m.Sample(rng, fixed.W16)
	}
	p := profileSlice(vs)
	if got, want := p.ValueSparsity(), sliceSparsity(vs); got != want {
		t.Errorf("ValueSparsity = %v, zero fraction = %v; must agree exactly", got, want)
	}
	// Zero-value planes dominate: bit sparsity can never be below value
	// sparsity (a zero code zeroes every plane).
	if p.BitSparsity() < p.ValueSparsity() {
		t.Errorf("BitSparsity %.3f < ValueSparsity %.3f", p.BitSparsity(), p.ValueSparsity())
	}
}

// TestSliceProfileAccumulates: Add is an accumulator — two slices through
// one profile equal their concatenation.
func TestSliceProfileAccumulates(t *testing.T) {
	a := []int32{0, 7, -3}
	b := []int32{128, 0}
	var p SliceProfile
	p.Add(a)
	p.Add(b)
	whole := profileSlice(append(append([]int32{}, a...), b...))
	if p != whole {
		t.Errorf("accumulated profile %+v != whole-slice profile %+v", p, whole)
	}
}

func TestSliceProfilePublish(t *testing.T) {
	r := metrics.NewRegistry()
	p := profileSlice([]int32{0, 1, -5, 0x4000})
	p.Publish(r)
	for name, want := range map[string]int64{
		"sparsity_slice_values_total":      4,
		"sparsity_slice_zero_values_total": 1,
		"sparsity_slice_neg_values_total":  1,
		"sparsity_slice_bits_total":        64,
		"sparsity_slice_zero_bits_total":   60,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for plane := 0; plane < BitPlanes; plane++ {
		name := fmt.Sprintf("sparsity_slice_plane_%02d_zero_bits_total", plane)
		if got, want := r.Counter(name).Value(), int64(p.PlaneZeros[plane]); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Publish accumulates — a second publish doubles every counter.
	p.Publish(r)
	if got := r.Counter("sparsity_slice_values_total").Value(); got != 8 {
		t.Errorf("second publish: values_total = %d, want 8", got)
	}
}
