package sparsity

import (
	"fmt"

	"bittactical/internal/metrics"
	"bittactical/internal/tensor"
)

// BitPlanes is the number of magnitude bit planes SliceProfile tracks — the
// full 16-bit datapath; 8-bit codes simply never populate the top planes.
const BitPlanes = 16

// SliceProfile is per-bit-plane zero-fraction accounting over code
// slices: besides the value-level zero count, it tallies, for each
// magnitude bit plane, how many codes have a zero bit there. Column-based
// bit-serial designs (BitWave) and bit-slice schedulers (SWIS) are
// sensitive to exactly these per-plane fractions — a plane that is zero
// across a whole column can be skipped wholesale — so the profile is the
// calibration input such back-ends read from a workload. Signs are
// accounted separately (NegValues): bit-serial magnitude loops operate on
// |code|, with sign handled out of band.
//
// The zero value is ready to use; Add accumulates across slices.
type SliceProfile struct {
	// Values is the number of codes inspected.
	Values int
	// ZeroValues counts codes that are exactly zero (value sparsity).
	ZeroValues int
	// NegValues counts negative codes (sign-handling load).
	NegValues int
	// PlaneZeros[p] counts codes whose magnitude has a zero bit in plane p
	// (p = 0 is the LSB). A zero code contributes to every plane.
	PlaneZeros [BitPlanes]int
}

// Add accumulates one code slice into the profile.
func (p *SliceProfile) Add(vs []int32) {
	for _, v := range vs {
		p.Values++
		if v == 0 {
			p.ZeroValues++
			for i := 0; i < BitPlanes; i++ {
				p.PlaneZeros[i]++
			}
			continue
		}
		if v < 0 {
			p.NegValues++
			v = -v
		}
		u := uint32(v)
		for i := 0; i < BitPlanes; i++ {
			if u>>uint(i)&1 == 0 {
				p.PlaneZeros[i]++
			}
		}
	}
}

// AddTensor accumulates a whole tensor.
func (p *SliceProfile) AddTensor(t *tensor.T) { p.Add(t.Data) }

// ValueSparsity is the exact-zero code fraction.
func (p SliceProfile) ValueSparsity() float64 {
	if p.Values == 0 {
		return 0
	}
	return float64(p.ZeroValues) / float64(p.Values)
}

// PlaneSparsity is the zero-bit fraction of one magnitude plane.
func (p SliceProfile) PlaneSparsity(plane int) float64 {
	if p.Values == 0 || plane < 0 || plane >= BitPlanes {
		return 0
	}
	return float64(p.PlaneZeros[plane]) / float64(p.Values)
}

// BitSparsity is the zero-bit fraction aggregated over every plane: the
// ideal work reduction of a bit-serial engine that could skip every zero
// bit (the Pragmatic bound, before term alignment costs).
func (p SliceProfile) BitSparsity() float64 {
	if p.Values == 0 {
		return 0
	}
	var z int
	for _, n := range p.PlaneZeros {
		z += n
	}
	return float64(z) / float64(p.Values*BitPlanes)
}

// Publish accumulates the profile into the registry's sparsity_slice_*
// counters: aggregate value/bit totals plus one zero-bit counter per plane,
// so a /metrics snapshot exposes the calibration profile a BitWave/SWIS
// style back-end would consume.
func (p SliceProfile) Publish(r *metrics.Registry) {
	r.Counter("sparsity_slice_values_total").Add(int64(p.Values))
	r.Counter("sparsity_slice_zero_values_total").Add(int64(p.ZeroValues))
	r.Counter("sparsity_slice_neg_values_total").Add(int64(p.NegValues))
	r.Counter("sparsity_slice_bits_total").Add(int64(p.Values) * BitPlanes)
	var z int64
	for i, n := range p.PlaneZeros {
		r.Counter(fmt.Sprintf("sparsity_slice_plane_%02d_zero_bits_total", i)).Add(int64(n))
		z += int64(n)
	}
	r.Counter("sparsity_slice_zero_bits_total").Add(z)
}
