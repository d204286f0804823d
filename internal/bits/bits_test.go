package bits

import (
	mbits "math/bits"
	"slices"
	"testing"
	"testing/quick"

	"bittactical/internal/fixed"
)

// reconstructBooth sums a term list back into a value: the functional model
// of TCLe's shift-add datapath, the oracle the Booth encoder is checked
// against.
func reconstructBooth(terms []int64) int64 {
	var v int64
	for _, t := range terms {
		v += t
	}
	return v
}

// setBitCount is the plain popcount of v's low w bits, the term count a
// bit-serial engine without Booth encoding would pay.
func setBitCount(v int32, w fixed.Width) int {
	return mbits.OnesCount32(uint32(v) & w.Mask())
}

func TestBoothPaperExample(t *testing.T) {
	// Paper Section 5.2: 0b0000_0000_1000_1111 -> {+2^7, +2^4, -2^0}.
	v := int32(0x008F)
	terms := AppendBooth(nil, v, fixed.W16)
	if want := []int64{1 << 7, 1 << 4, -1}; !slices.Equal(terms, want) {
		t.Errorf("AppendBooth(nil, %#x) = %v, want %v", v, terms, want)
	}
}

func TestBoothZero(t *testing.T) {
	if got := AppendBooth(nil, 0, fixed.W16); len(got) != 0 {
		t.Errorf("AppendBooth(nil, 0) = %v, want no terms", got)
	}
	if OneffsetCount(0, fixed.W16) != 0 {
		t.Error("OneffsetCount(0) != 0")
	}
}

func TestBoothReconstruct(t *testing.T) {
	for v := int32(-512); v <= 512; v++ {
		if got := reconstructBooth(AppendBooth(nil, v, fixed.W16)); got != int64(v) {
			t.Fatalf("AppendBooth(nil, %d) reconstructs to %d", v, got)
		}
	}
}

func TestBoothReconstructProperty(t *testing.T) {
	f := func(raw int32) bool {
		v := fixed.Sat(int64(raw), fixed.W16)
		return reconstructBooth(AppendBooth(nil, v, fixed.W16)) == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBoothMinimality(t *testing.T) {
	// CSD encoding is minimal: term count must never exceed popcount, and
	// must beat it on runs of ones.
	f := func(raw int32) bool {
		v := fixed.Sat(int64(raw), fixed.W16)
		n := OneffsetCount(v, fixed.W16)
		if v >= 0 && n > setBitCount(v, fixed.W16) {
			return false
		}
		// CSD of a w-bit value has at most ceil((w+1)/2) nonzero digits.
		return n <= (16+2)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// 0b0111_1111 (127): popcount 7, CSD 2 (+2^7 - 2^0).
	if n := OneffsetCount(127, fixed.W16); n != 2 {
		t.Errorf("OneffsetCount(127) = %d, want 2", n)
	}
}

func TestOneffsetCountMatchesBoothLen(t *testing.T) {
	f := func(raw int32) bool {
		v := fixed.Sat(int64(raw), fixed.W16)
		return OneffsetCount(v, fixed.W16) == len(AppendBooth(nil, v, fixed.W16))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValuePrecision(t *testing.T) {
	// Paper Section 5.2 TCLp example: 0b0000_0000_1000_1110 -> 7 bits.
	p := ValuePrecision(0x008E, fixed.W16)
	if p.Hi != 7 || p.Lo != 1 {
		t.Errorf("precision window = [%d,%d], want [7,1]", p.Lo, p.Hi)
	}
	if p.Bits() != 7 {
		t.Errorf("Bits() = %d, want 7", p.Bits())
	}
}

func TestValuePrecisionZero(t *testing.T) {
	p := ValuePrecision(0, fixed.W16)
	if p.Bits() != 0 {
		t.Errorf("zero value should need 0 bits, got %d", p.Bits())
	}
}

func TestValuePrecisionNegative(t *testing.T) {
	p := ValuePrecision(-6, fixed.W16) // magnitude 0b110 -> window [1,2] + sign
	if p.Hi != 2 || p.Lo != 1 || !p.Neg {
		t.Errorf("precision of -6 = %+v", p)
	}
	if p.Bits() != 3 {
		t.Errorf("Bits() = %d, want 3 (2 magnitude + sign)", p.Bits())
	}
}

func TestGroupPrecision(t *testing.T) {
	// Group window is the union of member windows.
	g := GroupPrecision([]int32{0x0080, 0x0002, 0}, fixed.W16)
	if g.Hi != 7 || g.Lo != 1 {
		t.Errorf("group window = [%d,%d], want [1,7]", g.Lo, g.Hi)
	}
	if g.Bits() != 7 {
		t.Errorf("group Bits() = %d, want 7", g.Bits())
	}
}

func TestGroupPrecisionAllZero(t *testing.T) {
	if g := GroupPrecision([]int32{0, 0, 0}, fixed.W16); g.Bits() != 0 {
		t.Errorf("all-zero group Bits() = %d, want 0", g.Bits())
	}
	if g := GroupPrecision(nil, fixed.W16); g.Bits() != 0 {
		t.Errorf("empty group Bits() = %d, want 0", g.Bits())
	}
}

func TestGroupPrecisionDominates(t *testing.T) {
	f := func(raws []int32) bool {
		vs := make([]int32, len(raws))
		for i, r := range raws {
			vs[i] = fixed.Sat(int64(r), fixed.W16)
		}
		g := GroupPrecision(vs, fixed.W16)
		for _, v := range vs {
			p := ValuePrecision(v, fixed.W16)
			if v == 0 {
				continue
			}
			if p.Hi > g.Hi || p.Lo < g.Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTCLeNeverSlowerThanTCLpOnSingles(t *testing.T) {
	// For any single value, oneffset count <= precision window width + 1:
	// serial-by-term is at least as compact as serial-by-bit for the values
	// the paper cares about. (Booth can need hi-lo+2 terms in the worst
	// alternating case; we check the documented <= popcount bound instead.)
	f := func(raw int32) bool {
		v := fixed.Sat(int64(raw), fixed.W16)
		if v < 0 {
			v = -v
		}
		return OneffsetCount(v, fixed.W16) <= setBitCount(v, fixed.W16) || v == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
