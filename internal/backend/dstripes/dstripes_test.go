package dstripes

import (
	"slices"
	"testing"

	"bittactical/internal/backend"
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
)

func TestRegisteredByImport(t *testing.T) {
	be, err := backend.Lookup(Name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", Name, err)
	}
	if be.Name() != Name {
		t.Errorf("Name() = %q, want %q", be.Name(), Name)
	}
	if !be.Serial() || be.OffsetEncoder() {
		t.Errorf("traits Serial=%v OffsetEncoder=%v, want true/false", be.Serial(), be.OffsetEncoder())
	}
}

func TestCostIsMagnitudeBitsFromZero(t *testing.T) {
	be := backend.MustLookup(Name)
	cases := []struct {
		v    int32
		want int
	}{
		{0, 0},   // skipped entirely
		{1, 1},   // bit 0 only
		{8, 4},   // bits 0..3 walked even though 0..2 are clear
		{-8, 4},  // sign is free in sign-magnitude
		{5, 3},   // bits 0..2
		{255, 8}, // bits 0..7
		{-1, 1},
	}
	cost := func(be backend.Backend, v int32) int { return len(be.Terms(nil, v, fixed.W16)) }
	for _, c := range cases {
		if got := cost(be, c.v); got != c.want {
			t.Errorf("len(Terms(%d)) = %d, want %d", c.v, got, c.want)
		}
	}
	// Distinct from TCLp on both ends: no low-order trim, no sign cycle.
	tclp := backend.MustLookup("TCLp")
	if cost(be, 8) == cost(tclp, 8) {
		t.Error("cost of 8 should differ from TCLp (no trailing-zero trim)")
	}
	if cost(be, -1) == cost(tclp, -1) {
		t.Error("cost of -1 should differ from TCLp (no sign cycle)")
	}
}

// TestTermsContract pins the back-end's one definition over the full code
// space at both widths, one subtest per width: the factors sum to v, the
// stream is at most 127 factors long, Terms appends to a non-empty prefix
// without touching it, and the length is Hi+1, every magnitude bit from 0
// up.
func TestTermsContract(t *testing.T) {
	be := backend.MustLookup(Name)
	prefix := []int64{7, -7, 42}
	for _, w := range []fixed.Width{fixed.W16, fixed.W8} {
		t.Run(w.String(), func(t *testing.T) {
			buf := make([]int64, 0, 256)
			for i := 0; i < 1<<uint(w); i++ {
				v := fixed.SignExtend(uint32(i), w)
				ts := be.Terms(nil, v, w)
				var sum int64
				for _, f := range ts {
					sum += f
				}
				if sum != int64(v) {
					t.Fatalf("Terms(%d, %s) sums to %d", v, w, sum)
				}
				if len(ts) > 127 {
					t.Fatalf("Terms(%d, %s) has %d factors, more than 127", v, w, len(ts))
				}
				if got, want := len(ts), bits.ValuePrecision(v, w).Hi+1; got != want {
					t.Fatalf("len(Terms(%d, %s)) = %d, want Hi+1 = %d", v, w, got, want)
				}
				got := be.Terms(append(buf[:0], prefix...), v, w)
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], ts) {
					t.Fatalf("Terms(%v, %d, %s) = %v, want the prefix then %v", prefix, v, w, got, ts)
				}
			}
		})
	}
}
