package backend

import (
	"slices"
	"strings"
	"testing"

	"bittactical/internal/bits"
	"bittactical/internal/fixed"
)

func TestRegistryHasPaperBackends(t *testing.T) {
	for _, name := range []string{"bit-parallel", "TCLp", "TCLe"} {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"tclp", "TCLP", "tClE", "BIT-PARALLEL"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}

func TestLookupMissListsNames(t *testing.T) {
	_, err := Lookup("no-such-backend")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("miss error %q does not list registered back-end %q", err, name)
		}
	}
}

func TestMustLookupPanicsOnMiss(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown name did not panic")
		}
	}()
	MustLookup("no-such-backend")
}

// namedStub lets registry tests exercise Register without real semantics.
type namedStub struct {
	bitParallel
	name string
}

func (s namedStub) Name() string { return s.name }

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(namedStub{name: "tclP"}) // case-insensitive clash with TCLp
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty-name Register did not panic")
		}
	}()
	Register(namedStub{})
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v, want at least the three paper back-ends", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not strictly sorted: %v", names)
		}
	}
}

// TestTermsContract pins the one definition every consumer reads, for
// every back-end registered in this test binary, over the full code space
// at both widths: the factors sum to v (the golden model's value
// exactness), the stream is at most 127 factors long (the cost table's
// byte bound), Terms appends to a non-empty prefix without touching it,
// and the stream's length is the cycle count each paper back-end models.
// Each (back-end, width) pair is its own subtest, so a broken back-end
// names itself and the others are still checked.
func TestTermsContract(t *testing.T) {
	wantLen := map[string]func(v int32, w fixed.Width) int{
		"bit-parallel": func(int32, fixed.Width) int { return 1 },
		"TCLp":         func(v int32, w fixed.Width) int { return bits.ValuePrecision(v, w).Bits() },
		"TCLe":         bits.OneffsetCount,
	}
	prefix := []int64{7, -7, 42}
	for _, name := range Names() {
		be, length := MustLookup(name), wantLen[name]
		if length == nil {
			t.Fatalf("%s: no expected stream length", name)
		}
		for _, w := range []fixed.Width{fixed.W16, fixed.W8} {
			t.Run(name+"_"+w.String(), func(t *testing.T) {
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
					if got, want := len(ts), length(v, w); got != want {
						t.Fatalf("len(Terms(%d, %s)) = %d, want %d", v, w, got, want)
					}
					got := be.Terms(append(buf[:0], prefix...), v, w)
					if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], ts) {
						t.Fatalf("Terms(%v, %d, %s) = %v, want the prefix then %v", prefix, v, w, got, ts)
					}
				}
			})
		}
	}
}

// TestPaperCostSemantics pins each paper back-end's per-value cost, the
// length of its term stream, to cycle counts worked out by hand from the
// paper's Section 5.2, independently of the bits primitives that
// TestTermsContract takes as its oracle: bit-parallel takes one cycle for
// every value; TCLp streams the magnitude's trimmed precision window plus
// a sign cycle for a negative value; TCLe streams one Booth oneffset per
// cycle (0x8F = +2^7 +2^4 -2^0).
func TestPaperCostSemantics(t *testing.T) {
	bp, p, e := MustLookup("bit-parallel"), MustLookup("TCLp"), MustLookup("TCLe")
	cases := []struct {
		v          int32
		tclp, tcle int
	}{
		{0, 0, 0},
		{1, 1, 1},
		{-1, 2, 1},
		{0x8f, 8, 3},
		{-0x8f, 9, 3},
		{255, 8, 2},   // +2^8 -2^0
		{256, 1, 1},   // one bit, one oneffset
		{-4096, 2, 1}, // one magnitude bit and the sign cycle
		{0x8e, 7, 3},  // trailing zero trimmed: bits 1..7
		{-0x70, 4, 2}, // +2^7 -2^4, magnitude bits 4..6 and the sign cycle
	}
	cost := func(be Backend, v int32) int { return len(be.Terms(nil, v, fixed.W16)) }
	for _, c := range cases {
		if got := cost(bp, c.v); got != 1 {
			t.Errorf("bit-parallel cost of %d = %d, want 1", c.v, got)
		}
		if got := cost(p, c.v); got != c.tclp {
			t.Errorf("TCLp cost of %d = %d, want %d", c.v, got, c.tclp)
		}
		if got := cost(e, c.v); got != c.tcle {
			t.Errorf("TCLe cost of %d = %d, want %d", c.v, got, c.tcle)
		}
	}
}

func TestTraits(t *testing.T) {
	cases := []struct {
		name          string
		serial, offen bool
	}{
		{"bit-parallel", false, false},
		{"TCLp", true, false},
		{"TCLe", true, true},
	}
	for _, c := range cases {
		be := MustLookup(c.name)
		if be.Serial() != c.serial || be.OffsetEncoder() != c.offen {
			t.Errorf("%s: Serial=%v OffsetEncoder=%v, want %v/%v",
				c.name, be.Serial(), be.OffsetEncoder(), c.serial, c.offen)
		}
	}
}
