package wsformat

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bittactical/internal/fixed"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
)

func mkSchedule(t *testing.T, seed int64, steps int, sp float64, p sched.Pattern) (sched.Filter, *sched.Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := sparsity.RandomSparseFilter(rng, steps, 16, sp)
	for i := range w {
		if rng.Intn(2) == 0 {
			w[i] = -w[i]
		}
	}
	f := sched.NewFilter(16, steps, w, nil)
	s := sched.ScheduleFilter(f, p, sched.Algorithm1)
	if err := sched.Verify(f, p, s); err != nil {
		t.Fatal(err)
	}
	return f, s
}

func TestRoundTripBasic(t *testing.T) {
	for _, p := range []sched.Pattern{sched.T(2, 5), sched.L(1, 6), sched.L(4, 3)} {
		_, s := mkSchedule(t, 1, 24, 0.7, p)
		if err := RoundTrip(p, s, fixed.W16); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestRoundTripDecodedScheduleVerifies(t *testing.T) {
	// The decoded schedule must pass the same hardware-invariant checks the
	// original did — the decoder output is what the WSU actually executes.
	p := sched.T(2, 5)
	f, s := mkSchedule(t, 2, 30, 0.8, p)
	buf, err := Encode(p, s, fixed.W16)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Decode(buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Verify(f, p, img.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	p := sched.T(2, 5)
	f := func(seed int64, spRaw, stepsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := 4 + int(stepsRaw%30)
		sp := float64(spRaw%10) / 10
		w := sparsity.RandomSparseFilter(rng, steps, 16, sp)
		flt := sched.NewFilter(16, steps, w, nil)
		s := sched.ScheduleFilter(flt, p, sched.Algorithm1)
		return RoundTrip(p, s, fixed.W16) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundTrip8Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := make([]int32, 10*16)
	for i := range w {
		if rng.Intn(3) != 0 {
			w[i] = int32(rng.Intn(255) - 127)
		}
	}
	f := sched.NewFilter(16, 10, w, nil)
	p := sched.T(2, 5)
	s := sched.ScheduleFilter(f, p, sched.Algorithm1)
	if err := RoundTrip(p, s, fixed.W8); err != nil {
		t.Fatal(err)
	}
}

func TestLongALCSkipEscapes(t *testing.T) {
	// A filter whose only weights sit at step 0 and at the far end forces a
	// long window skip; the 16-bit ALC escape must carry it.
	steps := 600
	w := make([]int32, steps*16)
	w[0] = 7
	w[(steps-1)*16+3] = -9
	f := sched.NewFilter(16, steps, w, nil)
	p := sched.T(2, 5)
	s := sched.ScheduleFilter(f, p, sched.Algorithm1)
	if err := sched.Verify(f, p, s); err != nil {
		t.Fatal(err)
	}
	if err := RoundTrip(p, s, fixed.W16); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsX(t *testing.T) {
	_, s := mkSchedule(t, 4, 8, 0.5, sched.T(2, 5))
	if _, err := Encode(sched.X(), s, fixed.W16); err == nil {
		t.Error("X<inf,15> must be rejected")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := sched.T(2, 5)
	_, s := mkSchedule(t, 5, 12, 0.6, p)
	buf, _ := Encode(p, s, fixed.W16)
	if _, err := Decode(buf[:8], p); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte{}, buf...)
	bad[0] = 'X'
	if _, err := Decode(bad, p); err == nil {
		t.Error("bad magic accepted")
	}
	other := sched.L(4, 3)
	if _, err := Decode(buf, other); err == nil {
		t.Error("pattern mismatch accepted")
	}
	short := append([]byte{}, buf[:len(buf)-2]...)
	if _, err := Decode(short, p); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestHeaderBounds(t *testing.T) {
	p := sched.T(2, 5)
	wide := make([]int32, 256*4)
	for i := range wide {
		wide[i] = int32(i%7 - 3)
	}
	wideSched := sched.ScheduleFilter(sched.NewFilter(256, 4, wide, nil), p, sched.Algorithm1)
	deep := sched.Pattern{Name: "deep", H: 300, Offsets: []sched.Offset{{Dt: 1}}}
	_, deepSched := mkSchedule(t, 7, 8, 0.5, deep)
	// T8<2,5>'s offsets first, then unused ones up to a 256-input mux.
	wideMux := sched.T(2, 5)
	for len(wideMux.Offsets) < 255 {
		wideMux.Offsets = append(wideMux.Offsets, sched.Offset{Dt: 1, Dl: len(wideMux.Offsets)})
	}
	_, tSched := mkSchedule(t, 7, 8, 0.5, p)
	for _, tc := range []struct {
		name string
		p    sched.Pattern
		s    *sched.Schedule
	}{{"256 lanes", p, wideSched}, {"lookahead 300", deep, deepSched}, {"256 mux inputs", wideMux, tSched}} {
		if _, err := Encode(tc.p, tc.s, fixed.W16); err == nil || !strings.Contains(err.Error(), "header") {
			t.Errorf("%s: Encode = %v, want the header-byte error", tc.name, err)
		}
	}

	_, s := mkSchedule(t, 8, 12, 0.6, p)
	buf, err := Encode(p, s, fixed.W16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		patch func(b []byte)
		want  string
	}{
		{"0 lanes", func(b []byte) { b[5] = 0 }, "0 lanes"},
		{"steps × lanes past 2^31", func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1<<28) }, "2^31"},
		{"initial head past the dense steps", func(b []byte) { binary.LittleEndian.PutUint32(b[17:21], 12) }, "outside"},
		{"dense steps below the schedule", func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1) }, "outside"},
	} {
		bad := append([]byte{}, buf...)
		tc.patch(bad)
		if _, err := Decode(bad, p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestSizeBitsMatchesEncoding(t *testing.T) {
	p := sched.T(2, 5)
	_, s := mkSchedule(t, 6, 40, 0.75, p)
	buf, err := Encode(p, s, fixed.W16)
	if err != nil {
		t.Fatal(err)
	}
	want := SizeBits(p, s, fixed.W16)
	// Encoded length is the bit size rounded up to bytes.
	if got := int64(len(buf)) * 8; got < want || got >= want+8+21*8 {
		t.Errorf("encoded %d bits, accounting says %d", got, want)
	}
}

func TestSignExtend(t *testing.T) {
	if signExtend(0xFFFF, fixed.W16) != -1 {
		t.Error("16b sign extension broken")
	}
	if signExtend(0x7FFF, fixed.W16) != 32767 {
		t.Error("positive 16b value broken")
	}
	if signExtend(0xFF, fixed.W8) != -1 {
		t.Error("8b sign extension broken")
	}
}
