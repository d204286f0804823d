package fixed

import "testing"

func TestWidthBounds(t *testing.T) {
	if got := W16.MaxInt(); got != 32767 {
		t.Errorf("W16.MaxInt() = %d, want 32767", got)
	}
	if got := W16.MinInt(); got != -32767 {
		t.Errorf("W16.MinInt() = %d, want -32767 (symmetric)", got)
	}
	if got := W8.MaxInt(); got != 127 {
		t.Errorf("W8.MaxInt() = %d, want 127", got)
	}
	if got := W8.Mask(); got != 0xFF {
		t.Errorf("W8.Mask() = %#x, want 0xff", got)
	}
	if !W16.Valid() || !W8.Valid() || Width(13).Valid() {
		t.Error("Valid() misclassifies widths")
	}
}

func TestWidthString(t *testing.T) {
	if W16.String() != "16b" || W8.String() != "8b" {
		t.Errorf("String() = %q, %q", W16.String(), W8.String())
	}
}

func TestSat(t *testing.T) {
	if Sat(1<<40, W16) != 32767 {
		t.Error("Sat should clamp high")
	}
	if Sat(-(1<<40), W16) != -32767 {
		t.Error("Sat should clamp low")
	}
	if Sat(123, W16) != 123 {
		t.Error("Sat should pass through in-range values")
	}
}

func TestRequantizeProduct(t *testing.T) {
	// 300 >> 4 with RNE: 300/16 = 18.75 -> 19
	if got := RequantizeProduct(300, 4, W16); got != 19 {
		t.Errorf("RequantizeProduct(300,4) = %d, want 19", got)
	}
	// Half-to-even: 24/16 = 1.5 -> 2; 40/16 = 2.5 -> 2
	if got := RequantizeProduct(24, 4, W16); got != 2 {
		t.Errorf("RequantizeProduct(24,4) = %d, want 2", got)
	}
	if got := RequantizeProduct(40, 4, W16); got != 2 {
		t.Errorf("RequantizeProduct(40,4) = %d, want 2 (half to even)", got)
	}
	// Negative frac shifts left.
	if got := RequantizeProduct(3, -2, W16); got != 12 {
		t.Errorf("RequantizeProduct(3,-2) = %d, want 12", got)
	}
}

func TestSignExtend(t *testing.T) {
	for _, tc := range []struct {
		code uint32
		w    Width
		want int32
	}{
		{0, W8, 0},
		{1, W8, 1},
		{0x7F, W8, 127},
		{0x80, W8, -128},
		{0xFF, W8, -1},
		{0xAB, W8, -85},
		{0x1FF, W8, -1}, // bits above the width are ignored
		{0, W16, 0},
		{0x7FFF, W16, 32767},
		{0x8000, W16, -32768},
		{0xFFFF, W16, -1},
		{0x12345678, W16, 0x5678},
	} {
		if got := SignExtend(tc.code, tc.w); got != tc.want {
			t.Errorf("SignExtend(%#x, %s) = %d, want %d", tc.code, tc.w, got, tc.want)
		}
	}
}

func TestSignExtendRoundTrips(t *testing.T) {
	// Every representable value survives a mask-then-extend round trip at
	// both widths — the property the simulator's cost tables rely on when
	// they index by masked code.
	for _, w := range []Width{W8, W16} {
		for v := w.MinInt(); v <= w.MaxInt(); v++ {
			if got := SignExtend(uint32(v)&w.Mask(), w); got != v {
				t.Fatalf("width %s: round trip of %d gave %d", w, v, got)
			}
		}
	}
}
