package sim

import "testing"

func TestColumnMaxEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(cost []uint8, mask []uint64)
		want int
	}{
		{"empty mask floors at 1", func(cost []uint8, mask []uint64) {
			for i := range cost {
				cost[i] = maxLaneCost
			}
		}, 1},
		{"all zero costs floor at 1", func(cost []uint8, mask []uint64) {
			copy(mask, fullLaneMask(16))
		}, 1},
		{"max cost survives", func(cost []uint8, mask []uint64) {
			copy(mask, fullLaneMask(16))
			cost[15] = maxLaneCost
		}, maxLaneCost},
		{"masked-out max is ignored", func(cost []uint8, mask []uint64) {
			copy(mask, fullLaneMask(16))
			cost[3] = maxLaneCost
			mask[0] &^= 0xff << (8 * 3)
			cost[9] = 5
		}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cost := make([]uint8, 16)
			mask := make([]uint64, laneWords(16))
			tc.set(cost, mask)
			if got := columnMaxScalar(cost, mask); got != tc.want {
				t.Fatalf("columnMaxScalar=%d, want %d", got, tc.want)
			}
		})
	}
}

func TestByteMax(t *testing.T) {
	// Exhaustive over all 7-bit byte pairs, in every byte position at once:
	// lane 0..7 carry (a, b), (a+1, b+1), ... so each position exercises a
	// different pair in the same word.
	for a := 0; a <= maxLaneCost; a++ {
		for b := 0; b <= maxLaneCost; b++ {
			var wa, wb, want uint64
			for i := 0; i < 8; i++ {
				ba := uint64((a + i) % (maxLaneCost + 1))
				bb := uint64((b + 7 - i) % (maxLaneCost + 1))
				wa |= ba << (8 * i)
				wb |= bb << (8 * i)
				m := ba
				if bb > ba {
					m = bb
				}
				want |= m << (8 * i)
			}
			if got := byteMax(wa, wb); got != want {
				t.Fatalf("byteMax(%#x, %#x) = %#x, want %#x", wa, wb, got, want)
			}
		}
	}
}

// fullLaneMask returns the participation mask with the first `lanes` lanes
// set — the mask every PE row shares when the config has no front-end
// (nothing gates ineffectual lanes out of the column sync).
func fullLaneMask(lanes int) []uint64 {
	mask := make([]uint64, laneWords(lanes))
	for ln := 0; ln < lanes; ln++ {
		mask[ln>>3] |= 0xff << (8 * uint(ln&7))
	}
	return mask
}

func TestFullLaneMask(t *testing.T) {
	for _, lanes := range []int{1, 7, 8, 9, 16, 20} {
		mask := fullLaneMask(lanes)
		if len(mask) != laneWords(lanes) {
			t.Fatalf("lanes=%d: %d words, want %d", lanes, len(mask), laneWords(lanes))
		}
		for ln := 0; ln < 8*len(mask); ln++ {
			b := mask[ln>>3] >> (8 * uint(ln&7)) & 0xff
			want := uint64(0)
			if ln < lanes {
				want = 0xff
			}
			if b != want {
				t.Fatalf("lanes=%d lane=%d: byte %#x, want %#x", lanes, ln, b, want)
			}
		}
	}
}
