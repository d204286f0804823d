package sim

import (
	"math/rand"
	"testing"
)

func TestColumnMaxEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(cost []uint8) (nSync int)
		want int
	}{
		{"empty mask floors at 1", func(cost []uint8) int {
			for i := range cost {
				cost[i] = maxLaneCost
			}
			return 0
		}, 1},
		{"all zero costs floor at 1", func(cost []uint8) int { return 16 }, 1},
		{"max cost survives", func(cost []uint8) int {
			cost[15] = maxLaneCost
			return 16
		}, maxLaneCost},
		{"masked-out max is ignored", func(cost []uint8) int {
			cost[12] = maxLaneCost
			cost[9] = 5
			return 12
		}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cost := make([]uint8, 16)
			nSync := tc.set(cost)
			if got := columnMaxScalar(cost, nSync); got != tc.want {
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

// TestCensusKernels checks the census tail's SWAR helpers against scalar
// loops at and below their bounds: bytes up to maxLaneCost, counts up to
// laneChunk, and 16-bit fields up to a full chunk's cost sums.
func TestCensusKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(max int) (w uint64, b [8]int) {
		for j := range b {
			b[j] = rng.Intn(max + 1)
			if rng.Intn(4) == 0 {
				b[j] = max
			}
			w |= uint64(b[j]) << (8 * j)
		}
		return w, b
	}
	for i := 0; i < 10000; i++ {
		p, pb := word(maxLaneCost)
		n, nb := word(laneChunk)
		var wantDot, wantSum int64
		var wantAtLeast uint64
		for j := range pb {
			wantDot += int64(pb[j] * nb[j])
			wantSum += int64(pb[j])
			wantAtLeast |= uint64(max(pb[j], 1)) << (8 * j)
		}
		if got := dot(p, n); got != wantDot {
			t.Fatalf("dot(%#x, %#x) = %d, want %d", p, n, got, wantDot)
		}
		if got := byteSum(p); got != wantSum {
			t.Fatalf("byteSum(%#x) = %d, want %d", p, got, wantSum)
		}
		if got := atLeastOne(p); got != wantAtLeast {
			t.Fatalf("atLeastOne(%#x) = %#x, want %#x", p, got, wantAtLeast)
		}
		var s uint64
		var wantFields int64
		for f := 0; f < 4; f++ {
			v := rng.Intn(2*maxLaneCost*laneChunk + 1)
			if rng.Intn(4) == 0 {
				v = 2 * maxLaneCost * laneChunk
			}
			s |= uint64(v) << (16 * f)
			wantFields += int64(v)
		}
		if got := fieldSum(s); got != wantFields {
			t.Fatalf("fieldSum(%#x) = %d, want %d", s, got, wantFields)
		}
	}
}
