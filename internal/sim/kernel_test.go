package sim

import (
	"math/rand"
	"testing"
)

// randColumn generates one (cost, mask) pair respecting the kernel
// invariants: costs <= maxLaneCost in a padLanes-sized buffer with zero
// padding, mask bytes exactly 0x00 or 0xFF with zero padding.
func randColumn(rng *rand.Rand, lanes int) ([]uint8, []uint64) {
	cost := make([]uint8, padLanes(lanes))
	mask := make([]uint64, laneWords(lanes))
	for ln := 0; ln < lanes; ln++ {
		cost[ln] = uint8(rng.Intn(maxLaneCost + 1))
		if rng.Intn(2) == 0 {
			mask[ln>>3] |= 0xff << (8 * uint(ln&7))
		}
	}
	return cost, mask
}

func TestColumnMaxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Lane counts straddling the word size, including non-multiples of 8
	// (the padding path) and the 16-lane Table-2 geometry.
	for _, lanes := range []int{1, 2, 7, 8, 9, 15, 16, 17, 24, 33, 64} {
		for trial := 0; trial < 2000; trial++ {
			cost, mask := randColumn(rng, lanes)
			got, want := columnMax(cost, mask), columnMaxScalar(cost, mask)
			if got != want {
				t.Fatalf("lanes=%d trial=%d: columnMax=%d, scalar=%d (cost=%v mask=%x)",
					lanes, trial, got, want, cost, mask)
			}
		}
	}
}

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
			cost := make([]uint8, padLanes(16))
			mask := make([]uint64, laneWords(16))
			tc.set(cost, mask)
			if got := columnMax(cost, mask); got != tc.want {
				t.Fatalf("columnMax=%d, want %d", got, tc.want)
			}
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
		for ln := 0; ln < padLanes(lanes); ln++ {
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

// FuzzColumnMaxSWAR pins the SWAR kernel bit-identical to the scalar
// reference over arbitrary lane counts, costs, and participation sets.
func FuzzColumnMaxSWAR(f *testing.F) {
	f.Add(uint8(16), []byte{3, 0, 127, 9}, []byte{0b1011})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Add(uint8(33), []byte{255, 128, 127, 1, 0}, []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, nLanes uint8, costBytes, maskBits []byte) {
		lanes := int(nLanes)%64 + 1
		cost := make([]uint8, padLanes(lanes))
		mask := make([]uint64, laneWords(lanes))
		for ln := 0; ln < lanes; ln++ {
			if ln < len(costBytes) {
				// Clamp into the kernel's documented 7-bit domain.
				cost[ln] = costBytes[ln] & maxLaneCost
			}
			if ln < 8*len(maskBits) && maskBits[ln>>3]>>(uint(ln)&7)&1 != 0 {
				mask[ln>>3] |= 0xff << (8 * uint(ln&7))
			}
		}
		if got, want := columnMax(cost, mask), columnMaxScalar(cost, mask); got != want {
			t.Fatalf("lanes=%d: columnMax=%d, scalar=%d (cost=%v mask=%x)", lanes, got, want, cost, mask)
		}
	})
}

// benchColumns is the kernel benchmark workload: 256 distinct (cost, mask)
// pairs at the Table-2 lane count, cycled per op so the scalar loop's
// data-dependent branch cannot settle into a predicted pattern.
func benchColumns(lanes int) ([][]uint8, [][]uint64) {
	rng := rand.New(rand.NewSource(7))
	const n = 256
	costs := make([][]uint8, n)
	masks := make([][]uint64, n)
	for i := range costs {
		costs[i], masks[i] = randColumn(rng, lanes)
	}
	return costs, masks
}

func BenchmarkColumnMaxSWAR(b *testing.B) {
	costs, masks := benchColumns(16)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		j := i & 255
		sink += columnMax(costs[j], masks[j])
	}
	benchSink = sink
}

func BenchmarkColumnMaxScalar(b *testing.B) {
	costs, masks := benchColumns(16)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		j := i & 255
		sink += columnMaxScalar(costs[j], masks[j])
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the benchmark loops.
var benchSink int
