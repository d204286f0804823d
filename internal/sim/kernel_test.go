package sim

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
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

// TestFoldBlockMatchesWords holds the folds of one 32-window block to a
// scalar reference: per-window max, nonzero counts and the cost sum, at 0,
// 1, 2, 16, 127 and 128 lanes, with costs drawn from {0, 1, 127} and
// planes of all 0, all 1 and all 127, under valid masks of 1 to 32
// windows. The SWAR fold, foldSync and foldCount over the block's four
// lane-words, must match the reference, and foldAVX2 must match them.
// Every lane list holds the plane's last slot, and 45 windows is not a
// multiple of 32, so the block at window 32 reads the plane's spare bytes.
func TestFoldBlockMatchesWords(t *testing.T) {
	eachFold(t, func(t *testing.T, avx2 bool) {
		const windows, slots = 45, 200
		rng := rand.New(rand.NewSource(1))
		plane := make([]uint8, slots*windows+blockWindows)
		fills := []struct {
			name string
			cost func() uint8
		}{
			{"mixed", func() uint8 { return []uint8{0, 1, maxLaneCost}[rng.Intn(3)] }},
			{"zero", func() uint8 { return 0 }},
			{"one", func() uint8 { return 1 }},
			{"max", func() uint8 { return maxLaneCost }},
		}
		for _, fill := range fills {
			for i := range plane[:slots*windows] {
				plane[i] = fill.cost()
			}
			for _, n := range []int{0, 1, 2, 16, 127, 128} {
				lanes := make([]int, n)
				for i := range lanes {
					lanes[i] = rng.Intn(slots) * windows
				}
				if n > 0 {
					lanes[rng.Intn(n)] = (slots - 1) * windows
				}
				for _, at := range []int{0, blockWindows} {
					for v := 1; v <= blockWindows; v++ {
						var valid blockMask
						var ref blockFold
						for w := 0; w < v; w++ {
							valid[w/8] |= 0xff << (8 * (w % 8))
							var mx, nz uint64
							for _, off := range lanes {
								c := uint64(plane[off+at+w])
								mx = max(mx, c)
								nz += min(c, 1)
								ref.sum += int64(c)
							}
							ref.mx[w/8] |= mx << (8 * (w % 8))
							ref.nz[w/8] |= nz << (8 * (w % 8))
						}
						var words, count blockFold
						for k := range valid {
							mx, nz, sum := foldSync(plane[at+8*k:], lanes, valid[k])
							words.mx[k], words.nz[k] = mx, nz
							words.sum += fieldSum(sum)
							count.nz[k] = foldCount(plane[at+8*k:], lanes, valid[k])
						}
						if words != ref || count.nz != ref.nz {
							t.Fatalf("%s costs, %d lanes, block at %d, %d valid windows: words %+v count %x, want %+v",
								fill.name, n, at, v, words, count.nz, ref)
						}
						if avx2 {
							var got blockFold
							foldAVX2(plane[at:], lanes, &valid, &got)
							if got != words {
								t.Fatalf("%s costs, %d lanes, block at %d, %d valid windows: foldAVX2 %+v, words %+v",
									fill.name, n, at, v, got, words)
							}
						}
					}
				}
			}
		}
	})
}

// TestDetectAVX2MatchesCPUInfo checks the AVX2 detection against the
// kernel's own: on linux/amd64, hasAVX2 holds exactly when /proc/cpuinfo
// lists the avx2 flag (the kernel lists it only when it saves YMM state).
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("detection runs on amd64; /proc/cpuinfo is Linux's (%s/%s)", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if want := slices.Contains(flags, "avx2"); hasAVX2 != want {
		t.Fatalf("hasAVX2 = %v, /proc/cpuinfo avx2 flag %v", hasAVX2, want)
	}
}
