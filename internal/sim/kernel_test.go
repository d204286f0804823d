package sim

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bittactical/internal/sched"
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

// TestFoldBlockMatchesWords holds the SWAR fold of one 32-window block to
// a scalar reference: per-window max, nonzero counts and the cost sum, at
// 0, 1, 2, 16, 127 and 128 lanes, with costs drawn from {0, 1, 127} and
// planes of all 0, all 1 and all 127, under valid masks of 1 to 32
// windows. foldSync and foldCount over the block's four lane-words must
// match the reference. Every lane list holds the plane's last slot, and 45
// windows is not a multiple of 32, so the block at window 32 reads the
// plane's spare bytes.
func TestFoldBlockMatchesWords(t *testing.T) {
	const windows, slots = 45, 200
	rng := rand.New(rand.NewSource(1))
	plane := make([]uint8, slots*windows+blockWindows)
	for _, fill := range costFills(rng) {
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
					var valid, refMx, refNz, mx, nz, count blockMask
					var refSum, sum int64
					for w := 0; w < v; w++ {
						valid[w/8] |= 0xff << (8 * (w % 8))
						var m, z uint64
						for _, off := range lanes {
							c := uint64(plane[off+at+w])
							m = max(m, c)
							z += min(c, 1)
							refSum += int64(c)
						}
						refMx[w/8] |= m << (8 * (w % 8))
						refNz[w/8] |= z << (8 * (w % 8))
					}
					for k := range valid {
						var s uint64
						mx[k], nz[k], s = foldSync(plane[at+8*k:], lanes, valid[k])
						sum += fieldSum(s)
						count[k] = foldCount(plane[at+8*k:], lanes, valid[k])
					}
					if mx != refMx || nz != refNz || sum != refSum || count != refNz {
						t.Fatalf("%s costs, %d lanes, block at %d, %d valid windows: max %x nz %x sum %d count %x, want %x %x %d",
							fill.name, n, at, v, mx, nz, sum, count, refMx, refNz, refSum)
					}
				}
			}
		}
	}
}

// costFills are the plane fills the fold and kernel tests draw costs
// from: each of 0, 1 and maxLaneCost at random, and each alone.
func costFills(rng *rand.Rand) []struct {
	name string
	cost func() uint8
} {
	return []struct {
		name string
		cost func() uint8
	}{
		{"mixed", func() uint8 { return []uint8{0, 1, maxLaneCost}[rng.Intn(3)] }},
		{"zero", func() uint8 { return 0 }},
		{"one", func() uint8 { return 1 }},
		{"max", func() uint8 { return maxLaneCost }},
	}
}

// TestColumnAVX2 holds one columnAVX2 call, one (column, row), to a
// scalar reference over the column's lanes: the effectual and idle cost
// sums, Σ peMax, Σ peMax·nzE, Σ peMax·nzI, the effectual count and the
// peMax each window adds to the row's window sums (which start nonzero,
// and past the last window must not change). It runs at 0, 1, 2, 16, 127
// and 128 lanes, gated and ungated, with no, some and every lane
// effectual, costs from {0, 1, 127} (so at 128 lanes a count reaches 128,
// the edge of VPMADDUBSW's unsigned operand), at 1 to 45 windows, and
// with one lane on the plane's last slot. A column with a slot at or past
// the layer's slots, or a negative one, must return nEff = -1 with every
// window sum untouched.
func TestColumnAVX2(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU has no AVX2")
	}
	const slots = 200
	rng := rand.New(rand.NewSource(1))
	for windows := 1; windows <= 45; windows++ {
		span := blockWindows * ((windows + blockWindows - 1) / blockWindows)
		var last blockMask
		for w := 0; w < windows-(span-blockWindows); w++ {
			last[w/8] |= 0xff << (8 * (w % 8))
		}
		plane := make([]uint8, slots*windows+blockWindows)
		for _, fill := range costFills(rng) {
			for i := range plane[:slots*windows] {
				plane[i] = fill.cost()
			}
			for _, lanes := range []int{0, 1, 2, 16, 127, 128} {
				for _, density := range []int{0, 1, 2} { // no, some, every lane effectual
					for _, gate := range []bool{true, false} {
						entries := make([]sched.Entry, lanes)
						headSlot := rng.Intn(slots-lanes+1) / max(lanes, 1) * max(lanes, 1)
						for ln := range entries {
							if density == 2 || density == 1 && rng.Intn(2) == 0 {
								entries[ln] = sched.Entry{Weight: int32(1 + rng.Intn(100)), Src: int32(rng.Intn(slots))}
							}
						}
						if lanes > 0 {
							// One lane on the plane's last slot: an effectual one
							// through Src, or the last lane idle at the last head.
							if ln := rng.Intn(lanes); entries[ln].Weight != 0 {
								entries[ln].Src = slots - 1
							} else if entries[lanes-1].Weight == 0 {
								headSlot = slots - lanes
							}
						}
						name := fmt.Sprintf("%d windows, %s costs, %d lanes, density %d, gate %v", windows, fill.name, lanes, density, gate)
						checkColumnAVX2(t, rng, name, entries, headSlot, slots, windows, plane, &last, gate)
					}
				}
			}
		}
	}
	// A slot at the layer's end or below 0 fails before the walk.
	entries := []sched.Entry{{Weight: 1, Src: 3}, {}, {Weight: 2, Src: slots}, {}}
	for _, src := range []int32{slots, -1} {
		entries[2].Src = src
		sums := make([]uint64, 8)
		for i := range sums {
			sums[i] = uint64(i + 1)
		}
		costE, costI, maxSum, dotE, dotI, nEff := columnAVX2(entries, 0, slots, 9, make([]uint8, slots*9+blockWindows), sums, &blockMask{^uint64(0), 0xff}, make([]int, len(entries)), true)
		if nEff != -1 || costE != 0 || costI != 0 || maxSum != 0 || dotE != 0 || dotI != 0 {
			t.Fatalf("Src %d: columnAVX2 = %d %d %d %d %d nEff %d, want zeros and -1", src, costE, costI, maxSum, dotE, dotI, nEff)
		}
		for i, s := range sums {
			if s != uint64(i+1) {
				t.Fatalf("Src %d: window sum word %d = %#x after a failed column", src, i, s)
			}
		}
	}
}

// checkColumnAVX2 runs one columnAVX2 call against a scalar walk of the
// column's lanes.
func checkColumnAVX2(t *testing.T, rng *rand.Rand, name string, entries []sched.Entry, headSlot, slots, windows int, plane []uint8, last *blockMask, gate bool) {
	t.Helper()
	span := blockWindows * ((windows + blockWindows - 1) / blockWindows)
	sums := make([]uint64, span/4)
	for i := range sums {
		sums[i] = rng.Uint64() & 0x0fff0fff0fff0fff
	}
	want := slices.Clone(sums)
	var wantE, wantI, wantMax, wantDotE, wantDotI int64
	wantEff := 0
	for _, e := range entries {
		if e.Weight != 0 {
			wantEff++
		}
	}
	for w := 0; w < windows; w++ {
		peMax, nzE, nzI := 1, 0, 0
		for ln, e := range entries {
			slot := headSlot + ln
			if e.Weight != 0 {
				slot = int(e.Src)
			}
			c := int(plane[slot*windows+w])
			if e.Weight != 0 || !gate {
				peMax = max(peMax, c)
			}
			switch {
			case e.Weight != 0:
				wantE += int64(c)
				nzE += min(c, 1)
			case !gate:
				wantI += int64(c)
				nzI += min(c, 1)
			default:
				nzI += min(c, 1)
			}
		}
		wantMax += int64(peMax)
		wantDotE += int64(peMax * nzE)
		wantDotI += int64(peMax * nzI)
		want[w>>3<<1|w&1] += uint64(peMax) << (w & 6 * 8)
	}
	costE, costI, maxSum, dotE, dotI, nEff := columnAVX2(entries, headSlot, slots, windows, plane, sums, last, make([]int, len(entries)), gate)
	if costE != wantE || costI != wantI || maxSum != wantMax || dotE != wantDotE || dotI != wantDotI || nEff != wantEff {
		t.Fatalf("%s: columnAVX2 = costE %d costI %d maxSum %d dotE %d dotI %d nEff %d, want %d %d %d %d %d %d",
			name, costE, costI, maxSum, dotE, dotI, nEff, wantE, wantI, wantMax, wantDotE, wantDotI, wantEff)
	}
	if !slices.Equal(sums, want) {
		t.Fatalf("%s: window sums %x, want %x", name, sums, want)
	}
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
