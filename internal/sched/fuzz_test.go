package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzScheduleInvariants drives the three schedulers with arbitrary weight
// matrices and checks every hardware invariant plus the compaction bounds.
// Run with `go test -fuzz FuzzScheduleInvariants ./internal/sched` to
// explore beyond the seed corpus; the seeds run as regular tests.
func FuzzScheduleInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3, 0, 4}, uint8(4), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, lanesRaw, pIdx uint8) {
		lanes := 2 + int(lanesRaw%15) // 2..16
		if len(raw) == 0 {
			return
		}
		steps := (len(raw) + lanes - 1) / lanes
		if steps > 64 {
			steps = 64
		}
		w := make([]int32, steps*lanes)
		for i := range w {
			if i < len(raw) {
				w[i] = int32(int8(raw[i])) // signed, zeros possible
			}
		}
		flt := NewFilter(lanes, steps, w, nil)
		patterns := []Pattern{L(1, 2), L(2, 5), T(2, 5), T(1, 6)}
		p := patterns[int(pIdx)%len(patterns)]
		for _, alg := range []Algorithm{Algorithm1, GreedySimple, Matching} {
			s := ScheduleFilter(flt, p, alg)
			if err := Verify(flt, p, s); err != nil {
				t.Fatalf("alg %v pattern %s: %v", alg, p.Name, err)
			}
			if lower := (flt.NNZ() + lanes - 1) / lanes; s.Len() < lower {
				t.Fatalf("schedule %d columns beats perfect compaction %d", s.Len(), lower)
			}
			if flt.NNZ() > 0 && s.Len() > steps {
				t.Fatalf("schedule %d columns exceeds dense %d", s.Len(), steps)
			}
		}
	})
}

// diffPatterns is the pattern family the differential suites sweep: L and T
// shapes across the Table-2 design space plus the X upper bound.
func diffPatterns() []Pattern {
	return []Pattern{L(1, 2), L(2, 5), L(6, 1), T(2, 5), T(1, 6), T(3, 4), X()}
}

// assertKernelMatchesReference schedules the group through both the
// optimized bitset kernel and the reference scheduler and fails on any
// divergence — same column counts, heads, advances, entries, promotions.
func assertKernelMatchesReference(t *testing.T, sc *Scheduler, filters []Filter, p Pattern, alg Algorithm) {
	t.Helper()
	want := ScheduleGroupReference(filters, p, alg)
	got := sc.ScheduleGroup(filters, p, alg)
	if len(got) != len(want) {
		t.Fatalf("pattern %s alg %v: kernel returned %d schedules, reference %d",
			p.Name, alg, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("pattern %s alg %v filter %d: kernel schedule diverges from reference\nkernel:    %+v\nreference: %+v",
				p.Name, alg, i, *got[i], *want[i])
		}
	}
	// The pooled package entry point must agree too (fresh-copy path).
	fresh := ScheduleGroup(filters, p, alg)
	for i := range want {
		if !reflect.DeepEqual(*fresh[i], *want[i]) {
			t.Fatalf("pattern %s alg %v filter %d: pooled schedule diverges from reference",
				p.Name, alg, i)
		}
	}
}

// FuzzKernelMatchesReference differentially fuzzes the optimized kernel
// against the reference scheduler: random weight matrices and group sizes,
// L/T/X patterns, all three algorithms, asserting bit-identical schedules.
// The reference is the executable specification; any divergence is a kernel
// bug. Run with `go test -fuzz FuzzKernelMatchesReference ./internal/sched`.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3, 0, 4}, uint8(4), uint8(0), uint8(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 9, 3, 3, 0, 1}, uint8(3), uint8(3), uint8(2))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255}, uint8(2), uint8(6), uint8(3))
	patterns := diffPatterns()
	f.Fuzz(func(t *testing.T, raw []byte, lanesRaw, pIdx, nfRaw uint8) {
		lanes := 2 + int(lanesRaw%15) // 2..16
		nf := 1 + int(nfRaw%4)        // 1..4 filters per group
		per := len(raw) / nf
		if per == 0 {
			return
		}
		steps := (per + lanes - 1) / lanes
		if steps > 48 {
			steps = 48
		}
		filters := make([]Filter, nf)
		for fi := range filters {
			w := make([]int32, steps*lanes)
			for i := range w {
				if k := fi*per + i; k < len(raw) && i < per {
					w[i] = int32(int8(raw[k]))
				}
			}
			filters[fi] = NewFilter(lanes, steps, w, nil)
		}
		p := patterns[int(pIdx)%len(patterns)]
		sc := NewScheduler()
		for _, alg := range []Algorithm{Algorithm1, GreedySimple, Matching} {
			assertKernelMatchesReference(t, sc, filters, p, alg)
		}
	})
}

// TestKernelMatchesReferenceSustained is the always-on differential run: a
// few thousand random (filter group, pattern, algorithm) triples across the
// sparsity range, reusing one Scheduler throughout so scratch-state leakage
// between groups would be caught as a divergence.
func TestKernelMatchesReferenceSustained(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	patterns := diffPatterns()
	sc := NewScheduler()
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		lanes := 2 + rng.Intn(15)
		steps := 1 + rng.Intn(24)
		nf := 1 + rng.Intn(4)
		sparsity := rng.Float64()
		filters := make([]Filter, nf)
		for fi := range filters {
			w := make([]int32, steps*lanes)
			for i := range w {
				if rng.Float64() >= sparsity {
					w[i] = int32(rng.Intn(255)) - 127
				}
			}
			filters[fi] = NewFilter(lanes, steps, w, nil)
		}
		p := patterns[rng.Intn(len(patterns))]
		for _, alg := range []Algorithm{Algorithm1, GreedySimple, Matching} {
			assertKernelMatchesReference(t, sc, filters, p, alg)
		}
	}
}

// FuzzGroupScheduleLockstep checks the joint-group invariants: identical
// column counts, heads and advances across members, and per-member
// verification.
func FuzzGroupScheduleLockstep(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 0, 0, 3, 1}, []byte{0, 0, 0, 1, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		const lanes = 4
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return
		}
		steps := (n + lanes - 1) / lanes
		if steps > 32 {
			steps = 32
		}
		mk := func(raw []byte) Filter {
			w := make([]int32, steps*lanes)
			for i := range w {
				if i < len(raw) {
					w[i] = int32(int8(raw[i]))
				}
			}
			return NewFilter(lanes, steps, w, nil)
		}
		fa, fb := mk(rawA), mk(rawB)
		ss := ScheduleGroup([]Filter{fa, fb}, T(2, 5), Algorithm1)
		if ss[0].Len() != ss[1].Len() {
			t.Fatal("group schedules diverge in length")
		}
		for i := range ss[0].Columns {
			if ss[0].Columns[i].Head != ss[1].Columns[i].Head ||
				ss[0].Columns[i].Advance != ss[1].Columns[i].Advance {
				t.Fatal("group schedules diverge in window state")
			}
		}
		if err := Verify(fa, T(2, 5), ss[0]); err != nil {
			t.Fatal(err)
		}
		if err := Verify(fb, T(2, 5), ss[1]); err != nil {
			t.Fatal(err)
		}
	})
}
