package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bittactical/internal/sparsity"
)

// figure12Filter is the worked example of the paper's Figures 1 and 2:
// 4 lanes, weights at (step, lane) positions (0,0), (0,1), (0,3), (1,1),
// (2,2), (3,3).
func figure12Filter() Filter {
	w := make([]int32, 4*4)
	for _, p := range [][2]int{{0, 0}, {0, 1}, {0, 3}, {1, 1}, {2, 2}, {3, 3}} {
		w[p[0]*4+p[1]] = int32(p[0]*4 + p[1] + 1)
	}
	return NewFilter(4, 4, w, nil)
}

func TestFigure1LookaheadOnly(t *testing.T) {
	// Figure 1: lookahead 1 alone processes the example in 3 cycles.
	f := figure12Filter()
	p := L(1, 0)
	s := ScheduleFilter(f, p, Algorithm1)
	if err := Verify(f, p, s); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("lookahead-1 schedule = %d columns, paper shows 3", s.Len())
	}
	// Cycle 1 must promote w²₂ into lane 2 and then advance two steps.
	col := s.Columns[1]
	e := col.Entries[2]
	if e.SrcStep != 2 || e.SrcLane != 2 || e.Dt != 1 {
		t.Errorf("cycle 1 lane 2 = %+v, want promotion of (2,2)", e)
	}
	if col.Advance != 2 {
		t.Errorf("cycle 1 advance = %d, want 2 (paper: window progresses two steps)", col.Advance)
	}
}

func TestFigure2Lookahead1Lookaside1(t *testing.T) {
	// Figure 2: lookahead 1 + lookaside 1 reaches the 2-cycle minimum, with
	// lane 2 stealing w¹₁ from lane 1 in cycle 0.
	f := figure12Filter()
	p := L(1, 1)
	s := ScheduleFilter(f, p, Algorithm1)
	if err := Verify(f, p, s); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("schedule = %d columns, paper shows the minimum 2", s.Len())
	}
	e := s.Columns[0].Entries[2]
	if e.SrcStep != 1 || e.SrcLane != 1 {
		t.Errorf("cycle 0 lane 2 = %+v, want steal of (1,1)", e)
	}
	if s.Columns[0].Advance != 2 {
		t.Errorf("cycle 0 advance = %d, want 2", s.Columns[0].Advance)
	}
}

func TestFigure4ExclusivePromotion(t *testing.T) {
	// Figure 4's toy: 3 lanes, weights (0,0), (1,0), (1,1); lookahead 1,
	// lookaside 1. A naive assignment can take 2 cycles; Algorithm 1's
	// exclusive-first rule reaches the optimal single cycle:
	// lane 0 keeps w⁰₀, lane 1 must take w¹₁... the exclusive slot analysis
	// routes w¹₀ and w¹₁ to the two free lanes.
	w := make([]int32, 2*3)
	w[0*3+0] = 1 // w00
	w[1*3+0] = 2 // w10
	w[1*3+1] = 3 // w11
	f := NewFilter(3, 2, w, nil)
	p := Pattern{Name: "toy", H: 1, D: 1,
		Offsets: []Offset{{Dt: 1, Dl: 0}, {Dt: 1, Dl: -1}}}
	s := ScheduleFilter(f, p, Algorithm1)
	if err := Verify(f, p, s); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Algorithm 1 schedule = %d columns, optimal is 1", s.Len())
	}
}

func TestDenseFilterMatchesDenseSchedule(t *testing.T) {
	// A fully dense filter cannot be compressed: columns == steps.
	rng := rand.New(rand.NewSource(3))
	w := sparsity.RandomSparseFilter(rng, 12, 16, 0)
	f := NewFilter(16, 12, w, nil)
	for _, p := range []Pattern{L(2, 5), T(2, 5), X()} {
		s := ScheduleFilter(f, p, Algorithm1)
		if s.Len() != 12 {
			t.Errorf("%s: dense filter took %d columns, want 12", p.Name, s.Len())
		}
		if err := Verify(f, p, s); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestAllZeroFilter(t *testing.T) {
	f := NewFilter(16, 8, make([]int32, 128), nil)
	s := ScheduleFilter(f, T(2, 5), Algorithm1)
	if s.Len() != 0 {
		t.Errorf("all-zero filter scheduled %d columns, want 0", s.Len())
	}
	if err := Verify(f, T(2, 5), s); err != nil {
		t.Error(err)
	}
}

func TestXInfIsPerfectCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sp := range []float64{0.3, 0.6, 0.9} {
		w := sparsity.RandomSparseFilter(rng, 20, 16, sp)
		f := NewFilter(16, 20, w, nil)
		s := ScheduleFilter(f, X(), Algorithm1)
		want := (f.NNZ() + 15) / 16
		if s.Len() != want {
			t.Errorf("sparsity %.1f: X schedule %d columns, want ceil(nnz/16)=%d", sp, s.Len(), want)
		}
		if err := Verify(f, X(), s); err != nil {
			t.Error(err)
		}
	}
}

func TestScheduleInvariantsProperty(t *testing.T) {
	patterns := []Pattern{L(1, 2), L(2, 5), L(4, 3), T(2, 5), T(1, 6), T(3, 4)}
	f := func(seed int64, spRaw uint8, pIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := float64(spRaw%10) / 10.0
		p := patterns[int(pIdx)%len(patterns)]
		w := sparsity.RandomSparseFilter(rng, 10, 16, sp)
		flt := NewFilter(16, 10, w, nil)
		for _, alg := range []Algorithm{Algorithm1, GreedySimple} {
			s := ScheduleFilter(flt, p, alg)
			if err := Verify(flt, p, s); err != nil {
				t.Logf("seed=%d sp=%.1f pattern=%s alg=%v: %v", seed, sp, p.Name, alg, err)
				return false
			}
			// Columns bounded below by perfect compaction.
			if lower := (flt.NNZ() + 15) / 16; s.Len() < lower {
				t.Logf("schedule beat perfect compaction: %d < %d", s.Len(), lower)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMoreConnectivityNeverHurts(t *testing.T) {
	// DESIGN.md §5: a pattern whose offsets are a superset can only shorten
	// the Algorithm-1 schedule or tie on these nested L patterns.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		sp := 0.1 + 0.8*rng.Float64()
		w := sparsity.RandomSparseFilter(rng, 16, 16, sp)
		f := NewFilter(16, 16, w, nil)
		prev := 1 << 30
		// L(2,0) ⊂ L(2,1) ⊂ L(2,3) ⊂ L(2,5): strict offset-set nesting.
		for _, p := range []Pattern{L(2, 0), L(2, 1), L(2, 3), L(2, 5)} {
			got := ScheduleFilter(f, p, Algorithm1).Len()
			if got > prev+1 { // heuristic scheduler: allow 1 column of slack
				t.Errorf("trial %d: %s took %d columns but smaller pattern took %d", trial, p.Name, got, prev)
			}
			if got < prev {
				prev = got
			}
		}
		xLen := ScheduleFilter(f, X(), Algorithm1).Len()
		if prev < xLen {
			t.Errorf("trial %d: constrained schedule (%d) beat X upper bound (%d)", trial, prev, xLen)
		}
	}
}

func TestGroupSharedAdvance(t *testing.T) {
	// Two filters: one dense, one nearly empty. The group must advance in
	// lockstep: both schedules have identical lengths, heads, and advances,
	// and the sparse filter idles while the dense one works.
	rng := rand.New(rand.NewSource(6))
	dense := NewFilter(8, 10, sparsity.RandomSparseFilter(rng, 10, 8, 0), nil)
	sparse := NewFilter(8, 10, sparsity.RandomSparseFilter(rng, 10, 8, 0.95), nil)
	ss := ScheduleGroup([]Filter{dense, sparse}, T(2, 5), Algorithm1)
	if len(ss) != 2 {
		t.Fatalf("got %d schedules", len(ss))
	}
	if ss[0].Len() != ss[1].Len() {
		t.Fatalf("group schedules diverge: %d vs %d columns", ss[0].Len(), ss[1].Len())
	}
	if ss[0].Len() != 10 {
		t.Errorf("dense member forces %d columns, want 10", ss[0].Len())
	}
	for i := range ss[0].Columns {
		a, b := ss[0].Columns[i], ss[1].Columns[i]
		if a.Head != b.Head || a.Advance != b.Advance {
			t.Fatalf("column %d: heads/advances diverge (%d/%d vs %d/%d)",
				i, a.Head, a.Advance, b.Head, b.Advance)
		}
	}
	for _, f := range []Filter{dense, sparse} {
		i := 0
		if f.NNZ() == sparse.NNZ() {
			i = 1
		}
		if err := Verify(f, T(2, 5), ss[i]); err != nil {
			t.Error(err)
		}
	}
}

func TestGroupFasterAlone(t *testing.T) {
	// A sparse filter scheduled alone is at least as fast as inside a group
	// with a dense partner.
	rng := rand.New(rand.NewSource(7))
	sparse := NewFilter(8, 12, sparsity.RandomSparseFilter(rng, 12, 8, 0.8), nil)
	dense := NewFilter(8, 12, sparsity.RandomSparseFilter(rng, 12, 8, 0.05), nil)
	alone := ScheduleFilter(sparse, T(2, 5), Algorithm1).Len()
	grouped := ScheduleGroup([]Filter{sparse, dense}, T(2, 5), Algorithm1)[0].Len()
	if alone > grouped {
		t.Errorf("alone (%d) slower than grouped (%d)", alone, grouped)
	}
}

func TestAlgorithm1NotWorseThanGreedyOnAverage(t *testing.T) {
	// Figure 11b: the optimized scheduler outperforms the simple greedy as
	// sparsity rises. Check the aggregate over many random filters.
	rng := rand.New(rand.NewSource(8))
	var a1, gr int
	for trial := 0; trial < 60; trial++ {
		w := sparsity.RandomSparseFilter(rng, 24, 16, 0.7)
		f := NewFilter(16, 24, w, nil)
		a1 += ScheduleFilter(f, T(2, 5), Algorithm1).Len()
		gr += ScheduleFilter(f, T(2, 5), GreedySimple).Len()
	}
	if a1 > gr {
		t.Errorf("Algorithm 1 total %d columns > greedy %d", a1, gr)
	}
}

func TestStatsClassification(t *testing.T) {
	f := figure12Filter()
	p := L(1, 1)
	s := ScheduleFilter(f, p, Algorithm1)
	st := s.Stats(f)
	if st.Columns != 2 {
		t.Fatalf("columns = %d", st.Columns)
	}
	total := int64(0)
	for _, n := range st.Slots {
		total += n
	}
	if total != int64(2*4) {
		t.Errorf("slot census %d != columns×lanes %d", total, 8)
	}
	if st.Slots[SlotUnpromoted] != 4 { // (0,0),(0,1),(0,3) + (2,2) at head 2
		t.Errorf("unpromoted = %d, want 4", st.Slots[SlotUnpromoted])
	}
	if st.Slots[SlotLookaside] != 1 || st.Slots[SlotLookahead] != 1 {
		t.Errorf("lookaside/lookahead = %d/%d, want 1/1",
			st.Slots[SlotLookaside], st.Slots[SlotLookahead])
	}
}

func TestPadClassification(t *testing.T) {
	// A filter whose lane 3 is padding: idle slots there count as SlotPad.
	w := []int32{1, 2, 3, 0, 4, 5, 6, 0}
	pad := []bool{false, false, false, true, false, false, false, true}
	f := NewFilter(4, 2, w, pad)
	s := ScheduleFilter(f, L(1, 0), Algorithm1)
	st := s.Stats(f)
	if st.Slots[SlotPad] == 0 {
		t.Error("expected pad slots in census")
	}
	if st.Slots[SlotZero] != 0 {
		t.Errorf("zero slots = %d, want 0 (all idles are padding)", st.Slots[SlotZero])
	}
}

func TestSchedulerFillsPadding(t *testing.T) {
	// Section 6.1: "The scheduler can promote effectual weights into
	// channel-induced padding". Lane 3 pad at step 0, weight at (1,3):
	// lookahead promotes it into the pad slot's cycle.
	w := []int32{1, 1, 1, 0, 0, 0, 0, 9}
	pad := []bool{false, false, false, true, false, false, false, false}
	f := NewFilter(4, 2, w, pad)
	s := ScheduleFilter(f, L(1, 0), Algorithm1)
	if s.Len() != 1 {
		t.Fatalf("schedule = %d columns, want 1 (promotion into padding)", s.Len())
	}
	if e := s.Columns[0].Entries[3]; e.SrcStep != 1 || e.SrcLane != 3 {
		t.Errorf("lane 3 entry = %+v, want promotion of (1,3)", e)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	f := figure12Filter()
	p := L(1, 1)
	good := ScheduleFilter(f, p, Algorithm1)
	if err := Verify(f, p, good); err != nil {
		t.Fatal(err)
	}
	// Drop a scheduled weight.
	bad := ScheduleFilter(f, p, Algorithm1)
	for ci := range bad.Columns {
		for li := range bad.Columns[ci].Entries {
			if bad.Columns[ci].Entries[li].Weight != 0 {
				bad.Columns[ci].Entries[li] = Entry{}
				if Verify(f, p, bad) == nil {
					t.Fatal("Verify accepted a schedule with a dropped weight")
				}
				return
			}
		}
	}
}

func TestPatternValidate(t *testing.T) {
	if err := L(2, 5).Validate(); err != nil {
		t.Error(err)
	}
	if err := T(2, 5).Validate(); err != nil {
		t.Error(err)
	}
	bad := Pattern{Name: "bad", H: 1, Offsets: []Offset{{Dt: 0, Dl: 1}}}
	if bad.Validate() == nil {
		t.Error("Validate accepted Dt=0 offset")
	}
	deep := Pattern{Name: "deep", H: 1, Offsets: []Offset{{Dt: 2, Dl: 0}}}
	if deep.Validate() == nil {
		t.Error("Validate accepted offset beyond window")
	}
	dup := Pattern{Name: "dup", H: 1, Offsets: []Offset{{Dt: 1}, {Dt: 1}}}
	if dup.Validate() == nil {
		t.Error("Validate accepted duplicate offsets")
	}
}

func TestPatternMuxInputs(t *testing.T) {
	// The paper's labels encode mux size: L8<2,5> needs an 8-input mux.
	for _, tc := range []struct {
		p    Pattern
		want int
	}{{L(2, 5), 8}, {L(1, 2), 4}, {T(2, 5), 8}, {T(2, 2), 5}} {
		if got := tc.p.MuxInputs(); got != tc.want {
			t.Errorf("%s MuxInputs = %d, want %d", tc.p.Name, got, tc.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range KnownPatternNames() {
		p, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if p.Name != n {
			t.Errorf("ByName(%q) returned %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := ByName("Z9<9,9>"); err == nil {
		t.Error("ByName accepted unknown pattern")
	}
}

func TestLookaheadOnlyStripsLookaside(t *testing.T) {
	p := T(2, 5).LookaheadOnly()
	for _, o := range p.Offsets {
		if o.Dl != 0 {
			t.Errorf("lookaside offset %+v survived LookaheadOnly", o)
		}
	}
	if len(p.Offsets) != 2 {
		t.Errorf("lookahead-only T<2,5> has %d offsets, want 2", len(p.Offsets))
	}
}

func TestTridentSpreadsOverDepth(t *testing.T) {
	p := T(2, 5)
	depths := map[int]int{}
	for _, o := range p.Offsets {
		if o.Dl != 0 {
			depths[o.Dt]++
		}
	}
	if len(depths) < 2 {
		t.Errorf("trident lookaside uses a single depth: %v", depths)
	}
	// Lane offsets must be non-contiguous (the defining trident property).
	lanes := map[int]bool{}
	for _, o := range p.Offsets {
		if o.Dl != 0 {
			lanes[o.Dl] = true
		}
	}
	if lanes[2] && lanes[1] && lanes[3] {
		t.Error("trident lane offsets are contiguous")
	}
}

func TestGroupGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleGroup should panic on geometry mismatch")
		}
	}()
	a := NewFilter(4, 2, make([]int32, 8), nil)
	b := NewFilter(4, 3, make([]int32, 12), nil)
	ScheduleGroup([]Filter{a, b}, L(1, 1), Algorithm1)
}

func TestMatchingSchedulerValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		sp := 0.2 + 0.7*rng.Float64()
		w := sparsity.RandomSparseFilter(rng, 20, 16, sp)
		f := NewFilter(16, 20, w, nil)
		for _, p := range []Pattern{T(2, 5), L(1, 6)} {
			s := ScheduleFilter(f, p, Matching)
			if err := Verify(f, p, s); err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name, err)
			}
		}
	}
}

func TestMatchingAtLeastAsGoodAsAlg1PerColumn(t *testing.T) {
	// Column-optimal matching must not lose to Algorithm 1 in aggregate:
	// over many filters the total column count is <=, with tiny slack for
	// the greedy-in-time interaction between columns.
	rng := rand.New(rand.NewSource(22))
	var alg1, match int
	for trial := 0; trial < 60; trial++ {
		w := sparsity.RandomSparseFilter(rng, 24, 16, 0.7)
		f := NewFilter(16, 24, w, nil)
		alg1 += ScheduleFilter(f, T(2, 5), Algorithm1).Len()
		match += ScheduleFilter(f, T(2, 5), Matching).Len()
	}
	// Column-optimal is not schedule-optimal (maximizing one column can
	// starve later windows), so allow a small two-sided band: the two must
	// track each other within ~2-5% — the quantified form of the paper's
	// "nearly optimal performance" claim for Algorithm 1.
	if float64(match) > 1.02*float64(alg1) {
		t.Errorf("matching total %d columns worse than Algorithm 1 %d", match, alg1)
	}
	if float64(alg1) > 1.05*float64(match) {
		t.Errorf("Algorithm 1 (%d) more than 5%% behind column-optimal matching (%d)", alg1, match)
	}
}

func TestAlgorithmString(t *testing.T) {
	if Algorithm1.String() != "algorithm1" || GreedySimple.String() != "greedy" || Matching.String() != "matching" {
		t.Error("Algorithm String() labels wrong")
	}
}

func TestAlgorithmByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want Algorithm
	}{
		{"", Algorithm1},
		{"algorithm1", Algorithm1},
		{"alg1", Algorithm1},
		{"Algorithm1", Algorithm1},
		{"greedy", GreedySimple},
		{"GREEDY", GreedySimple},
		{"matching", Matching},
		{"Matching", Matching},
	} {
		got, err := AlgorithmByName(c.name)
		if err != nil || got != c.want {
			t.Errorf("AlgorithmByName(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	// Every algorithm round-trips through its String label.
	for _, a := range []Algorithm{Algorithm1, GreedySimple, Matching} {
		if got, err := AlgorithmByName(a.String()); err != nil || got != a {
			t.Errorf("AlgorithmByName(%q) = %v, %v", a.String(), got, err)
		}
	}
	for _, bad := range []string{"alg2", "optimal", " greedy"} {
		_, err := AlgorithmByName(bad)
		if err == nil {
			t.Errorf("AlgorithmByName(%q) accepted", bad)
			continue
		}
		for _, want := range []string{bad, "algorithm1", "greedy", "matching"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("AlgorithmByName(%q) error %q does not mention %q", bad, err, want)
			}
		}
	}
}

func TestStructuredSparsitySchedulesBetter(t *testing.T) {
	// Section 7: "TCL fully supports this form of structural sparsity
	// without requiring it." Structured zeros (aligned across the tile's
	// filters) must let the joint group schedule compact at least as well
	// as — in practice better than — random sparsity at the same level.
	rng := rand.New(rand.NewSource(23))
	lanes, steps, group := 16, 24, 8
	mkGroup := func(structured bool) []Filter {
		fs := make([]Filter, group)
		var mask []bool
		if structured {
			mask = make([]bool, steps*lanes)
			perm := rng.Perm(steps * lanes)
			for _, i := range perm[:steps*lanes*7/10] {
				mask[i] = true
			}
		}
		for f := range fs {
			var w []int32
			if structured {
				w = make([]int32, steps*lanes)
				for i := range w {
					if !mask[i] {
						w[i] = int32(rng.Intn(200) + 1)
					}
				}
			} else {
				w = sparsity.RandomSparseFilter(rng, steps, lanes, 0.7)
			}
			fs[f] = NewFilter(lanes, steps, w, nil)
		}
		return fs
	}
	st := ScheduleGroup(mkGroup(true), T(2, 5), Algorithm1)[0].Len()
	rd := ScheduleGroup(mkGroup(false), T(2, 5), Algorithm1)[0].Len()
	if st > rd {
		t.Errorf("structured sparsity scheduled %d columns, random %d — structure should help the group", st, rd)
	}
}
