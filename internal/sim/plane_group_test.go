// Tests for the grouped/depthwise plane path: per-act-group cost planes
// must hold exactly the costs each row's own filter index fetches through
// lw.Act, and the engine must actually take the plane path for
// row-variant layers (visible through the PlaneCache group counters).
package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/backend/dstripes"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// testGroupedConv builds a grouped convolution: 8 filters over 32 input
// channels in `groups` filter groups, 5x5 input, W16 values.
func testGroupedConv(t *testing.T, seed int64, groups int) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "gconv", Kind: nn.Conv, K: 8, C: 32, R: 3, S: 3,
		Stride: 1, Pad: 1, InH: 5, InW: 5, Groups: groups}
	l.Weights = tensor.New(8, 32/groups, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	act := tensor.New(1, 32, 5, 5)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2, NegFrac: 0.2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// groupSerialConfigs extends serialConfigs with the dstripes-sm plugin
// back-end (gated, ungated, and 8-bit): the plane path must be
// back-end-agnostic, including back-ends the engine packages never name.
func groupSerialConfigs() []arch.Config {
	sm := backend.MustLookup(dstripes.Name)
	return append(serialConfigs(),
		arch.NewTCL(sched.T(2, 5), sm),
		arch.NewTCL(sched.Pattern{}, sm),
		arch.NewTCL(sched.T(2, 5), sm).WithWidth(fixed.W8),
	)
}

// TestGroupedPlaneMatchesPerRowRecompute is the row-variant counterpart
// of TestPlaneMatchesPerRowRecompute: for grouped (2 and 4 groups) and
// depthwise layers, the plane of each filter's act group — built from the
// group's representative filter — must hold the cost each filter's own row
// fetches, for every serial back-end (including the dstripes-sm plugin)
// and width.
func TestGroupedPlaneMatchesPerRowRecompute(t *testing.T) {
	for _, lw := range []*nn.Lowered{
		testGroupedConv(t, 41, 2),
		testGroupedConv(t, 42, 4),
		testDW(t, 43, 20, 5),
	} {
		if lw.ActGroups() == 1 {
			t.Fatalf("%s: expected row-variant layer (several act groups)", lw.Name)
		}
		checkPlaneMatchesAct(t, lw, groupSerialConfigs())
	}
}

// TestGroupedLayersTakePlanePath asserts the engine routes row-variant
// layers through the plane fast path: a run over a grouped layer builds
// one plane per act group (the group counters tick), and a second config
// sharing (back-end, width) hits every one of them.
func TestGroupedLayersTakePlanePath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lw     *nn.Lowered
		groups int
	}{
		{"groups2", testGroupedConv(t, 44, 2), 2},
		{"groups4", testGroupedConv(t, 45, 4), 4},
		{"depthwise", testDW(t, 46, 20, 5), 20},
	} {
		pc := NewPlaneCache(0)
		simLayer(t, arch.TCLe(sched.T(2, 5)), tc.lw, Options{PlaneCache: pc})
		st := pc.Stats()
		if st.GroupBuilds != int64(tc.groups) || st.Entries != tc.groups {
			t.Fatalf("%s: after first run %+v, want %d group builds / entries", tc.name, st, tc.groups)
		}
		if st.GroupHits != 0 {
			t.Fatalf("%s: cold run reported group hits: %+v", tc.name, st)
		}
		// Different pattern, same back-end and width: every group plane hits.
		simLayer(t, arch.TCLe(sched.L(1, 6)), tc.lw, Options{PlaneCache: pc})
		st = pc.Stats()
		if st.GroupHits != int64(tc.groups) || st.GroupBuilds != int64(tc.groups) {
			t.Fatalf("%s: after second run %+v, want %d group hits", tc.name, st, tc.groups)
		}
		// A different back-end keys its own planes per group.
		simLayer(t, arch.NewTCL(sched.T(2, 5), backend.MustLookup(dstripes.Name)), tc.lw, Options{PlaneCache: pc})
		st = pc.Stats()
		if st.GroupBuilds != int64(2*tc.groups) || st.Entries != 2*tc.groups {
			t.Fatalf("%s: after plugin run %+v, want %d group builds", tc.name, st, 2*tc.groups)
		}
	}
}

// TestGroupPlaneKeySharing pins the per-group key structure: planes of
// the same layer at the same (back-end, width) differ only in the group
// field, and overflow evictions of grouped planes tick the group counter.
func TestGroupPlaneKeySharing(t *testing.T) {
	lw := testGroupedConv(t, 47, 2)
	be := backend.MustLookup("TCLe")
	ct := newCostTable(be, fixed.W16)
	base := planeKeyOf(lw, be, fixed.W16)
	k0, k1 := base, base
	k0.group, k1.group = 0, 1
	if k0 == k1 {
		t.Fatal("distinct act groups share a key")
	}

	one := buildPlane(lw, ct, 0).sizeBytes()
	c := NewPlaneCache(one + one/2) // fits one plane, not two
	c.getKeyed(k0, lw, ct, 0)
	c.getKeyed(k1, lw, ct, 1)
	st := c.Stats()
	if st.GroupEvictions != 1 || st.Entries != 1 {
		t.Fatalf("after overflow: %+v, want 1 group eviction / 1 resident entry", st)
	}
	// The resident plane is the inserting group's; re-requesting it hits.
	c.getKeyed(k1, lw, ct, 1)
	if st := c.Stats(); st.GroupHits != 1 {
		t.Fatalf("resident group plane did not hit: %+v", st)
	}
}

// groupedModel is a small model exercising every row-variant layer kind
// (grouped conv at 2 and 4 groups, depthwise) alongside a row-invariant
// conv, for whole-engine equality runs.
func groupedModel(t *testing.T) (*nn.Model, []*tensor.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(48))
	layers := []*nn.Layer{
		{Name: "conv", Kind: nn.Conv, K: 8, C: 16, R: 3, S: 3, Stride: 1, Pad: 1, InH: 6, InW: 6},
		{Name: "g2", Kind: nn.Conv, K: 8, C: 32, R: 3, S: 3, Stride: 1, Pad: 1, InH: 5, InW: 5, Groups: 2},
		{Name: "g4", Kind: nn.Conv, K: 8, C: 32, R: 3, S: 3, Stride: 1, Pad: 1, InH: 5, InW: 5, Groups: 4},
		{Name: "dw", Kind: nn.Depthwise, K: 20, C: 20, R: 3, S: 3, Stride: 1, Pad: 1, InH: 5, InW: 5},
	}
	for _, l := range layers {
		gc := l.C
		if l.Kind == nn.Conv {
			gc = l.GroupChannels()
		} else {
			gc = 1
		}
		l.Weights = tensor.New(l.K, gc, l.R, l.S)
		sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	}
	m := &nn.Model{
		Name:   "grouped-test",
		Width:  fixed.W16,
		Layers: layers,
		Act:    sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 6, SigmaLog2: 2, NegFrac: 0.2},
	}
	return m, m.GenerateActs(9)
}

// TestGroupedSweepMatchesIndividualRuns is the whole-engine differential
// for row-variant layers: sweeping a grouped/depthwise model — including
// through the dstripes-sm plugin back-end — must reproduce each config's
// standalone serial result exactly, at parallelism 1 and 4, with cold and
// warm caches.
func TestGroupedSweepMatchesIndividualRuns(t *testing.T) {
	m, acts := groupedModel(t)
	cfgs := []arch.Config{
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)).WithWidth(fixed.W8),
		arch.NewTCL(sched.T(2, 5), backend.MustLookup(dstripes.Name)),
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = simModel(t, cfg, m, acts, fresh(1))
	}
	for _, par := range []int{1, 4} {
		opts := fresh(par)
		for _, caches := range []string{"cold", "warm"} {
			got, err := SimulateSweepContext(context.Background(), cfgs, m, acts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("par=%d %s caches config %s: grouped sweep differs from standalone run",
						par, caches, cfgs[i].Name)
				}
			}
		}
		if st := opts.PlaneCache.Stats(); st.GroupBuilds == 0 || st.GroupHits == 0 {
			t.Errorf("par=%d: sweeps over grouped model never took the grouped plane path (%+v)", par, st)
		}
	}
}
