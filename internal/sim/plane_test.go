package sim

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/backend/dstripes"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// serialConfigs are the back-end configurations that walk windows — the
// paths the plane and SWAR kernels serve — covering gated (front-end) and
// ungated variants at both widths.
func serialConfigs() []arch.Config {
	return []arch.Config{
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
		arch.TCLe(sched.L(1, 6)),
		arch.TCLe(sched.Pattern{}), // no front-end: ungated masks
		arch.TCLp(sched.Pattern{}),
		arch.TCLp(sched.T(2, 5)).WithWidth(fixed.W8),
		arch.TCLe(sched.T(2, 5)).WithWidth(fixed.W8),
	}
}

// TestPlaneMatchesPerRowRecompute checks the plane build directly on
// row-invariant layers: for every filter, window, step and lane, the plane
// of the filter's act group holds the cost of the activation that filter's
// own row fetches — across every filter, not just the one the plane was
// built from (the single act group's guarantee).
func TestPlaneMatchesPerRowRecompute(t *testing.T) {
	for _, lw := range []*nn.Lowered{
		testConv(t, 21, 20, 24, 3, 3, 6, 0.6, 0.4),
		testFC(t, 22, 20, 40, 18, 0.7),
		testFC(t, 23, 33, 64, 1, 0.5),
	} {
		if lw.ActGroups() != 1 {
			t.Fatalf("%s: expected row-invariant layer (one act group)", lw.Name)
		}
		checkPlaneMatchesAct(t, lw, serialConfigs())
	}
}

// TestPlaneWindowMinorLayout checks the plane geometry at window counts
// inside one 8-window word (1, 5) and past it (13): every (window, slot) cost
// matches Act, the plane holds WindowCount*Steps*Lanes cost bytes plus one
// spare word, and an 8-byte load starting at any window of the last slot —
// so every word load of its last window group — stays in bounds and reads
// zeros past the slot's last window.
func TestPlaneWindowMinorLayout(t *testing.T) {
	for _, windows := range []int{1, 5, 13} {
		lw := testFC(t, 29, 20, 40, windows, 0.7)
		checkPlaneMatchesAct(t, lw, serialConfigs())
		p := buildPlane(lw, newCostTable(backend.MustLookup("TCLe"), fixed.W16), 0)
		slots := lw.Steps * lw.Lanes
		if got, want := p.sizeBytes(), int64(windows*slots+8); got != want {
			t.Fatalf("%d windows: plane holds %d bytes, want %d", windows, got, want)
		}
		last := p.data[(slots-1)*windows:]
		for w := 0; w < windows; w++ {
			word := binary.LittleEndian.Uint64(last[w:])
			if n := windows - w; n < 8 && word>>(8*n) != 0 {
				t.Fatalf("%d windows: load at window %d reads %#x past the last slot", windows, w, word)
			}
		}
	}
}

// checkPlaneMatchesAct asserts that, under every config, buildPlane of
// filter f's act group holds ct.costU8(lw.Act(f, window, step, lane)) at
// every slot, for every filter f.
func checkPlaneMatchesAct(t *testing.T, lw *nn.Lowered, cfgs []arch.Config) {
	t.Helper()
	for _, cfg := range cfgs {
		ct := newCostTable(cfg.Backend, cfg.Width)
		planes := make([]*costPlane, lw.ActGroups())
		for g := range planes {
			planes[g] = buildPlane(lw, ct, g)
		}
		for f := 0; f < lw.Filters; f++ {
			p := planes[lw.ActGroupOf(f)]
			for w := 0; w < lw.WindowCount; w++ {
				for st := 0; st < lw.Steps; st++ {
					for ln := 0; ln < lw.Lanes; ln++ {
						got, want := p.data[(st*lw.Lanes+ln)*lw.WindowCount+w], ct.costU8(lw.Act(f, w, st, ln))
						if got != want {
							t.Fatalf("%s/%s filter %d window %d step %d lane %d: plane cost %d, per-row cost %d",
								lw.Name, cfg.Name, f, w, st, ln, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDepthwiseNotRowInvariant pins the legality gate: the engine must
// never share one plane across filter rows of a layer whose activation
// fetch depends on the filter row, so depthwise is one act group per
// filter.
func TestDepthwiseNotRowInvariant(t *testing.T) {
	if lw := testDW(t, 24, 20, 5); lw.ActGroups() == 1 {
		t.Fatal("depthwise layer reported row-invariant")
	}
}

// get returns the plane of row-invariant layer lw under (be, w) through
// the engine's key and fill path, building it with ct on a miss.
func (c *PlaneCache) get(lw *nn.Lowered, be backend.Backend, w fixed.Width, ct *costTable) *costPlane {
	return c.getKeyed(planeKeyOf(lw, be, w), lw, ct, 0)
}

// TestPlaneCacheSharing exercises the cache across the dimensions of its
// key: same (layer, back-end, width) hits; different back-end, width, or
// activations miss — including a plugin back-end the engine packages never
// name, which must key distinct planes at the same width.
func TestPlaneCacheSharing(t *testing.T) {
	c := NewPlaneCache(0)
	lw := testFC(t, 25, 20, 40, 18, 0.7)
	lw2 := testFC(t, 26, 20, 40, 18, 0.7) // same geometry, different values
	beE, beP := backend.MustLookup("TCLe"), backend.MustLookup("TCLp")
	beSM := backend.MustLookup(dstripes.Name)
	ctE := newCostTable(beE, fixed.W16)
	ctP := newCostTable(beP, fixed.W16)
	ctE8 := newCostTable(beE, fixed.W8)
	ctSM := newCostTable(beSM, fixed.W16)

	p1 := c.get(lw, beE, fixed.W16, ctE)
	p2 := c.get(lw, beE, fixed.W16, ctE)
	if p1 != p2 {
		t.Fatal("identical key returned distinct planes")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat get: %+v, want 1 hit / 1 miss", st)
	}
	c.get(lw, beP, fixed.W16, ctP)  // back-end differs
	c.get(lw, beE, fixed.W8, ctE8)  // width differs
	c.get(lw2, beE, fixed.W16, ctE) // activations differ
	pSM := c.get(lw, beSM, fixed.W16, ctSM)
	if pP := c.get(lw, beP, fixed.W16, ctP); pSM == pP {
		t.Fatal("plugin back-end collided with TCLp at identical width")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 5 || st.Entries != 5 {
		t.Fatalf("after distinct keys: %+v, want 2 hits / 5 misses / 5 entries", st)
	}
	if st.Bytes == 0 {
		t.Fatal("cache reports zero resident bytes")
	}

	c.Reset()
	if st := c.Stats(); st != (PlaneCacheStats{}) {
		t.Fatalf("after Reset: %+v, want zero stats", st)
	}
}

// TestPlaneCacheEviction forces the byte budget: the overflow drop keeps
// only the inserting entry and counts the rest as evictions.
func TestPlaneCacheEviction(t *testing.T) {
	lw := testFC(t, 27, 20, 40, 18, 0.7)
	beE, beP := backend.MustLookup("TCLe"), backend.MustLookup("TCLp")
	ct := newCostTable(beE, fixed.W16)
	one := buildPlane(lw, ct, 0).sizeBytes()
	c := NewPlaneCache(one + one/2) // fits one plane, not two
	c.get(lw, beE, fixed.W16, ct)
	c.get(lw, beP, fixed.W16, newCostTable(beP, fixed.W16))
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after overflow: %+v, want 1 eviction / 1 resident entry", st)
	}
	if st.Bytes != one {
		t.Fatalf("after overflow: %d resident bytes, want %d", st.Bytes, one)
	}
}

// TestSimulateUsesSharedPlaneCache pins the default wiring: a model run
// populates SharedPlanes with one plane per (row-invariant layer,
// back-end, width), and a second config sharing those dimensions hits.
func TestSimulateUsesSharedPlaneCache(t *testing.T) {
	SharedPlanes.Reset()
	defer SharedPlanes.Reset()
	lw := testFC(t, 28, 20, 40, 18, 0.7)
	simLayer(t, arch.TCLe(sched.T(2, 5)), lw, Options{})
	if st := SharedPlanes.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss / 1 entry", st)
	}
	// Different pattern, same back-end and width: must reuse the plane.
	simLayer(t, arch.TCLe(sched.L(1, 6)), lw, Options{})
	if st := SharedPlanes.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after second run: %+v, want 1 hit / 1 miss", st)
	}
	// A plugin back-end at the same width must key its own plane, not hit
	// the TCLe entry.
	simLayer(t, arch.NewTCL(sched.T(2, 5), backend.MustLookup(dstripes.Name)), lw, Options{})
	if st := SharedPlanes.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after plugin run: %+v, want 1 hit / 2 misses / 2 entries", st)
	}
}

// TestSweepMatchesIndividualRuns pins the sweep core's bit-identity
// guarantee: one SimulateSweepContext over several configs must reproduce
// each config's standalone serial result exactly, at every parallelism and
// with cold or warm caches.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	zoo := nn.DefaultZoo()
	zoo.ChannelScale = 0.1
	zoo.SpatialScale = 0.25
	m, err := nn.BuildModel("AlexNet-ES", zoo)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(7)
	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
		arch.TCLe(sched.L(1, 6)),
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
					t.Errorf("par=%d %s caches config %s: sweep result differs from standalone run",
						par, caches, cfgs[i].Name)
				}
			}
		}
	}
}
