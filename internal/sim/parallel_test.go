package sim

import (
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// table2Configs is the Table-2 design family the determinism tests sweep:
// the dense baseline, front-end-only skipping, both serial back-ends with
// and without a front-end, and a second pattern shape.
func table2Configs() []arch.Config {
	return []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
		arch.NewTCL(sched.L(1, 6), arch.TCLe),
		arch.NewTCL(sched.L(2, 5), arch.TCLp),
		arch.NewTCL(sched.Pattern{}, arch.TCLe), // Pragmatic-like
		arch.NewTCL(sched.Pattern{}, arch.TCLp), // Dynamic-Stripes-like
	}
}

// buildDeterminismModel instantiates a small zoo model whose layer mix
// covers conv, depthwise/grouped, and FC lowering paths.
func buildDeterminismModel(t *testing.T, name string) *nn.Model {
	t.Helper()
	cfg := nn.DefaultZoo()
	cfg.ChannelScale, cfg.SpatialScale = 0.1, 0.2
	m, err := nn.BuildModel(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParallelDeterminism asserts the engine's central contract: any
// Parallelism, with cold or warm caches, produces results bit-identical to
// the inline serial engine, across every Table-2 config and two
// activation seeds.
func TestParallelDeterminism(t *testing.T) {
	for _, modelName := range []string{"AlexNet-ES", "MobileNet"} {
		m := buildDeterminismModel(t, modelName)
		for _, seed := range []int64{7, 13} {
			acts := m.GenerateActs(seed)
			for _, cfg := range table2Configs() {
				serial := simModel(t, cfg, m, acts, fresh(1))
				for _, par := range []int{1, 2, 8} {
					got := simModel(t, cfg, m, acts, Options{Parallelism: par, Cache: sched.NewCache(0)})
					if !reflect.DeepEqual(serial, got) {
						t.Errorf("%s/%s seed %d: Parallelism=%d result differs from serial",
							modelName, cfg.Name, seed, par)
					}
				}
			}
		}
	}
}

// TestScheduleCacheSharedAcrossBackEnds asserts the memoization win the
// cache exists for: TCLp and TCLe differ only in the back-end, so the
// second simulation of the same layer group hits every schedule the first
// one computed.
func TestScheduleCacheSharedAcrossBackEnds(t *testing.T) {
	lw := testConv(t, 11, 40, 24, 3, 3, 6, 0.6, 0.4)
	cache := sched.NewCache(0)
	p := simLayer(t, arch.NewTCL(sched.T(2, 5), arch.TCLp), lw, Options{Cache: cache})
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("first run: hits=%d misses=%d, want cold misses only", st.Hits, st.Misses)
	}
	e := simLayer(t, arch.NewTCL(sched.T(2, 5), arch.TCLe), lw, Options{Cache: cache})
	st2 := cache.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("TCLe re-scheduled %d groups the TCLp run already cached", st2.Misses-st.Misses)
	}
	if st2.Hits != st.Misses {
		t.Errorf("TCLe hit %d cached groups, want all %d", st2.Hits, st.Misses)
	}
	// Front-end results are back-end independent; the shared schedules must
	// reproduce the same slot census.
	if !reflect.DeepEqual(p.FrontEnd, e.FrontEnd) {
		t.Error("cached schedules changed the front-end census across back-ends")
	}
	// And a cached re-run of the identical config is bit-identical.
	p2 := simLayer(t, arch.NewTCL(sched.T(2, 5), arch.TCLp), lw, Options{Cache: cache})
	if !reflect.DeepEqual(p, p2) {
		t.Error("cache hit changed the simulation result")
	}
}

// TestSubGroupChunkDeterminism pins the fig8b fix: layers that lower to a
// single filter group (or just a few) split below the group grain into
// window chunks, and the stitched result must stay bit-identical to serial
// at every worker count — including counts that do not divide the layer's
// window-group count evenly, which exercises uneven chunk boundaries and a
// partial final window group.
func TestSubGroupChunkDeterminism(t *testing.T) {
	lws := []*nn.Lowered{
		// 12 filters < FiltersPerTile: exactly one group, many windows.
		testConv(t, 31, 12, 24, 3, 3, 7, 0.6, 0.4),
		// Depthwise single group, row-variant activation fetch.
		testDW(t, 32, 14, 7),
		// FC: windows = timesteps, fewer windows than a full tile column set.
		testFC(t, 33, 12, 64, 6, 0.7),
	}
	for _, lw := range lws {
		for _, cfg := range table2Configs() {
			want := simLayer(t, cfg, lw, fresh(1))
			for _, par := range []int{2, 3, 5, 8, 16} {
				got := simLayer(t, cfg, lw, fresh(par))
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s: Parallelism=%d chunked result differs from serial",
						lw.Name, cfg.Name, par)
				}
			}
		}
	}
}

// TestParallelLayerMatchesSerial covers the direct SimulateLayerContext
// path on hand-built layers, including the row-variant depthwise lowering
// whose cost grid optimization must not change the census.
func TestParallelLayerMatchesSerial(t *testing.T) {
	lws := []*nn.Lowered{
		testConv(t, 21, 40, 24, 3, 3, 6, 0.6, 0.4),
		testFC(t, 22, 40, 64, 18, 0.7),
		testDW(t, 23, 40, 5),
	}
	for _, lw := range lws {
		for _, cfg := range table2Configs() {
			want := simLayer(t, cfg, lw, fresh(1))
			got := simLayer(t, cfg, lw, Options{Parallelism: 8, Cache: sched.NewCache(0)})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: parallel layer result differs from serial", lw.Name, cfg.Name)
			}
		}
	}
}
