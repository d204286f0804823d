package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/tensor"
)

// memoModel is a small model whose layers cover conv, depthwise and FC
// lowering, with its activations.
func memoModel(t *testing.T) (*nn.Model, []*tensor.T) {
	t.Helper()
	m := buildDeterminismModel(t, "MobileNet")
	return m, m.GenerateActs(7)
}

// lower returns a fresh lowering of m, whose memo is empty.
func lower(t *testing.T, m *nn.Model, acts []*tensor.T) []*nn.Lowered {
	t.Helper()
	lws, err := m.Lowered(16, acts)
	if err != nil {
		t.Fatal(err)
	}
	return lws
}

// sweepCells runs every config over the same lowered layers as one engine
// call.
func sweepCells(t testing.TB, cfgs []arch.Config, lws []*nn.Lowered, opts Options) [][]LayerResult {
	t.Helper()
	lwss := make([][]*nn.Lowered, len(cfgs))
	for k := range lwss {
		lwss[k] = lws
	}
	res, err := SimulateLoweredSweepContext(context.Background(), cfgs, lwss, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMemoHitScheduleMiss runs a second pass over the same lowering with a
// new, empty schedule cache: every group's key and census are in the
// lowering's memo, but no schedule is cached, so serial front-end groups
// read their rows through the cache's lazy fill. The results must equal
// the first pass, and only the serial front-end configs may look
// schedules up: TCLp and TCLe share T8<2,5>, so the second pass misses
// each group once and hits it once.
func TestMemoHitScheduleMiss(t *testing.T) {
	m, acts := memoModel(t)
	lws := lower(t, m, acts)
	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
		arch.TCLe(sched.Pattern{}), // back-end only, serial
	}
	first := sweepCells(t, cfgs, lws, fresh(2))
	second := fresh(2)
	if got := sweepCells(t, cfgs, lws, second); !reflect.DeepEqual(got, first) {
		for k := range cfgs {
			if !reflect.DeepEqual(got[k], first[k]) {
				t.Errorf("%s: memo-hit pass with an empty schedule cache differs from the first pass", cfgs[k].Name)
			}
		}
	}
	var groups int64
	for _, lw := range lws {
		groups += int64((lw.Filters + cfgs[2].FiltersPerTile - 1) / cfgs[2].FiltersPerTile)
	}
	if st := second.Cache.Stats(); st.Misses != groups || st.Hits != groups {
		t.Errorf("second pass: %d misses, %d hits; want %d of each (one fill per T8<2,5> group, shared by TCLp and TCLe)",
			st.Misses, st.Hits, groups)
	}
}

// memoVariants are configs that differ from TCLe T8<2,5> only in filters
// per group, pattern, algorithm or whether there is a front end, and the
// bit-parallel twins of the first two: every way two configs can share or
// split a lowering's memo tables.
func memoVariants() []arch.Config {
	base := arch.TCLe(sched.T(2, 5))
	fpt8 := base
	fpt8.Name, fpt8.FiltersPerTile = "TCLe/T8<2,5>/8 filters", 8
	greedy := base
	greedy.Name, greedy.Scheduler = "TCLe/T8<2,5>/greedy", sched.GreedySimple
	fe := arch.FrontEndOnly(sched.T(2, 5))
	fe8 := fe
	fe8.Name, fe8.FiltersPerTile = fe.Name+"/8 filters", 8
	return []arch.Config{
		base, fpt8, greedy,
		arch.TCLe(sched.L(1, 6)),
		arch.TCLe(sched.Pattern{}),
		fe, fe8,
		arch.DaDianNaoPP(),
	}
}

// TestMemoSharedAcrossConfigs sweeps one lowering under memoVariants, twice:
// once cold and once with the memo filled. Every cell must equal what a
// fresh lowering of the same model returns for that config alone, so no
// config reads a key or census another config's grouping, pattern,
// algorithm or front end stored.
func TestMemoSharedAcrossConfigs(t *testing.T) {
	m, acts := memoModel(t)
	cfgs := memoVariants()
	want := make([][]LayerResult, len(cfgs))
	for k, cfg := range cfgs {
		want[k] = sweepCells(t, []arch.Config{cfg}, lower(t, m, acts), fresh(1))[0]
	}
	lws := lower(t, m, acts)
	for _, pass := range []string{"cold", "warm"} {
		got := sweepCells(t, cfgs, lws, fresh(2))
		for k, cfg := range cfgs {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%s pass: %s in the shared sweep differs from a fresh lowering run alone", pass, cfg.Name)
			}
		}
	}
}

// TestMemoConcurrentColdSweeps has several goroutines sweep the same cold
// lowering at once, so they race to fill each group's key and census; run
// it under -race. Half share one schedule cache and half bring their own.
// Every sweep must agree with a serial run on a separate lowering.
func TestMemoConcurrentColdSweeps(t *testing.T) {
	m, acts := memoModel(t)
	cfgs := memoVariants()
	want := sweepCells(t, cfgs, lower(t, m, acts), fresh(1))
	lws := lower(t, m, acts)
	shared := fresh(2)
	const sweeps = 4
	got := make([][][]LayerResult, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := range sweeps {
		opts := shared
		if i%2 == 1 {
			opts = fresh(2)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lwss := make([][]*nn.Lowered, len(cfgs))
			for k := range lwss {
				lwss[k] = lws
			}
			got[i], errs[i] = SimulateLoweredSweepContext(context.Background(), cfgs, lwss, opts)
		}()
	}
	wg.Wait()
	for i := range sweeps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for k, cfg := range cfgs {
			if !reflect.DeepEqual(got[i][k], want[k]) {
				t.Errorf("sweep %d: %s differs from the serial run", i, cfg.Name)
			}
		}
	}
}
