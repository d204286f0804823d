package bittactical_test

import (
	"math"
	"strings"
	"testing"

	"bittactical"
	"bittactical/internal/sched"
)

func TestPublicAPIQuickTour(t *testing.T) {
	zoo := bittactical.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	m, err := bittactical.BuildModel("AlexNet-ES", zoo)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(1)
	res, err := bittactical.Simulate(bittactical.TCLe(bittactical.Trident(2, 5)), m, acts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1.5 {
		t.Errorf("TCLe speedup %.2f implausibly low", res.Speedup())
	}
	base, err := bittactical.Simulate(bittactical.DaDianNaoPP(), m, acts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Speedup() != 1.0 {
		t.Errorf("baseline speedup %v != 1", base.Speedup())
	}
}

// TestPublicAPIRejectsWidePE holds Simulate to the engine's lane bound: a
// TCLe config with 129 lanes is an error, not a panic.
func TestPublicAPIRejectsWidePE(t *testing.T) {
	zoo := bittactical.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	m, err := bittactical.BuildModel("MobileNet", zoo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bittactical.TCLe(bittactical.Trident(2, 5))
	cfg.Lanes = 129
	res, err := bittactical.Simulate(cfg, m, m.GenerateActs(1))
	if err == nil || !strings.Contains(err.Error(), "at most 128") {
		t.Fatalf("Simulate at 129 lanes = %v, %v; want the 128-lane bound's error", res, err)
	}
}

func TestPublicAPISchedule(t *testing.T) {
	w := make([]int32, 16*8)
	for i := 0; i < len(w); i += 3 {
		w[i] = int32(i + 1)
	}
	s, err := bittactical.Schedule(16, 8, w, bittactical.Trident(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() >= 8 || s.Len() < 1 {
		t.Errorf("schedule %d columns for a 2/3-sparse filter", s.Len())
	}
	// Invalid patterns are errors, not panics.
	for _, p := range []bittactical.Pattern{
		{Name: "dt0", H: 1, Offsets: []sched.Offset{{Dt: 0, Dl: 1}}},
		{Name: "dup", H: 1, Offsets: []sched.Offset{{Dt: 1}, {Dt: 1}}},
		bittactical.LShape(70, 0),
	} {
		if s, err := bittactical.Schedule(16, 8, w, p); err == nil {
			t.Errorf("%s: scheduled in %d columns, want a validation error", p.Name, s.Len())
		}
	}
	// Bad sizes are errors too, even when lanes×steps wraps to len(weights).
	wrap := math.MaxInt/2 + 1
	for _, tc := range []struct {
		name         string
		lanes, steps int
		weights      []int32
	}{
		{"5 weights for 8×16", 16, 8, make([]int32, 5)},
		{"negative sizes", -4, -2, make([]int32, 8)},
		{"0 lanes", 0, 8, nil},
		{"lanes×steps wraps to 0", wrap, wrap, nil},
	} {
		if s, err := bittactical.Schedule(tc.lanes, tc.steps, tc.weights, bittactical.Trident(2, 5)); err == nil {
			t.Errorf("%s: scheduled %d lanes in %d columns, want a size error", tc.name, s.Lanes, s.Len())
		}
	}
}

// FuzzSchedule drives the facade with arbitrary sizes, weights and pattern
// names: it must never panic, and a nil error must come with a schedule of
// the asked lanes and at most steps columns. Weights are capped at 64 Ki,
// so no input schedules more than a few MiB.
func FuzzSchedule(f *testing.F) {
	dense := make([]byte, 16*8)
	for i := range dense {
		dense[i] = byte(i * 37)
	}
	for _, name := range sched.KnownPatternNames() {
		f.Add(16, 8, dense, name)
	}
	f.Add(16, 8, dense[:5], "T8<2,5>")
	f.Add(-4, -2, dense[:8], "T8<2,5>")
	f.Add(0, 8, []byte(nil), "T8<2,5>")
	f.Add(3, 1, []byte{1, 0, 2}, "L4<1,2>")
	f.Fuzz(func(t *testing.T, lanes, steps int, raw []byte, name string) {
		p, err := bittactical.PatternByName(name)
		if err != nil {
			return
		}
		if len(raw) > 1<<16 {
			raw = raw[:1<<16]
		}
		w := make([]int32, len(raw))
		for i, b := range raw {
			w[i] = int32(int8(b)) // signed: zero, negative and positive weights
		}
		s, err := bittactical.Schedule(lanes, steps, w, p)
		if err != nil {
			return
		}
		if s == nil || s.Lanes != lanes || s.Len() > steps {
			t.Fatalf("Schedule(%d, %d, %d weights, %s) = %+v with a nil error", lanes, steps, len(w), name, s)
		}
	})
}

func TestPublicAPIPatterns(t *testing.T) {
	p, err := bittactical.PatternByName("T8<2,5>")
	if err != nil {
		t.Fatal(err)
	}
	if p.MuxInputs() != 8 {
		t.Errorf("T8<2,5> mux inputs = %d", p.MuxInputs())
	}
	if bittactical.LShape(1, 2).MuxInputs() != 4 {
		t.Error("L4<1,2> mux inputs != 4")
	}
}

func TestPublicAPIBackends(t *testing.T) {
	names := bittactical.Backends()
	for _, want := range []string{"bit-parallel", "TCLp", "TCLe", "dstripes-sm"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Backends() = %v, missing %q", names, want)
		}
	}
	if _, err := bittactical.ConfigForBackend("warp", bittactical.Trident(2, 5)); err == nil {
		t.Error("ConfigForBackend accepted an unknown name")
	}
	cfg, err := bittactical.ConfigForBackend("dstripes-sm", bittactical.Trident(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	zoo := bittactical.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	m, err := bittactical.BuildModel("AlexNet-ES", zoo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bittactical.Simulate(cfg, m, m.GenerateActs(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Errorf("dstripes-sm speedup %.2f, want > 1 on a pruned model", res.Speedup())
	}
}

func TestPublicAPIModelNamesCopy(t *testing.T) {
	names := bittactical.ModelNames()
	if len(names) != 7 {
		t.Fatalf("got %d names", len(names))
	}
	names[0] = "mutated"
	if bittactical.ModelNames()[0] == "mutated" {
		t.Error("ModelNames must return a copy")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := bittactical.ExperimentIDs()
	if len(ids) < 13 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	if _, err := bittactical.RunExperiment("not-an-experiment", bittactical.ExperimentOptions{}); err == nil {
		t.Fatal("accepted unknown experiment")
	} else if !strings.Contains(err.Error(), "not-an-experiment") {
		t.Errorf("error %q should name the id", err)
	}
	zoo := bittactical.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	tab, err := bittactical.RunExperiment("table2", bittactical.ExperimentOptions{Zoo: zoo})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Render(), "Tiles") {
		t.Error("table2 render missing content")
	}
}
