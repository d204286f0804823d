package memory

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"bittactical/internal/arch"
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

func TestTechTable(t *testing.T) {
	if len(Techs) != 6 {
		t.Fatalf("want 6 technologies, got %d", len(Techs))
	}
	prev := 0.0
	for _, tech := range Techs[:5] {
		if tech.GBs <= prev {
			t.Errorf("%s: bandwidths must ascend (got %v after %v)", tech.Name, tech.GBs, prev)
		}
		prev = tech.GBs
	}
	if !Techs[5].Infinite() {
		t.Error("last tech must be infinite")
	}
	if _, ok := TechByName("HBM"); !ok {
		t.Error("TechByName(HBM) failed")
	}
	if _, ok := TechByName("SDRAM-66"); ok {
		t.Error("TechByName accepted unknown name")
	}
}

func TestBytesPerCycle(t *testing.T) {
	tech := Tech{GBs: 12.8}
	if got := tech.BytesPerCycle(1.0); got != 12.8 {
		t.Errorf("BytesPerCycle = %v, want 12.8 at 1 GHz", got)
	}
	if got := (Tech{}).BytesPerCycle(1.0); got != 0 {
		t.Errorf("infinite tech BytesPerCycle = %v", got)
	}
}

func TestCompressedBitsAllZero(t *testing.T) {
	vs := make([]int32, 32)
	got := CompressedBits(vs, fixed.W16)
	// Two groups × (16 mask + 5 precision) bits.
	if got != 2*(16+5) {
		t.Errorf("all-zero compressed bits = %d, want 42", got)
	}
}

func TestCompressedBitsBeatsRawOnSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]int32, 4096)
	m := sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 5, SigmaLog2: 2}
	for i := range vs {
		vs[i] = m.Sample(rng, fixed.W16)
	}
	raw := int64(len(vs) * 16)
	got := CompressedBits(vs, fixed.W16)
	if got >= raw {
		t.Errorf("compressed %d bits >= raw %d on a sparse low-precision stream", got, raw)
	}
}

func TestCompressedBitsBoundedOverhead(t *testing.T) {
	// Worst case (dense full-precision groups) must stay within the mask +
	// header overhead of raw.
	f := func(raws []int32) bool {
		if len(raws) == 0 {
			return true
		}
		vs := make([]int32, len(raws))
		for i, r := range raws {
			vs[i] = fixed.Sat(int64(r), fixed.W16)
		}
		got := CompressedBits(vs, fixed.W16)
		raw := int64(len(vs)) * 16
		groups := int64((len(vs) + 15) / 16)
		return got <= raw+groups*(16+5)+int64(len(vs)) // mask+header+sign bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGroupWindowCoversMembers(t *testing.T) {
	// The group precision window must reconstruct every member exactly:
	// the bits package contract the compress codec's lossless round trip
	// relies on.
	vs := []int32{0x0080, -0x0002, 0, 0x7FFF}
	p := bits.GroupPrecision(vs, fixed.W16)
	for _, v := range vs {
		if v == 0 {
			continue
		}
		m := v
		if m < 0 {
			m = -m
		}
		if uint32(m)>>uint(p.Lo)<<uint(p.Lo) != uint32(m) {
			t.Errorf("value %#x loses bits below Lo=%d", v, p.Lo)
		}
	}
}

func TestMetadataBits(t *testing.T) {
	p := sched.T(2, 5) // 8-input mux -> 3 select bits
	s := &sched.Schedule{Lanes: 16, DenseSteps: 4, Columns: make([]sched.Column, 4)}
	got := MetadataBits(s, p)
	want := int64(4) * (16*3 + 2) // 4 columns × (16 lanes × 3b + 2b ALC)
	if got != want {
		t.Errorf("MetadataBits = %d, want %d", got, want)
	}
	if MetadataBits(&sched.Schedule{Lanes: 16}, p) != 0 {
		t.Error("empty schedule should have no metadata")
	}
}

func TestCeilLog2(t *testing.T) {
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4} {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func mkLayer(t *testing.T) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: 20, C: 32, R: 3, S: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
	l.Weights = tensor.New(20, 32, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.6)
	act := tensor.New(1, 32, 8, 8)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 5, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func TestLayerTraffic(t *testing.T) {
	lw := mkLayer(t)
	base := LayerTraffic(arch.DaDianNaoPP(), lw)
	tcl := LayerTraffic(arch.TCLe(sched.T(2, 5)), lw)
	if base.MetadataBytes != 0 {
		t.Error("baseline must not carry schedule metadata")
	}
	if tcl.MetadataBytes <= 0 {
		t.Error("TCL must carry schedule metadata")
	}
	if base.WeightBytes != tcl.WeightBytes || base.ActInBytes != tcl.ActInBytes {
		t.Error("compressed value streams should match across configs")
	}
	if base.ActOutBytes <= 0 || base.WeightBytes <= 0 {
		t.Errorf("missing traffic components: %+v", base)
	}
	// Compression must beat raw.
	raw := int64(lw.Layer().Weights.Shape.Elems() * 2)
	if base.WeightBytes >= raw {
		t.Errorf("compressed weights %dB >= raw %dB", base.WeightBytes, raw)
	}
}

// TestMetadataReadsEngineSchedules pins that pricing a layer's schedule
// metadata, like any walk of its filter groups, reads the schedules the
// engine cached: after a default-options simulation of a (config, layer),
// LayerTraffic and sim.LayerSchedules on the same pair hit sched.Shared
// once per filter group and never miss.
func TestMetadataReadsEngineSchedules(t *testing.T) {
	lw := mkLayer(t)
	cfg := arch.TCLe(sched.T(2, 5))
	if _, err := sim.SimulateLayerContext(context.Background(), cfg, lw, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	groups := int64((lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile)
	check := func(what string, walk func()) {
		t.Helper()
		before := sched.Shared.Stats()
		walk()
		after := sched.Shared.Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != groups || misses != 0 {
			t.Errorf("%s after the engine: %d hits, %d misses; want %d hits, 0 misses", what, hits, misses, groups)
		}
	}
	check("LayerTraffic", func() { LayerTraffic(cfg, lw) })
	check("LayerSchedules", func() {
		err := sim.LayerSchedules(cfg, lw, func(int, []sched.Filter, []*sched.Schedule) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestMemCyclesAndBound(t *testing.T) {
	tr := Traffic{WeightBytes: 640, ActInBytes: 640}
	tech := Tech{Name: "x", GBs: 12.8}
	if got := MemCycles(tr, tech, 1.0); got != 100 {
		t.Errorf("MemCycles = %d, want 100", got)
	}
	if got := BoundedCycles(50, tr, tech, 1.0); got != 100 {
		t.Errorf("memory-bound layer should take 100 cycles, got %d", got)
	}
	if got := BoundedCycles(500, tr, tech, 1.0); got != 500 {
		t.Errorf("compute-bound layer should take 500 cycles, got %d", got)
	}
	inf, _ := TechByName("infinite")
	if got := BoundedCycles(50, tr, inf, 1.0); got != 50 {
		t.Errorf("infinite memory must never bind, got %d", got)
	}
}

func TestWeakerMemoryNeverFaster(t *testing.T) {
	lw := mkLayer(t)
	tr := LayerTraffic(arch.TCLe(sched.T(2, 5)), lw)
	prev := int64(0)
	for i := len(Techs) - 1; i >= 0; i-- { // strongest (infinite) to weakest
		c := BoundedCycles(1000, tr, Techs[i], 1.0)
		if c < prev {
			t.Errorf("%s: bounded cycles %d faster than stronger tech %d", Techs[i].Name, c, prev)
		}
		prev = c
	}
}

func TestSSMetadataBeatsRaw(t *testing.T) {
	lw := mkLayer(t)
	cfg := arch.TCLe(sched.T(2, 5))
	pad := make([]bool, lw.Steps*lw.Lanes)
	var raw, ss int64
	for f0 := 0; f0 < lw.Filters; f0 += 16 {
		f1 := f0 + 16
		if f1 > lw.Filters {
			f1 = lw.Filters
		}
		filters := make([]sched.Filter, f1-f0)
		for i := range filters {
			filters[i] = sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(f0+i), pad)
		}
		for _, s := range sched.ScheduleGroup(filters, cfg.Pattern, cfg.Scheduler) {
			raw += MetadataBits(s, cfg.Pattern)
			ss += SSMetadataBits(s, cfg.Pattern)
		}
	}
	ss += SSTableBits(cfg.Pattern, lw.Lanes)
	if ss >= raw {
		t.Errorf("SS metadata %d bits should undercut raw %d", ss, raw)
	}
	if ss <= 0 {
		t.Error("SS metadata empty")
	}
}

func TestSSMetadataEmptySchedule(t *testing.T) {
	if SSMetadataBits(&sched.Schedule{Lanes: 16}, sched.T(2, 5)) != 0 {
		t.Error("empty schedule should cost nothing")
	}
	if SSTableBits(sched.T(2, 5), 16) != 16*16*3 {
		t.Errorf("SS table bits = %d", SSTableBits(sched.T(2, 5), 16))
	}
}

func TestActRefetchOnCapacityCliff(t *testing.T) {
	lw := mkLayer(t)
	small := arch.DaDianNaoPP()
	small.ASBytesPerTile = 64 // far below the layer's activation footprint
	big := arch.DaDianNaoPP()
	ts, tb := LayerTraffic(small, lw), LayerTraffic(big, lw)
	// 20 filters -> 2 groups -> 1 round on 4 tiles: no refetch even when
	// starved...
	if ts.ActInBytes != tb.ActInBytes {
		t.Fatalf("single-round layer should not refetch (%d vs %d)", ts.ActInBytes, tb.ActInBytes)
	}
	// ...but a 5-round layer must refetch 5x.
	rng := rand.New(rand.NewSource(3))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: 320, C: 32, R: 3, S: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
	l.Weights = tensor.New(320, 32, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, 0.5)
	act := tensor.New(1, 32, 8, 8)
	sparsity.ActModel{ZeroFrac: 0.3, MeanLog2: 8, SigmaLog2: 2}.FillTensor(rng, act, fixed.W16)
	wide, _ := nn.Lower(l, act, 16)
	ws, wb := LayerTraffic(small, wide), LayerTraffic(big, wide)
	if ws.ActInBytes != 5*wb.ActInBytes {
		t.Errorf("starved 5-round layer refetched %dx, want 5x", ws.ActInBytes/wb.ActInBytes)
	}
}
