package energy

import (
	"math"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/memory"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

func TestDaDianNaoArea(t *testing.T) {
	// Table 3 anchor: DaDianNao++ totals 61.29 mm².
	got := AreaOf(arch.DaDianNaoPP()).Total()
	if math.Abs(got-61.29) > 0.15 {
		t.Errorf("DaDianNao++ area = %.2f, want ≈61.29", got)
	}
}

func TestTable3ItemizedAnchors(t *testing.T) {
	// TCLe / TCLp L8<1,6> column values.
	e := AreaOf(arch.TCLe(sched.L(1, 6)))
	if math.Abs(e.ComputeCore-19.28) > 0.5 {
		t.Errorf("TCLe compute core = %.2f, want ≈19.28", e.ComputeCore)
	}
	if e.OffsetGen != 2.89 {
		t.Errorf("TCLe offset generator = %.2f, want 2.89", e.OffsetGen)
	}
	if math.Abs(e.ActInputBuffer-0.17) > 0.01 {
		t.Errorf("TCLe act input buffer = %.3f, want ≈0.17", e.ActInputBuffer)
	}
	p := AreaOf(arch.TCLp(sched.L(1, 6)))
	if math.Abs(p.ComputeCore-9.22) > 0.3 {
		t.Errorf("TCLp compute core = %.2f, want ≈9.22", p.ComputeCore)
	}
	if p.OffsetGen != 0 {
		t.Error("TCLp has no offset generator")
	}
}

func TestTable3NormalizedTotals(t *testing.T) {
	// Paper: TCLe 1.32–1.37×, TCLp 1.10–1.11×.
	for _, pat := range []sched.Pattern{sched.L(1, 6), sched.L(2, 5), sched.L(4, 3), sched.T(2, 5)} {
		ne := NormalizedArea(arch.TCLe(pat))
		np := NormalizedArea(arch.TCLp(pat))
		if ne < 1.28 || ne > 1.42 {
			t.Errorf("%s TCLe normalized area %.3f outside paper band", pat.Name, ne)
		}
		if np < 1.07 || np > 1.15 {
			t.Errorf("%s TCLp normalized area %.3f outside paper band", pat.Name, np)
		}
	}
}

func TestAreaGrowsWithLookahead(t *testing.T) {
	prev := 0.0
	for _, h := range []int{1, 2, 4} {
		a := AreaOf(arch.TCLe(sched.L(h, 6-h+1))).Total()
		if a <= prev {
			t.Errorf("area must grow with lookahead: h=%d gives %.2f after %.2f", h, a, prev)
		}
		prev = a
	}
}

func TestPriceComponents(t *testing.T) {
	k := Defaults65nm()
	tech, _ := memory.TechByName("LPDDR4-3200")
	act := sim.Activity{
		SerialLaneCycles: 1000, ParallelMACs: 0, WSColumnReads: 10,
		ActReads: 100, MuxSelects: 50, PsumAccesses: 20, OffsetEncodes: 30,
	}
	tr := memory.Traffic{WeightBytes: 100, ActInBytes: 100}
	e := Price(arch.TCLe(sched.T(2, 5)), act, tr, tech, k)
	if e.LogicPJ <= 0 || e.OnChipPJ <= 0 || e.OffChipPJ <= 0 {
		t.Errorf("missing energy components: %+v", e)
	}
	wantOff := 200.0 * tech.PJPerByte
	if math.Abs(e.OffChipPJ-wantOff) > 1e-9 {
		t.Errorf("off-chip = %v, want %v", e.OffChipPJ, wantOff)
	}
	// TCLe pays for offset encoding; TCLp does not.
	p := Price(arch.TCLp(sched.T(2, 5)), act, tr, tech, k)
	if p.LogicPJ >= e.LogicPJ {
		t.Errorf("TCLp logic %v should be below TCLe logic %v at equal activity", p.LogicPJ, e.LogicPJ)
	}
}

func TestPriceBaselineUsesMultipliers(t *testing.T) {
	k := Defaults65nm()
	tech, _ := memory.TechByName("infinite")
	act := sim.Activity{ParallelMACs: 1000, SerialLaneCycles: 5000}
	b := Price(arch.DaDianNaoPP(), act, memory.Traffic{}, tech, k)
	if math.Abs(b.LogicPJ-1000*k.MultMAC16) > 1e-9 {
		t.Errorf("baseline logic %v should price only multipliers", b.LogicPJ)
	}
}

func TestWidthScaling(t *testing.T) {
	k := Defaults65nm()
	k8 := k.scaleForWidth(8)
	if k8.MultMAC16 >= k.MultMAC16/3 {
		t.Errorf("8b multiply %v should be ~quadratically cheaper than %v", k8.MultMAC16, k.MultMAC16)
	}
	if got := k.scaleForWidth(16); got != k {
		t.Error("16b scaling must be identity")
	}
	// Serial lanes and the offset generator scale linearly: at equal
	// activity an 8-bit TCLe pays exactly half the 16-bit logic energy.
	tech, _ := memory.TechByName("infinite")
	act := sim.Activity{SerialLaneCycles: 12345, OffsetEncodes: 678}
	cfg := arch.TCLe(sched.T(2, 5))
	e16 := Price(cfg, act, memory.Traffic{}, tech, k)
	e8 := Price(cfg.WithWidth(fixed.W8), act, memory.Traffic{}, tech, k)
	if e16.LogicPJ <= 0 || e8.LogicPJ != e16.LogicPJ/2 {
		t.Errorf("8b TCLe logic %v, want exactly half of 16b %v", e8.LogicPJ, e16.LogicPJ)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{LogicPJ: 1, OnChipPJ: 2, OffChipPJ: 3}
	a.Add(Breakdown{LogicPJ: 1, OnChipPJ: 1, OffChipPJ: 1})
	if a.TotalPJ() != 9 {
		t.Errorf("TotalPJ = %v, want 9", a.TotalPJ())
	}
}

func TestXPatternAreaIsImpractical(t *testing.T) {
	x := AreaOf(arch.FrontEndOnly(sched.X()))
	l := AreaOf(arch.FrontEndOnly(sched.T(2, 5)))
	if x.Total() <= l.Total() {
		t.Errorf("X<inf,15> area %.2f should exceed T8<2,5> %.2f", x.Total(), l.Total())
	}
}

func TestPeakTOPSAnchors(t *testing.T) {
	// Table 2: DaDianNao++ peak compute 2 TOPS.
	if got := arch.DaDianNaoPP().PeakTOPS(); math.Abs(got-2.048) > 0.06 {
		t.Errorf("DaDianNao++ peak = %.2f TOPS, want ≈2", got)
	}
}
