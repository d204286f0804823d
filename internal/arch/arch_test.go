package arch

import (
	"math"
	"testing"

	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

func TestDaDianNaoPPDefaults(t *testing.T) {
	c := DaDianNaoPP()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Tiles != 4 || c.FiltersPerTile != 16 || c.Lanes != 16 || c.WindowsPerTile != 1 {
		t.Errorf("geometry %+v disagrees with Table 2", c)
	}
	if c.HasFrontEnd() {
		t.Error("baseline must not have a front-end")
	}
	if c.Backend.Name() != "bit-parallel" || c.Serial() {
		t.Error("baseline back-end must be bit-parallel")
	}
	// Table 2: 2 TOPS peak.
	if math.Abs(c.PeakTOPS()-2.048) > 0.05 {
		t.Errorf("peak = %v TOPS", c.PeakTOPS())
	}
}

func TestNewTCLWindows(t *testing.T) {
	e := TCLe(sched.T(2, 5))
	if e.WindowsPerTile != 16 {
		t.Errorf("serial back-end needs 16 windows, got %d", e.WindowsPerTile)
	}
	if !e.HasFrontEnd() {
		t.Error("TCL config must have a front-end")
	}
	fe := FrontEndOnly(sched.T(2, 5))
	if fe.WindowsPerTile != 1 || fe.Serial() {
		t.Error("front-end-only keeps the bit-parallel single-window tile")
	}
}

func TestPeakThroughputParity(t *testing.T) {
	// The serial tiles' peak dense-equivalent throughput matches the
	// bit-parallel baseline (Section 5.2: 16 windows compensate 16b serial).
	base := DaDianNaoPP().PeakMACsPerCycle()
	for _, c := range []Config{TCLp(sched.T(2, 5)), TCLe(sched.T(2, 5))} {
		if got := c.PeakMACsPerCycle(); got != base {
			t.Errorf("%s peak %d != baseline %d", c.Name, got, base)
		}
		c8 := c.WithWidth(fixed.W8)
		if c8.WindowsPerTile != 8 {
			t.Errorf("8b %s windows = %d, want 8", c.Name, c8.WindowsPerTile)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	c := DaDianNaoPP()
	c.Tiles = 0
	if c.Validate() == nil {
		t.Error("accepted zero tiles")
	}
	c = DaDianNaoPP()
	c.Width = 13
	if c.Validate() == nil {
		t.Error("accepted invalid width")
	}
	c = DaDianNaoPP()
	c.PsumRegsPerPE = 0
	if c.Validate() == nil {
		t.Error("accepted zero partial-sum registers")
	}
	c = TCLe(sched.T(2, 5))
	c.WindowsPerTile = 2
	if c.Validate() == nil {
		t.Error("accepted starved serial tile")
	}
	bad := TCLe(sched.Pattern{Name: "x", H: 1, Offsets: []sched.Offset{{Dt: 9}}})
	if bad.Validate() == nil {
		t.Error("accepted invalid pattern")
	}
	if TCLe(sched.L(65, 0)).Validate() == nil {
		t.Error("accepted a 65-offset pattern")
	}
}

func TestValidateRejectsNilBackend(t *testing.T) {
	c := DaDianNaoPP()
	c.Backend = nil
	if c.Validate() == nil {
		t.Error("accepted nil back-end")
	}
}

func TestConfigNames(t *testing.T) {
	if n := TCLe(sched.T(2, 5)).Name; n != "TCLe/T8<2,5>" {
		t.Errorf("name = %q", n)
	}
	if n := TCLp(sched.L(2, 5)).Name; n != "TCLp/L8<2,5>" {
		t.Errorf("name = %q", n)
	}
	if n := FrontEndOnly(sched.L(1, 6)).Name; n != "TCL-FE/L8<1,6>" {
		t.Errorf("name = %q", n)
	}
}
