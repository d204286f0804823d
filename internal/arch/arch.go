// Package arch describes the hardware configurations of the paper's Table 2:
// the DaDianNao++ dense baseline and the TCL variants (front-end pattern ×
// back-end kind), plus the tile geometry every timing model shares.
package arch

import (
	"fmt"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

// Config is one accelerator configuration (Table 2).
type Config struct {
	Name string
	// Tiles in the chip grid (4 in the evaluation, matching SCNN's 1K
	// multipliers).
	Tiles int
	// FiltersPerTile is the number of PE rows (filters resident) per tile.
	FiltersPerTile int
	// Lanes is the number of weight lanes (multipliers) per PE.
	Lanes int
	// WindowsPerTile is the number of PE columns — activation windows
	// processed concurrently. 1 for the bit-parallel baseline; 16 for the
	// serial back-ends (needed to exceed bit-parallel throughput).
	WindowsPerTile int
	// Width is the datapath width.
	Width fixed.Width
	// Pattern is the front-end connectivity; zero-valued (no offsets, H=0)
	// means no weight skipping (the dense baseline).
	Pattern sched.Pattern
	// Backend is the activation consumption model: per-value serial cost,
	// reference arithmetic, serial term stream, and energy/area coefficients
	// (see internal/backend). Any registered back-end drops in here.
	Backend backend.Backend
	// Scheduler is the software scheduling heuristic.
	Scheduler sched.Algorithm
	// PsumRegsPerPE is the number of output partial-sum registers (4 in the
	// studied configurations), enabling temporal reuse.
	PsumRegsPerPE int
	// FrequencyGHz is the clock (1 GHz in the paper).
	FrequencyGHz float64

	// ASBytesPerTile sizes the activation scratchpad (Table 2: 32 KB × 32
	// banks per tile).
	ASBytesPerTile int
}

// HasFrontEnd reports whether the config performs weight skipping.
func (c Config) HasFrontEnd() bool {
	return c.Pattern.Infinite || len(c.Pattern.Offsets) > 0
}

// Serial reports whether the configured back-end streams activations over
// multiple cycles (false for a nil back-end, like the zero Config).
func (c Config) Serial() bool {
	return c.Backend != nil && c.Backend.Serial()
}

// FilterGroups is how many groups a layer's filters form on c (Section
// 5.3): a group fills one tile's FiltersPerTile PE rows, the last one
// short.
func (c Config) FilterGroups(filters int) int {
	return (filters + c.FiltersPerTile - 1) / c.FiltersPerTile
}

// DenseCycles is the DaDianNao++ time of a layer lowered to steps dense
// steps over windows windows on c's tile geometry: its filter groups run
// c.Tiles at a time, and each round takes every step of every window. It
// is the basis every speedup here is normalized to.
func (c Config) DenseCycles(filters, steps, windows int) int64 {
	rounds := (c.FilterGroups(filters) + c.Tiles - 1) / c.Tiles
	return int64(rounds) * int64(steps) * int64(windows)
}

// PeakMACsPerCycle is the chip's dense-equivalent multiply bandwidth.
func (c Config) PeakMACsPerCycle() int64 {
	per := int64(c.Tiles) * int64(c.FiltersPerTile) * int64(c.Lanes) * int64(c.WindowsPerTile)
	if c.Serial() {
		// A serial lane needs Width cycles for a full-precision activation.
		per /= int64(c.Width)
	}
	return per
}

// PeakTOPS is peak tera-operations (MAC = 2 ops) per second.
func (c Config) PeakTOPS() float64 {
	return float64(2*c.PeakMACsPerCycle()) * c.FrequencyGHz / 1e3
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Tiles <= 0 || c.FiltersPerTile <= 0 || c.Lanes <= 0 || c.WindowsPerTile <= 0 || c.PsumRegsPerPE <= 0 {
		return fmt.Errorf("arch: %s: non-positive geometry", c.Name)
	}
	if !c.Width.Valid() {
		return fmt.Errorf("arch: %s: invalid width %d", c.Name, int(c.Width))
	}
	if c.Backend == nil {
		return fmt.Errorf("arch: %s: nil back-end (build configs through the arch constructors or set Backend explicitly)", c.Name)
	}
	if c.Serial() && c.WindowsPerTile < int(c.Width)/2 {
		return fmt.Errorf("arch: %s: serial back-end with %d windows cannot reach baseline throughput",
			c.Name, c.WindowsPerTile)
	}
	return c.Pattern.Validate()
}

// base returns the common Table 2 skeleton.
func base() Config {
	return Config{
		Tiles:          4,
		FiltersPerTile: 16,
		Lanes:          16,
		WindowsPerTile: 1,
		Width:          fixed.W16,
		PsumRegsPerPE:  4,
		FrequencyGHz:   1.0,
		ASBytesPerTile: 32 * 1024 * 32,
		Backend:        backend.MustLookup("bit-parallel"),
	}
}

// DaDianNaoPP is the dense bit-parallel baseline all results normalize to.
func DaDianNaoPP() Config {
	c := base()
	c.Name = "DaDianNao++"
	return c
}

// FrontEndOnly is a TCL configuration with weight skipping but a
// bit-parallel back-end (the subject of Figure 8a).
func FrontEndOnly(p sched.Pattern) Config {
	c := base()
	c.Name = "TCL-FE/" + p.Name
	c.Pattern = p
	return c
}

// TCLp is the TCL design whose back-end streams activations bit-serially
// over their per-group dynamic precision window (Dynamic-Stripes-style,
// Section 5.2).
func TCLp(p sched.Pattern) Config { return NewTCL(p, backend.MustLookup("TCLp")) }

// TCLe is the TCL design whose back-end streams activations serially over
// their Booth-encoded effectual terms (Pragmatic-style oneffsets, Section
// 5.2).
func TCLe(p sched.Pattern) Config { return NewTCL(p, backend.MustLookup("TCLe")) }

// NewTCL builds a full TCL configuration with the given pattern and any
// registered back-end; serial back-ends process 16 windows concurrently
// (Section 5.2).
func NewTCL(p sched.Pattern, be backend.Backend) Config {
	c := base()
	c.Pattern = p
	c.Backend = be
	if be.Serial() {
		c.WindowsPerTile = 16
	}
	c.Name = fmt.Sprintf("%s/%s", be.Name(), p.Name)
	return c
}

// WithWidth returns a copy of the config at a different data width. Serial
// back-ends provision one PE column per data bit — the count that matches
// the bit-parallel baseline's peak throughput at full precision — so an
// 8-bit TCL tile has 8 window columns where the 16-bit tile has 16.
func (c Config) WithWidth(w fixed.Width) Config {
	c.Width = w
	if c.Serial() {
		c.WindowsPerTile = int(w)
	}
	return c
}
