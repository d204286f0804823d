// Package energy prices the simulator's activity counts into the paper's
// energy results (Figure 8c) and reproduces the post-layout area accounting
// of Table 3.
//
// Substitution note (DESIGN.md §2): the paper measures energy over a TSMC
// 65 nm layout with CACTI-modeled SRAMs and Micron's DDR4 power calculator.
// Those flows reduce to (activity count × per-event cost); this package
// supplies 65 nm-calibrated per-event constants and applies them to the
// same activity counts the simulator produces.
package energy

import (
	"bittactical/internal/arch"
	"bittactical/internal/memory"
	"bittactical/internal/sim"
)

// Constants are per-event energies in pJ at 65 nm / 1 GHz. Back-end-specific
// serial-lane and offset-encode energies live on the registered
// backend.Backend's EnergyCoeffs; the fields below price the events every
// back-end shares.
type Constants struct {
	// MultMAC16 is a full 16-bit multiply plus its adder-tree share.
	MultMAC16 float64
	// Mux is one activation-multiplexer switch.
	Mux float64
	// WSReadPerByte / ASReadPerByte price the banked scratchpads.
	WSReadPerByte float64
	ASReadPerByte float64
	// PsumAccess is one partial-sum register read+write.
	PsumAccess float64
}

// Defaults65nm returns the calibrated constants.
func Defaults65nm() Constants {
	return Constants{
		MultMAC16:     3.1,
		Mux:           0.03,
		WSReadPerByte: 0.65,
		ASReadPerByte: 1.35,
		PsumAccess:    0.20,
	}
}

// An 8-bit multiplier costs roughly a quarter of a 16-bit one;
// scaleForWidth adjusts the multiply constant. Serial lanes cost roughly
// half, which Price applies to the back-end's own coefficients.
func (c Constants) scaleForWidth(bits int) Constants {
	if bits >= 16 {
		return c
	}
	s := float64(bits) / 16.0
	c.MultMAC16 *= s * s // multiplier area/energy ~ quadratic in width
	return c
}

// Breakdown is one run's energy split, in pJ, matching Figure 8c's stacks.
type Breakdown struct {
	LogicPJ   float64
	OnChipPJ  float64
	OffChipPJ float64
}

// TotalPJ sums the stacks.
func (b Breakdown) TotalPJ() float64 { return b.LogicPJ + b.OnChipPJ + b.OffChipPJ }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.LogicPJ += o.LogicPJ
	b.OnChipPJ += o.OnChipPJ
	b.OffChipPJ += o.OffChipPJ
}

// Price converts activity + traffic into an energy breakdown for the
// configuration under the given off-chip technology. The back-end-specific
// serial-lane and offset-encode coefficients come from the configuration's
// registered back-end and scale linearly with width.
func Price(cfg arch.Config, act sim.Activity, traffic memory.Traffic, tech memory.Tech, k Constants) Breakdown {
	k = k.scaleForWidth(int(cfg.Width))
	var b Breakdown

	// Logic.
	b.LogicPJ += float64(act.ParallelMACs) * k.MultMAC16
	if cfg.Backend != nil {
		ec := cfg.Backend.Energy()
		serialOp, offsetEncode := ec.SerialOpPJ, ec.OffsetEncodePJ
		if bits := int(cfg.Width); bits < 16 {
			s := float64(bits) / 16.0
			serialOp *= s
			offsetEncode *= s
		}
		if serialOp != 0 {
			b.LogicPJ += float64(act.SerialLaneCycles) * serialOp
		}
		if offsetEncode != 0 {
			b.LogicPJ += float64(act.OffsetEncodes) * offsetEncode
		}
	}
	b.LogicPJ += float64(act.MuxSelects) * k.Mux

	// On-chip buffers.
	bytesPerValue := float64(int(cfg.Width)) / 8
	wsColumnBytes := float64(cfg.Lanes) * bytesPerValue
	b.OnChipPJ += float64(act.WSColumnReads) * wsColumnBytes * k.WSReadPerByte
	b.OnChipPJ += float64(act.ActReads) * bytesPerValue * k.ASReadPerByte
	b.OnChipPJ += float64(act.PsumAccesses) * k.PsumAccess

	// Off-chip transfers.
	b.OffChipPJ += float64(traffic.Total()) * tech.PJPerByte
	return b
}

// ---- Table 3: area ----

// Area is the Table 3 breakdown in mm² at 65 nm.
type Area struct {
	ComputeCore    float64
	WeightMemory   float64
	ActSelectUnit  float64
	ActInputBuffer float64
	ActOutputBuf   float64
	ActMemory      float64
	Dispatcher     float64
	OffsetGen      float64
}

// Total sums the components.
func (a Area) Total() float64 {
	return a.ComputeCore + a.WeightMemory + a.ActSelectUnit + a.ActInputBuffer +
		a.ActOutputBuf + a.ActMemory + a.Dispatcher + a.OffsetGen
}

// AreaOf reproduces Table 3's accounting for a configuration. The itemized
// column values for TCLe/TCLp L8<1,6> and DaDianNao++ are calibration
// anchors; lookahead depth scales the ASU/ABR and activation-buffer terms
// (Table 2 sizes the activation buffer at 1KB × (h+1) per tile).
func AreaOf(cfg arch.Config) Area {
	a := Area{
		WeightMemory: 3.57,
		ActOutputBuf: 0.11,
		ActMemory:    54.25,
	}
	lanesTotal := float64(cfg.Tiles * cfg.FiltersPerTile * cfg.WindowsPerTile * cfg.Lanes)
	ac := cfg.Backend.Area()
	a.ComputeCore = lanesTotal * ac.ComputeCorePerLaneMM2
	a.Dispatcher = ac.DispatcherMM2
	a.OffsetGen = ac.OffsetGenMM2
	h := 0
	if cfg.HasFrontEnd() {
		h = cfg.Pattern.H
		if cfg.Pattern.Infinite {
			h = 15 // the impractical X design needs the full window
		}
	}
	// Activation buffer: one bank per lookahead position.
	a.ActInputBuffer = 0.085 * float64(h+1)
	if cfg.HasFrontEnd() {
		// ASU: ABRs + shuffling muxes, scaling with window depth and the
		// per-activation wire width (4-bit oneffsets vs single bit).
		wires := ac.ASUWireBits
		a.ActSelectUnit = 0.0094 * float64(cfg.Tiles) * float64(h+1) * wires
		// Sparse shuffling network: one (h+d+1)-input mux per lane.
		a.ComputeCore += 0.45e-4 * lanesTotal * float64(cfg.Pattern.MuxInputs()) / 8 * wires / 4
	}
	return a
}

// NormalizedArea returns the configuration's total area relative to
// DaDianNao++ (Table 3's bottom rows).
func NormalizedArea(cfg arch.Config) float64 {
	return AreaOf(cfg).Total() / AreaOf(arch.DaDianNaoPP()).Total()
}
