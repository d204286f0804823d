// Package dataflow chooses each layer's blocking — the loop order and
// partial-sum blocking factor — to minimize on-chip access energy, the
// optimization the paper applies to its baseline ("the dataflow is
// optimized to minimize energy for DaDianNao++", Section 6, after the
// systematic-blocking approach of Yang et al.).
//
// The architecture fixes the inner dataflow (weights shared along PE rows,
// activations along PE columns, Section 5.3); what remains free per layer
// is the outer traversal:
//
//   - how many window groups to process per weight-column residency
//     (bounded by the PE's psum registers — each resident window group
//     needs one);
//   - whether the outer loop walks windows inside filter groups
//     (weight-stationary: weights read once, activations re-streamed per
//     filter group) or filter groups inside windows (activation-stationary:
//     activations read once, weights re-streamed per window block).
//
// Optimize enumerates the candidate blockings, prices their scratchpad
// traffic, and returns the cheapest — with the access counts the energy
// model consumes.
package dataflow

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
)

// Order is the outer traversal choice.
type Order int

const (
	// WeightStationary keeps a filter group resident and streams all its
	// windows before moving on (the default the sim package assumes).
	WeightStationary Order = iota
	// ActStationary keeps a window block resident and streams all filter
	// groups over it.
	ActStationary
)

func (o Order) String() string {
	if o == ActStationary {
		return "act-stationary"
	}
	return "weight-stationary"
}

// Choice is one evaluated blocking.
type Choice struct {
	Order Order
	// PsumBlock is the number of window groups resident per weight-column
	// read (1..PsumRegsPerPE).
	PsumBlock int
	// WSColumnReads and ASValueReads are the scratchpad access counts the
	// blocking induces for the whole layer.
	WSColumnReads int64
	ASValueReads  int64
	// EnergyPJ is the priced scratchpad traffic (the objective).
	EnergyPJ float64
}

func (c Choice) String() string {
	return fmt.Sprintf("%s, psum block %d (%.0f pJ)", c.Order, c.PsumBlock, c.EnergyPJ)
}

// Costs price one scratchpad access of each kind (defaults match the energy
// package's 65 nm constants for a 16-bit value).
type Costs struct {
	WSColumnPJ float64 // one weight-column read (lanes × width bits)
	ASValuePJ  float64 // one activation value read
}

// DefaultCosts returns the 65 nm per-access prices at 16 bits.
func DefaultCosts() Costs {
	return Costs{WSColumnPJ: 0.65 * 32, ASValuePJ: 1.35 * 2}
}

// Enumerate returns every candidate blocking for the layer under the
// configuration, priced.
func Enumerate(cfg arch.Config, lw *nn.Lowered, k Costs) []Choice {
	cols := int64(lw.Steps) // dense columns bound the schedule length
	wg := int64(cfg.WindowsPerTile)
	numWGroups := (int64(lw.WindowCount) + wg - 1) / wg
	groups := int64(cfg.FilterGroups(lw.Filters))
	// Activation footprint streamed per full pass over the windows.
	actPass := int64(lw.Steps) * int64(lw.Lanes) * numWGroups

	var out []Choice
	for r := 1; r <= cfg.PsumRegsPerPE; r++ {
		rounds := (numWGroups + int64(r) - 1) / int64(r)
		// Weight-stationary: per filter group, every column is re-read once
		// per psum round; activations stream once per filter group.
		ws := Choice{
			Order:         WeightStationary,
			PsumBlock:     r,
			WSColumnReads: groups * cols * rounds,
			ASValueReads:  groups * actPass,
		}
		// Act-stationary: activations stream once; weights re-read per
		// window block of r groups.
		as := Choice{
			Order:         ActStationary,
			PsumBlock:     r,
			WSColumnReads: groups * cols * rounds,
			ASValueReads:  actPass,
		}
		// Act-stationary needs the window block's psums to survive the
		// filter-group sweep: the same psum registers hold them, so the
		// factor applies identically; the difference is the activation
		// stream amortization.
		for _, c := range []Choice{ws, as} {
			c.EnergyPJ = float64(c.WSColumnReads)*k.WSColumnPJ + float64(c.ASValueReads)*k.ASValuePJ
			out = append(out, c)
		}
	}
	return out
}

// Optimize returns the cheapest blocking for the layer.
func Optimize(cfg arch.Config, lw *nn.Lowered, k Costs) Choice {
	cands := Enumerate(cfg, lw, k)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.EnergyPJ < best.EnergyPJ {
			best = c
		}
	}
	return best
}

// Plan optimizes every layer of a lowered model and returns the choices
// with the summed energy.
func Plan(cfg arch.Config, lws []*nn.Lowered, k Costs) ([]Choice, float64) {
	out := make([]Choice, len(lws))
	var total float64
	for i, lw := range lws {
		out[i] = Optimize(cfg, lw, k)
		total += out[i].EnergyPJ
	}
	return out, total
}
