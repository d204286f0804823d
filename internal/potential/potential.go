// Package potential computes the paper's Table 1: the fraction of work that
// could ideally be removed by each sparsity source, expressed as a speedup
// over performing every computation. Definitions follow Section 2:
//
//	A    — skip multiply-accumulates whose activation is zero;
//	W    — skip MACs whose weight is zero;
//	W+A  — skip MACs where either operand is zero;
//	Ap   — process activations at their dynamic precision, detected per
//	       group of 16 concurrent activations as Dynamic Stripes' hardware
//	       does (zero groups cost nothing);
//	Ae   — process only each activation's effectual Booth terms (Pragmatic);
//	W+Ap — skip zero weights and pay group precision on the survivors;
//	W+Ae — skip zero weights and pay effectual terms on the survivors.
//
// Bit-granular sources normalize serial cycles against the full data width,
// so a dense 16-bit execution counts 16 cycle-units per MAC.
package potential

import (
	"fmt"

	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/tensor"
)

// Keys lists the Table 1 columns in order.
var Keys = []string{"A", "W", "W+A", "Ap", "Ae", "W+Ap", "W+Ae"}

// Tally accumulates total and per-source remaining work in MAC-units
// (bit-granular sources are divided by the data width at the end).
type Tally struct {
	widthBits float64
	// total is the dense pair count ×1 (value sources) and ×width (bit
	// sources share the same denominator after normalization).
	totalPairs float64
	remA       float64
	remW       float64
	remWA      float64
	remApBits  float64
	remAeBits  float64
	remWApBits float64
	remWAeBits float64
}

// Add merges another tally.
func (t *Tally) Add(o Tally) {
	t.totalPairs += o.totalPairs
	t.remA += o.remA
	t.remW += o.remW
	t.remWA += o.remWA
	t.remApBits += o.remApBits
	t.remAeBits += o.remAeBits
	t.remWApBits += o.remWApBits
	t.remWAeBits += o.remWAeBits
}

// Potentials returns the speedup potential per source key.
func (t Tally) Potentials() map[string]float64 {
	ratio := func(remaining float64) float64 {
		if remaining <= 0 {
			return float64(t.widthBits) // every cycle removed saturates at width×
		}
		return t.totalPairs / remaining
	}
	return map[string]float64{
		"A":    ratio(t.remA),
		"W":    ratio(t.remW),
		"W+A":  ratio(t.remWA),
		"Ap":   ratio(t.remApBits / t.widthBits),
		"Ae":   ratio(t.remAeBits / t.widthBits),
		"W+Ap": ratio(t.remWApBits / t.widthBits),
		"W+Ae": ratio(t.remWAeBits / t.widthBits),
	}
}

// AnalyzeLayer tallies one lowered layer at the given data width. It walks
// the layer's act groups (lw.ActGroups): every filter of a group reads the
// same activations, so each group's activations are analysed once and each
// dense-schedule slot is weighted by the number of the group's filters
// holding a nonzero weight there. Every term is a float64 sum of integers
// far below 2^53, so the tally is exact in any order.
func AnalyzeLayer(lw *nn.Lowered, width fixed.Width) Tally {
	t := Tally{widthBits: float64(int(width))}
	lanes, steps, wins := lw.Lanes, lw.Steps, lw.WindowCount
	slots, groups := steps*lanes, lw.ActGroups()

	// Channel-padding slots of the laned layout are not work: the paper's
	// potentials are over real MACs. Mask them out of every count.
	pad := lw.PadMask() // nil when the layout has no padding
	realPositions := slots
	for _, p := range pad {
		if p {
			realPositions--
		}
	}

	// cntW[g*slots+slot] = act group g's filters with a nonzero weight at
	// slot (padding slots read 0); size[g] = act group g's filters.
	cntW := make([]int32, groups*slots)
	size := make([]float64, groups)
	row := make([]int32, slots)
	var nnzW int64
	for f := 0; f < lw.Filters; f++ {
		g := lw.ActGroupOf(f)
		size[g]++
		lw.FilterRowInto(f, row)
		for i, wt := range row {
			if wt != 0 {
				cntW[g*slots+i]++
				nnzW++
			}
		}
	}
	t.totalPairs = float64(lw.Filters) * float64(realPositions) * float64(wins)
	t.remW = float64(nnzW) * float64(wins)

	group := make([]int32, lanes)
	for g := 0; g < groups; g++ {
		rep, cnt := lw.ActGroupRep(g), cntW[g*slots:(g+1)*slots]
		for win := 0; win < wins; win++ {
			for st := 0; st < steps; st++ {
				var nzActs, groupOneff, realLanes int64
				var wPairs, waPairs, aeW float64
				for ln := 0; ln < lanes; ln++ {
					i := st*lanes + ln
					if pad != nil && pad[i] {
						group[ln] = 0
						continue
					}
					realLanes++
					a := lw.Act(rep, win, st, ln)
					group[ln] = a
					cw := float64(cnt[i])
					wPairs += cw
					if a != 0 {
						nzActs++
						waPairs += cw
						oe := int64(bits.OneffsetCount(a, width))
						groupOneff += oe
						aeW += float64(oe) * cw
					}
				}
				prec := float64(bits.GroupPrecision(group, width).Bits())
				t.remA += float64(nzActs) * size[g]
				t.remWA += waPairs
				t.remApBits += prec * float64(realLanes) * size[g]
				t.remAeBits += float64(groupOneff) * size[g]
				t.remWApBits += prec * wPairs
				t.remWAeBits += aeW
			}
		}
	}
	return t
}

// AnalyzeModel tallies a full model against its activation tensors.
func AnalyzeModel(m *nn.Model, acts []*tensor.T) (Tally, error) {
	lws, err := m.Lowered(16, acts)
	if err != nil {
		return Tally{}, err
	}
	var total Tally
	total.widthBits = float64(int(m.Width))
	for _, lw := range lws {
		total.Add(AnalyzeLayer(lw, m.Width))
	}
	return total, nil
}

// FormatRow renders one model's potentials in the Table 1 column order.
func FormatRow(name string, p map[string]float64) string {
	s := fmt.Sprintf("%-14s", name)
	for _, k := range Keys {
		s += fmt.Sprintf(" %6.1fx", p[k])
	}
	return s
}
