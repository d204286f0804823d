// Package accel models the comparison accelerators of the paper's Figure 12
// and Section 7, each with the dataflow bottlenecks the paper attributes to
// it. All models are normalized to the same 1K-multiplier budget as
// DaDianNao++ and TCL (Section 6: SCNN was evaluated with 1K multipliers, so
// TCL and DaDianNao++ are configured with 4 tiles).
//
//   - SCNN (Parashar et al.): W+A Cartesian-product dataflow — 64 PEs with
//     4×4 multiplier arrays, input activations spatially tiled, products
//     routed through a crossbar to accumulator banks. Losses modeled:
//     4-way fragmentation ceilings, spatial tiling imbalance (small feature
//     maps leave PEs idle), crossbar/accumulator contention, and the 4×
//     peak-bandwidth penalty on fully-connected layers.
//   - SCNNp (Section 6.4): the paper's thought experiment replacing SCNN's
//     multipliers with bit-serial MACs at 16× the tile count; inter-tile
//     imbalance grows with the finer spatial tiling.
//   - Cambricon-X (Zhang et al.): weight skipping only — each PE fetches 16
//     compacted non-zero weights; inter-filter imbalance bounds the gain.
//   - Cnvlutin (Albericio et al.): activation skipping only — per-lane
//     non-zero activation streams with independent weight ports, lane
//     imbalance bounds the gain.
//
// Dynamic Stripes and Pragmatic are exactly TCL back-ends without the
// front-end and are produced by the sim package (arch.NewTCL with an empty
// pattern); see experiments.Fig12.
package accel

import (
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
)

// LayerCycles is a baseline model's outcome for one layer.
type LayerCycles struct {
	Name        string
	Cycles      int64
	DenseCycles int64
	MACs        int64
}

// Speedup returns DenseCycles/Cycles.
func (l LayerCycles) Speedup() float64 {
	if l.Cycles == 0 {
		return 1
	}
	return float64(l.DenseCycles) / float64(l.Cycles)
}

// denseCycles is the DaDianNao++ reference used by every model here,
// matching the sim engine's normalization: 64 resident filters (4 tiles ×
// 16 rows), 16 lanes, one window at a time per tile.
func denseCycles(lw *nn.Lowered) int64 {
	groups := (lw.Filters + 15) / 16
	rounds := (groups + 3) / 4
	return int64(rounds) * int64(lw.Steps) * int64(lw.WindowCount)
}

// ---- SCNN ----

// scnnGeom describes an SCNN-style PE grid.
type scnnGeom struct {
	gridH, gridW int // PE grid
	vecA, vecW   int // per-PE activation/weight vector widths (4×4 array)
	// crossbarStall derates for output-crossbar and accumulator-bank
	// contention (SCNN's dynamic product routing, Section 1: >21% PE area
	// and measurable stalls).
	crossbarStall float64
}

var scnnBase = scnnGeom{gridH: 8, gridW: 8, vecA: 4, vecW: 4, crossbarStall: 1.15}

// SCNN models the layer on the 8×8-PE SCNN configuration.
func SCNN(lw *nn.Lowered) LayerCycles {
	return scnnModel(lw, scnnBase, nil, fixed.W16, "SCNN")
}

// SCNNp models the bit-serial SCNN variant of Section 6.4: a 32×32 grid of
// bit-serial PEs; each product group costs its activations' dynamic
// precision instead of one cycle.
func SCNNp(lw *nn.Lowered, width fixed.Width) LayerCycles {
	g := scnnGeom{gridH: 32, gridW: 32, vecA: 4, vecW: 4, crossbarStall: 1.15}
	prec := func(vs []int32) int {
		p := bits.GroupPrecision(vs, width).Bits()
		if p < 1 {
			p = 1
		}
		return p
	}
	return scnnModel(lw, g, prec, width, "SCNNp")
}

// scnnModel runs the Cartesian-product timing model. When prec is non-nil,
// each activation-vector fetch costs the group's dynamic precision
// (bit-serial MACs); otherwise one cycle.
func scnnModel(lw *nn.Lowered, g scnnGeom, prec func([]int32) int, width fixed.Width, name string) LayerCycles {
	r := LayerCycles{Name: name, DenseCycles: denseCycles(lw), MACs: lw.Layer().MACs()}
	l := lw.Layer()
	if l.Kind == nn.FC {
		r.Cycles = scnnFC(lw, g)
		return r
	}

	in := lw.Input()
	h, w := l.InH, l.InW
	npe := g.gridH * g.gridW

	// Non-zero weights per absolute input channel across all filters and
	// kernel positions (broadcast to every PE). Grouped convolutions map a
	// filter's local channel index into its group's slice.
	nzW := make([]int64, l.C)
	if l.Kind == nn.Depthwise {
		for c := 0; c < l.C; c++ {
			for rr := 0; rr < l.R; rr++ {
				for ss := 0; ss < l.S; ss++ {
					if l.Weights.At(c, 0, rr, ss) != 0 {
						nzW[c]++
					}
				}
			}
		}
	} else {
		gc := l.GroupChannels()
		for k := 0; k < l.K; k++ {
			off := 0
			if l.Groups > 1 {
				off = (k / (l.K / l.Groups)) * gc
			}
			for c := 0; c < gc; c++ {
				for rr := 0; rr < l.R; rr++ {
					for ss := 0; ss < l.S; ss++ {
						if l.Weights.At(k, c, rr, ss) != 0 {
							nzW[off+c]++
						}
					}
				}
			}
		}
	}

	// Per-PE cycles: Σ_c Σ_phases ceil(nzA_pe/vecA) × ceil(nzW_phase/vecW)
	// [× precision]. SCNN's "any weight × any activation" property holds
	// per stride phase: for stride s the layer decomposes into s² unit-
	// stride sub-convolutions, each pairing 1/s² of the activations with
	// 1/s² of the weights.
	phases := l.Stride * l.Stride
	if phases < 1 {
		phases = 1
	}
	peCycles := make([]int64, npe)
	vals := make([]int32, 0, 16)
	for c := 0; c < l.C; c++ {
		nzWPhase := (nzW[c] + int64(phases) - 1) / int64(phases)
		wCost := (nzWPhase + int64(g.vecW) - 1) / int64(g.vecW)
		if wCost == 0 {
			continue
		}
		for pi := 0; pi < g.gridH; pi++ {
			y0, y1 := pi*h/g.gridH, (pi+1)*h/g.gridH
			for pj := 0; pj < g.gridW; pj++ {
				x0, x1 := pj*w/g.gridW, (pj+1)*w/g.gridW
				var nzA int64
				vals = vals[:0]
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						if v := in.At(0, c, y, x); v != 0 {
							nzA++
							if prec != nil && len(vals) < cap(vals) {
								vals = append(vals, v)
							}
						}
					}
				}
				if nzA == 0 {
					continue
				}
				nzAPhase := (nzA + int64(phases) - 1) / int64(phases)
				cost := (nzAPhase + int64(g.vecA) - 1) / int64(g.vecA) * wCost * int64(phases)
				if prec != nil {
					cost *= int64(prec(vals))
				}
				peCycles[pi*g.gridW+pj] += cost
			}
		}
	}
	var max int64
	for _, c := range peCycles {
		if c > max {
			max = c
		}
	}
	r.Cycles = int64(float64(max) * g.crossbarStall)
	if r.Cycles < 1 {
		r.Cycles = 1
	}
	// Bit-serial SCNNp must normalize against a bit-parallel budget: its
	// extra tiles already compensate, so no width scaling here — the 16×
	// grid supplies the throughput, imbalance supplies the loss.
	return r
}

// scnnFC models the 4×-reduced peak bandwidth on fully-connected layers:
// effectual products stream at a quarter of the multiplier budget.
func scnnFC(lw *nn.Lowered, g scnnGeom) int64 {
	l := lw.Layer()
	in := lw.Input()
	var products int64
	for win := 0; win < lw.WindowCount; win++ {
		for c := 0; c < l.C; c++ {
			var a int32
			if in.Shape[3] == lw.WindowCount && lw.WindowCount > 1 {
				a = in.At(0, c, 0, win)
			} else {
				a = in.Data[c]
			}
			if a == 0 {
				continue
			}
			for k := 0; k < l.K; k++ {
				if l.Weights.At(k, c, 0, 0) != 0 {
					products++
				}
			}
		}
	}
	budget := int64(g.gridH * g.gridW * g.vecA * g.vecW / 4)
	cycles := (products + budget - 1) / budget
	if cycles < 1 {
		cycles = 1
	}
	return cycles
}

// ---- Cambricon-X ----

// CambriconX models weight-only skipping: 64 resident filters (matching the
// multiplier budget), each PE consuming 16 compacted non-zero weights per
// cycle; a window completes when its slowest resident filter does.
func CambriconX(lw *nn.Lowered) LayerCycles {
	r := LayerCycles{Name: "Cambricon-X", DenseCycles: denseCycles(lw), MACs: lw.Layer().MACs()}
	const resident = 64
	lanes := lw.Lanes
	var total int64
	for f0 := 0; f0 < lw.Filters; f0 += resident {
		f1 := f0 + resident
		if f1 > lw.Filters {
			f1 = lw.Filters
		}
		var worst int64
		for f := f0; f < f1; f++ {
			var nnz int64
			for st := 0; st < lw.Steps; st++ {
				for ln := 0; ln < lanes; ln++ {
					if lw.Weight(f, st, ln) != 0 {
						nnz++
					}
				}
			}
			if c := (nnz + int64(lanes) - 1) / int64(lanes); c > worst {
				worst = c
			}
		}
		if worst < 1 {
			worst = 1
		}
		total += worst
	}
	r.Cycles = total * int64(lw.WindowCount)
	return r
}

// ---- Cnvlutin ----

// Cnvlutin models activation-only skipping: each of the 16 activation lanes
// streams its channel's non-zeros with an independent weight port; a window
// completes when the slowest lane drains (ZeNA behaves comparably). Grouped
// convolutions are approximated by the first group's activation stream.
func Cnvlutin(lw *nn.Lowered) LayerCycles {
	r := LayerCycles{Name: "Cnvlutin", DenseCycles: denseCycles(lw), MACs: lw.Layer().MACs()}
	lanes := lw.Lanes
	groups := (lw.Filters + 15) / 16
	rounds := int64((groups + 3) / 4)
	var sum int64
	laneNNZ := make([]int64, lanes)
	for win := 0; win < lw.WindowCount; win++ {
		for ln := 0; ln < lanes; ln++ {
			laneNNZ[ln] = 0
		}
		for st := 0; st < lw.Steps; st++ {
			for ln := 0; ln < lanes; ln++ {
				if lw.Act(0, win, st, ln) != 0 {
					laneNNZ[ln]++
				}
			}
		}
		var worst int64 = 1
		for _, n := range laneNNZ {
			if n > worst {
				worst = n
			}
		}
		sum += worst
	}
	r.Cycles = sum * rounds
	return r
}

// SCNNe is the paper's other unevaluated extension (Section 6.4 closes with
// "SCNNp and SCNNe"): SCNN with Pragmatic-style term-serial MACs at 16× the
// tiles — each activation-vector fetch costs the group's worst oneffset
// count instead of its dynamic precision.
func SCNNe(lw *nn.Lowered, width fixed.Width) LayerCycles {
	g := scnnGeom{gridH: 32, gridW: 32, vecA: 4, vecW: 4, crossbarStall: 1.15}
	cost := func(vs []int32) int {
		c := bits.SerialCyclesTCLe(vs, width)
		if c < 1 {
			c = 1
		}
		return c
	}
	return scnnModel(lw, g, cost, width, "SCNNe")
}
