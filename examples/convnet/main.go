// Convnet: run a full pruned CNN (the zoo's AlexNet-ES) through the design
// family, print per-layer speedups, the Figure-9-style breakdowns for the
// interesting layers, and the energy picture under LPDDR4.
package main

import (
	"context"
	"fmt"
	"log"

	"bittactical/internal/arch"
	"bittactical/internal/energy"
	"bittactical/internal/memory"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

func main() {
	m, err := nn.BuildModel("AlexNet-ES", nn.DefaultZoo())
	if err != nil {
		log.Fatal(err)
	}
	acts := m.GenerateActs(7)
	lws, err := m.Lowered(16, acts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.1fM MACs, %.0f%% weight sparsity\n\n",
		m.Name, float64(m.TotalMACs())/1e6, m.WeightSparsity()*100)

	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
	}

	// Per-layer speedups.
	fmt.Printf("%-8s %12s %14s %14s\n", "layer", "dense cyc", "TCLp speedup", "TCLe speedup")
	var totals [3]int64
	var dense int64
	for li, lw := range lws {
		var row [3]int64
		for ci, cfg := range cfgs {
			r := simulate(cfg, lw)
			row[ci] = r.Cycles
			totals[ci] += r.Cycles
			if ci == 0 {
				dense += r.DenseCycles
			}
		}
		fmt.Printf("%-8s %12d %13.2fx %13.2fx\n", m.Layers[li].Name, row[0],
			float64(row[0])/float64(row[1]), float64(row[0])/float64(row[2]))
	}
	fmt.Printf("%-8s %12d %13.2fx %13.2fx\n\n", "total", totals[0],
		float64(totals[0])/float64(totals[1]), float64(totals[0])/float64(totals[2]))

	// Energy under LPDDR4-3200.
	tech, _ := memory.TechByName("LPDDR4-3200")
	k := energy.Defaults65nm()
	fmt.Printf("%-22s %10s %10s %10s %12s\n", "config", "logic uJ", "onchip uJ", "offchip uJ", "efficiency")
	var base float64
	for _, cfg := range cfgs {
		var sum energy.Breakdown
		for _, lw := range lws {
			r := simulate(cfg, lw)
			sum.Add(energy.Price(cfg, r.Activity, memory.LayerTraffic(cfg, lw), tech, k))
		}
		if base == 0 {
			base = sum.TotalPJ()
		}
		fmt.Printf("%-22s %10.1f %10.1f %10.1f %11.2fx\n", cfg.Name,
			sum.LogicPJ*1e-6, sum.OnChipPJ*1e-6, sum.OffChipPJ*1e-6, base/sum.TotalPJ())
	}

	// Where does TCLe's time go? (Figure 9-style census for the whole net.)
	var bd sim.Breakdown
	for _, lw := range lws {
		bd.Add(simulate(cfgs[2], lw).BackEnd)
	}
	tot := float64(bd.Total())
	fmt.Printf("\nTCLe lane-time census: useful %.0f%%, column sync %.0f%%, tile sync %.0f%%, "+
		"A-zero %.0f%%, W-zero %.0f%%, both-zero %.0f%%\n",
		100*float64(bd.Useful)/tot, 100*float64(bd.ColumnSync)/tot,
		100*float64(bd.TileSync)/tot, 100*float64(bd.AZero)/tot,
		100*float64(bd.WZero)/tot, 100*float64(bd.BothZero)/tot)
}

// simulate runs one layer under cfg with default engine options.
func simulate(cfg arch.Config, lw *nn.Lowered) sim.LayerResult {
	r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return r
}
