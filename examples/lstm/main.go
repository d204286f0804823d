// LSTM: drive the Bi-LSTM speech workload (the paper's RNN case) through
// TCLp — the natural fit for fully-connected gate projections, where every
// timestep reuses the weights — and study how off-chip bandwidth gates the
// realized speedup (the Figure 10 question for a memory-hungry workload).
package main

import (
	"context"
	"fmt"
	"log"

	"bittactical/internal/arch"
	"bittactical/internal/memory"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

func main() {
	m, err := nn.BuildModel("Bi-LSTM", nn.DefaultZoo())
	if err != nil {
		log.Fatal(err)
	}
	acts := m.GenerateActs(7)
	lws, err := m.Lowered(16, acts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d layers (%d FC gate projections), %.1fM MACs, %.0f%% weight sparsity\n\n",
		m.Name, len(m.Layers), countFC(m), float64(m.TotalMACs())/1e6, m.WeightSparsity()*100)

	cfg := arch.TCLp(sched.T(2, 5))

	// Compute-only picture per layer group.
	var conv, fc, convD, fcD int64
	var traffic memory.Traffic
	var baseTraffic memory.Traffic
	base := arch.DaDianNaoPP()
	for li, lw := range lws {
		r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, sim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if m.Layers[li].Kind == nn.FC {
			fc += r.Cycles
			fcD += r.DenseCycles
		} else {
			conv += r.Cycles
			convD += r.DenseCycles
		}
		traffic.Add(memory.LayerTraffic(cfg, lw))
		baseTraffic.Add(memory.LayerTraffic(base, lw))
	}
	fmt.Printf("conv front-end layers: %.2fx speedup\n", float64(convD)/float64(conv))
	fmt.Printf("LSTM gate projections: %.2fx speedup (timesteps provide the window parallelism)\n",
		float64(fcD)/float64(fc))
	fmt.Printf("whole network:         %.2fx at infinite bandwidth\n\n",
		float64(convD+fcD)/float64(conv+fc))

	// Recurrent models stream large weight matrices every timestep batch;
	// show where each memory technology caps the gain.
	fmt.Printf("off-chip traffic: %.1f KB weights (+%.1f KB schedule metadata), %.1f KB activations\n\n",
		float64(traffic.WeightBytes)/1024, float64(traffic.MetadataBytes)/1024,
		float64(traffic.ActInBytes+traffic.ActOutBytes)/1024)
	fmt.Printf("%-14s %10s\n", "memory", "speedup")
	for _, tech := range memory.Techs {
		tcl := memory.BoundedCycles(conv+fc, traffic, tech, cfg.FrequencyGHz)
		dense := memory.BoundedCycles(convD+fcD, baseTraffic, tech, base.FrequencyGHz)
		fmt.Printf("%-14s %9.2fx\n", tech.Name, float64(dense)/float64(tcl))
	}
}

func countFC(m *nn.Model) int {
	n := 0
	for _, l := range m.Layers {
		if l.Kind == nn.FC {
			n++
		}
	}
	return n
}
