// Quickstart: schedule one sparse convolution layer with Bit-Tactical's
// software scheduler, execute it through the simulated datapath, check the
// outputs bit-exactly against a reference convolution, and compare the
// dense baseline with the TCL configurations.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A 64-filter 3x3 convolution over 64 channels, pruned to 70% weight
	// sparsity, with realistically distributed activations.
	layer := &nn.Layer{
		Name: "conv", Kind: nn.Conv, K: 64, C: 64, R: 3, S: 3,
		Stride: 1, Pad: 1, InH: 16, InW: 16,
	}
	layer.Weights = tensor.New(64, 64, 3, 3)
	sparsity.WeightModel{Sigma: 400}.FillPruned(rng, layer.Weights, fixed.W16, 0.70)

	acts := tensor.New(1, 64, 16, 16)
	law := sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 11, SigmaLog2: 2, SigBits: 5}
	law.FillTensor(rng, acts, fixed.W16)

	lowered, err := nn.Lower(layer, acts, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer: %d MACs, weights %.0f%% sparse, activations %.0f%% zero\n",
		layer.MACs(), layer.Weights.Sparsity()*100, acts.Sparsity()*100)

	// Inspect one filter's schedule under the Trident front-end.
	pattern := sched.T(2, 5)
	filter := sched.NewFilter(16, lowered.Steps, lowered.FilterRow(0), nil)
	schedule := sched.ScheduleFilter(filter, pattern, sched.Algorithm1)
	if err := sched.Verify(filter, pattern, schedule); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter 0: dense schedule %d columns -> %d after %s scheduling (%.2fx)\n",
		lowered.Steps, schedule.Len(), pattern.Name,
		float64(lowered.Steps)/float64(schedule.Len()))

	// Simulate the design family and verify semantic preservation.
	configs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(pattern),
		arch.TCLp(pattern),
		arch.TCLe(pattern),
	}
	for _, cfg := range configs {
		if err := sim.ExecuteGolden(cfg, lowered); err != nil {
			log.Fatalf("%s: golden check failed: %v", cfg.Name, err)
		}
		r, err := sim.SimulateLayerContext(context.Background(), cfg, lowered, sim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %9d cycles  speedup %5.2fx  (outputs bit-exact)\n",
			cfg.Name, r.Cycles, r.Speedup())
	}
}
