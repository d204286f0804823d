// Command tclzoo prints the instantiated model zoo: per-network layer
// geometry, MAC counts, weight sparsity, and activation statistics — the
// workload inventory behind every experiment. Models resolve through the
// process-wide workload registry, so externally registered zoos (the
// transformer-era attention workloads) are addressable alongside the
// paper's seven.
//
// Usage:
//
//	tclzoo                      # summary of the paper's seven networks
//	tclzoo -list                # every registered model name
//	tclzoo -all                 # summary of every registered model
//	tclzoo -model BERT-Attn -layers -batch 4
//	tclzoo -cscale 1 -sscale 1  # native-scale shapes
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/potential"
	"bittactical/internal/sparsity"
	_ "bittactical/internal/workloads/attention" // register the transformer-era zoo
)

func main() {
	var (
		model  = flag.String("model", "", "single model (default: the paper's seven)")
		list   = flag.Bool("list", false, "print every registered model name and exit")
		all    = flag.Bool("all", false, "summarize every registered model")
		layers = flag.Bool("layers", false, "print per-layer geometry")
		cscale = flag.Float64("cscale", 0.25, "channel scale")
		sscale = flag.Float64("sscale", 0.5, "spatial scale")
		seed   = flag.Int64("seed", 1, "weight seed")
		batch  = flag.Int("batch", 1, "sequence batch size (FC token windows multiply)")
		w8     = flag.Bool("w8", false, "8-bit quantized zoo")
		pot    = flag.Bool("potential", false, "print Table-1 potentials per model")
		planes = flag.Bool("planes", false, "print the per-bit-plane activation zero fractions")
		par    = flag.Int("j", 0, "model-build parallelism (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tclzoo: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}

	// The library reads a batch of 0 (or less) as its default, which no
	// command line means.
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "tclzoo: -batch %d must be at least 1\n", *batch)
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "tclzoo: -j %d must be at least 0 (0 = GOMAXPROCS)\n", *par)
		os.Exit(2)
	}

	if *list {
		for _, n := range nn.Names() {
			fmt.Println(n)
		}
		return
	}

	cfg := nn.DefaultZoo()
	cfg.ChannelScale, cfg.SpatialScale, cfg.Seed = *cscale, *sscale, *seed
	cfg.Batch = *batch
	if *w8 {
		cfg.Width = fixed.W8
	}
	names := nn.ModelNames
	if *all {
		names = nn.Names()
	}
	if *model != "" {
		names = []string{*model}
	}
	// Instantiate in parallel, print in zoo order.
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	built := make([]*nn.Model, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			built[i], errs[i] = nn.BuildModel(name, cfg)
		}(i, name)
	}
	wg.Wait()
	for i := range names {
		m, err := built[i], errs[i]
		if err != nil {
			fmt.Fprintln(os.Stderr, "tclzoo:", err)
			os.Exit(2)
		}
		fmt.Printf("%-14s %s  layers=%-3d MACs=%6.1fM  weight sparsity=%.3f (target %.2f)\n",
			m.Name, m.Width, len(m.Layers), float64(m.TotalMACs())/1e6,
			m.WeightSparsity(), m.TargetWeightSparsity)
		if *layers {
			for _, l := range m.Layers {
				h, w := l.OutDims()
				fmt.Printf("  %-14s %-7s K=%-5d C=%-5d %dx%d s%d in %dx%d out %dx%d  MACs=%8.2fM  wsp=%.2f\n",
					l.Name, l.Kind, l.K, l.C, l.R, l.S, l.Stride, l.InH, l.InW, h, w,
					float64(l.MACs())/1e6, l.Weights.Sparsity())
			}
		}
		if *pot {
			tal, err := potential.AnalyzeModel(m, m.GenerateActs(7))
			if err != nil {
				fmt.Fprintln(os.Stderr, "tclzoo:", err)
				os.Exit(1)
			}
			fmt.Println("  " + potential.FormatRow("potential:", tal.Potentials()))
		}
		if *planes {
			var p sparsity.SliceProfile
			for _, t := range m.GenerateActs(7) {
				p.AddTensor(t)
			}
			fmt.Printf("  act planes (zero frac, value=%.3f bit=%.3f neg=%.3f):",
				p.ValueSparsity(), p.BitSparsity(),
				float64(p.NegValues)/float64(p.Values))
			for i := 0; i < sparsity.BitPlanes; i++ {
				fmt.Printf(" %d:%.2f", i, p.PlaneSparsity(i))
			}
			fmt.Println()
		}
	}
}
