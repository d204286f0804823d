// Command tclpack is the offline middleware pipeline end-to-end: it builds
// a model, schedules every filter group under a connectivity pattern,
// verifies each schedule against the hardware invariants, packs the results
// into weight-scratchpad images (the binary artifact the silicon consumes),
// round-trips each image through the decoder, and reports footprints.
//
// Usage:
//
//	tclpack -model AlexNet-ES -pattern 'T8<2,5>' -o /tmp/alexnet.tclw
//	tclpack -model MobileNet -pattern 'L8<1,6>'
//	tclpack -model ResNet50-SS -j 8      # layers scheduled and packed in parallel
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/wsformat"

	_ "bittactical/internal/workloads/attention" // register the transformer-era zoo
)

func main() {
	var (
		model   = flag.String("model", "AlexNet-ES", "zoo model to pack")
		patName = flag.String("pattern", "T8<2,5>", "connectivity pattern")
		out     = flag.String("o", "", "write the concatenated WS images here")
		cscale  = flag.Float64("cscale", 0.25, "channel scale")
		sscale  = flag.Float64("sscale", 0.5, "spatial scale")
		par     = flag.Int("j", 0, "worker parallelism (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tclpack: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}

	if *par < 0 {
		fmt.Fprintf(os.Stderr, "tclpack: -j %d must be at least 0 (0 = GOMAXPROCS)\n", *par)
		os.Exit(2)
	}
	p, err := sched.ByName(*patName)
	if err != nil {
		fatal(err)
	}
	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = *cscale, *sscale
	m, err := nn.BuildModel(*model, zoo)
	if err != nil {
		fatal(err)
	}
	cfg := arch.FrontEndOnly(p)
	lws, err := m.Lowered(cfg.Lanes, m.GenerateActs(1))
	if err != nil {
		fatal(err)
	}

	// The offline pipeline is embarrassingly parallel across layers: idle
	// workers claim the next layer and walk its filter groups as the engine
	// groups them (sim.LayerSchedules), verifying, encoding and
	// round-tripping every schedule; the per-layer images then concatenate
	// in layer order.
	type packed struct {
		blob    []byte
		imgBits int64
		columns int
		err     error
	}
	results := make([]packed, len(lws))
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(lws)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				li := int(next.Add(1)) - 1
				if li >= len(lws) {
					return
				}
				lw, r := lws[li], &results[li]
				r.err = sim.LayerSchedules(cfg, lw, func(f0 int, filters []sched.Filter, schedules []*sched.Schedule) error {
					for i, s := range schedules {
						if err := sched.Verify(filters[i], p, s); err != nil {
							return fmt.Errorf("%s filter %d: %w", lw.Name, f0+i, err)
						}
						buf, err := wsformat.Encode(p, s, m.Width)
						if err != nil {
							return err
						}
						if err := wsformat.RoundTrip(p, s, m.Width); err != nil {
							return fmt.Errorf("%s filter %d: %w", lw.Name, f0+i, err)
						}
						r.blob = append(r.blob, buf...)
						r.imgBits += wsformat.SizeBits(p, s, m.Width)
						r.columns += s.Len()
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()

	var blob []byte
	var rawBits, imgBits int64
	var filters, columns, denseCols int
	for li, lw := range lws {
		r := &results[li]
		if r.err != nil {
			fatal(r.err)
		}
		blob = append(blob, r.blob...)
		imgBits += r.imgBits
		columns += r.columns
		filters += lw.Filters
		denseCols += lw.Filters * lw.Steps
		rawBits += int64(lw.Filters) * int64(lw.Steps) * int64(lw.Lanes) * int64(m.Width)
	}
	fmt.Printf("%s under %s: %d filters scheduled and verified\n", m.Name, p.Name, filters)
	fmt.Printf("schedule: %d columns vs %d dense steps (%.2fx front-end compaction)\n",
		columns, denseCols, float64(denseCols)/float64(columns))
	fmt.Printf("WS images: %.1f KB (raw dense weights: %.1f KB; ws+ALC overhead included)\n",
		float64(imgBits)/8/1024, float64(rawBits)/8/1024)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tclpack:", err)
	os.Exit(1)
}
