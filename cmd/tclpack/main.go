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
//	tclpack -model ResNet50-SS -j 8      # parallel scheduling + packing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"bittactical/internal/nn"
	"bittactical/internal/sched"
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

	p, err := sched.ByName(*patName)
	if err != nil {
		fatal(err)
	}
	cfg := nn.DefaultZoo()
	cfg.ChannelScale, cfg.SpatialScale = *cscale, *sscale
	m, err := nn.BuildModel(*model, cfg)
	if err != nil {
		fatal(err)
	}
	acts := m.GenerateActs(1)
	lws, err := m.Lowered(16, acts)
	if err != nil {
		fatal(err)
	}

	// The offline pipeline is embarrassingly parallel across filter groups
	// (each group schedules, verifies, and encodes independently); groups go
	// into one shared queue and idle workers steal the next index, then the
	// per-group images concatenate in deterministic order.
	type job struct {
		lw     *nn.Lowered
		pad    []bool
		f0, f1 int
	}
	var jobs []job
	for _, lw := range lws {
		pad := lw.PadMask()
		for f0 := 0; f0 < lw.Filters; f0 += 16 {
			f1 := f0 + 16
			if f1 > lw.Filters {
				f1 = lw.Filters
			}
			jobs = append(jobs, job{lw: lw, pad: pad, f0: f0, f1: f1})
		}
	}
	type packed struct {
		blob             []byte
		rawBits, imgBits int64
		filters, columns int
		denseCols        int
		err              error
	}
	results := make([]packed, len(jobs))
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a scheduler kernel: tclpack visits every group
			// exactly once, so memoizing through the shared cache buys nothing
			// — arena mode schedules allocation-free, and each group's
			// schedules are fully consumed (verify, encode, round-trip) before
			// the worker's next ScheduleGroup call invalidates them.
			sc := sched.NewScheduler()
			for {
				ji := int(next.Add(1)) - 1
				if ji >= len(jobs) {
					return
				}
				j := jobs[ji]
				r := &results[ji]
				lw := j.lw
				group := make([]sched.Filter, j.f1-j.f0)
				for i := range group {
					group[i] = sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(j.f0+i), j.pad)
				}
				for i, s := range sc.ScheduleGroup(group, p, sched.Algorithm1) {
					if err := sched.Verify(group[i], p, s); err != nil {
						r.err = fmt.Errorf("%s filter %d: %w", lw.Name, j.f0+i, err)
						return
					}
					buf, err := wsformat.Encode(p, s, m.Width)
					if err != nil {
						r.err = err
						return
					}
					if err := wsformat.RoundTrip(p, s, m.Width); err != nil {
						r.err = fmt.Errorf("%s filter %d: %w", lw.Name, j.f0+i, err)
						return
					}
					r.blob = append(r.blob, buf...)
					r.rawBits += int64(lw.Steps) * int64(lw.Lanes) * int64(m.Width)
					r.imgBits += wsformat.SizeBits(p, s, m.Width)
					r.filters++
					r.columns += s.Len()
					r.denseCols += lw.Steps
				}
			}
		}()
	}
	wg.Wait()

	var blob []byte
	var rawBits, imgBits int64
	var filters, columns, denseCols int
	for i := range results {
		r := &results[i]
		if r.err != nil {
			fatal(r.err)
		}
		blob = append(blob, r.blob...)
		rawBits += r.rawBits
		imgBits += r.imgBits
		filters += r.filters
		columns += r.columns
		denseCols += r.denseCols
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
