// Command tclsched schedules a randomly sparsified filter and prints the
// resulting schedule, its verification status, and its compaction
// statistics — a workbench for exploring connectivity patterns and the
// scheduling algorithm.
//
// Usage:
//
//	tclsched -pattern 'T8<2,5>' -sparsity 0.7 -steps 18 -dump
//	tclsched -pattern 'L8<1,6>' -alg greedy -sparsity 0.9
//	tclsched -alg matching                                   # column-optimal scheduler
//	tclsched -steps 288 -repeat 1000 -cpuprofile sched.out   # profile Algorithm 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"bittactical/internal/profiling"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
)

func main() {
	var (
		patName  = flag.String("pattern", "T8<2,5>", "connectivity pattern (see -patterns)")
		alg      = flag.String("alg", "algorithm1", "scheduler: algorithm1 | greedy | matching")
		sp       = flag.Float64("sparsity", 0.7, "weight sparsity in [0,1]")
		steps    = flag.Int("steps", 18, "dense schedule steps (3x3x512/16 = 288 in fig11)")
		lanes    = flag.Int("lanes", 16, "weight lanes")
		seed     = flag.Int64("seed", 1, "filter seed")
		repeat   = flag.Int("repeat", 1, "schedule the filter this many times, at least 1 (profiling workloads)")
		dump     = flag.Bool("dump", false, "print every schedule column")
		patterns = flag.Bool("patterns", false, "list known patterns and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *patterns {
		for _, n := range sched.KnownPatternNames() {
			fmt.Println(n)
		}
		return
	}

	// Every bad flag is a usage error, reported before any file is created
	// or any filter built.
	p, perr := sched.ByName(*patName)
	a, aerr := sched.AlgorithmByName(*alg)
	var rerr error
	if *repeat < 1 {
		rerr = fmt.Errorf("-repeat %d must be at least 1", *repeat)
	}
	if err := errors.Join(perr, aerr, validateSize(*lanes, *steps, *sp), rerr); err != nil {
		fmt.Fprintln(os.Stderr, "tclsched:", err)
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclsched:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so a failing exit stops the profiles
	// itself.
	stop := func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tclsched:", err)
		}
	}
	defer stop()

	rng := rand.New(rand.NewSource(*seed))
	w := sparsity.RandomSparseFilter(rng, *steps, *lanes, *sp)
	f := sched.NewFilter(*lanes, *steps, w, nil)
	s := sched.ScheduleFilter(f, p, a)
	// Extra repetitions give the profiler a hot Algorithm 1 to sample.
	for i := 1; i < *repeat; i++ {
		sched.ScheduleFilter(f, p, a)
	}
	if err := sched.Verify(f, p, s); err != nil {
		fmt.Fprintln(os.Stderr, "tclsched: schedule verification FAILED:", err)
		stop()
		os.Exit(1)
	}

	st := s.Stats(f)
	fmt.Printf("pattern %s (%d-input mux), scheduler %s\n", p.Name, p.MuxInputs(), a)
	fmt.Printf("filter: %d steps x %d lanes, %d effectual weights (%.0f%% sparse)\n",
		*steps, *lanes, f.NNZ(), *sp*100)
	fmt.Printf("schedule: %d columns (dense %d) -> speedup %.2fx; lower bound %d columns\n",
		s.Len(), *steps, float64(*steps)/float64(max(1, s.Len())), (f.NNZ()+*lanes-1)/(*lanes))
	fmt.Printf("slots: unpromoted %d, lookahead %d, lookaside %d, zero %d, pad %d\n",
		st.Slots[sched.SlotUnpromoted], st.Slots[sched.SlotLookahead],
		st.Slots[sched.SlotLookaside], st.Slots[sched.SlotZero], st.Slots[sched.SlotPad])

	if *dump {
		for ci, col := range s.Columns {
			fmt.Printf("col %3d head %3d adv %d |", ci, col.Head, col.Advance)
			for ln, e := range col.Entries {
				sel, ok := p.Select(col.Head, ln, f.Lanes, e.Src)
				switch {
				case e.Weight == 0:
					fmt.Print("  .   ")
				case ok && sel == 0:
					fmt.Print("  =   ")
				case ok:
					fmt.Printf(" %+d%+d  ", p.Offsets[sel-1].Dt, p.Offsets[sel-1].Dl)
				default: // X<inf,15> has no mux: print the raw displacement
					fmt.Printf(" %+d%+d  ", int(e.Src)/f.Lanes-col.Head, int(e.Src)%f.Lanes-ln)
				}
			}
			fmt.Println()
		}
	}
}

// maxSlots bounds the filter's lanes × steps. fig11's filter has 4,608
// slots; past 2^24 the filter and its schedule outgrow a workbench.
const maxSlots = 1 << 24

// validateSize rejects the size flags no filter can be built from: lanes
// or steps below 1, more than maxSlots slots (checked by division, so the
// product cannot overflow), or a sparsity outside [0, 1] (or NaN).
func validateSize(lanes, steps int, sparsity float64) error {
	if lanes < 1 || steps < 1 || lanes > maxSlots/steps {
		return fmt.Errorf("-lanes %d and -steps %d must each be at least 1, with at most %d slots", lanes, steps, maxSlots)
	}
	if !(sparsity >= 0 && sparsity <= 1) {
		return fmt.Errorf("-sparsity %g outside [0, 1]", sparsity)
	}
	return nil
}
