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
		repeat   = flag.Int("repeat", 1, "schedule the filter this many times (profiling workloads)")
		dump     = flag.Bool("dump", false, "print every schedule column")
		patterns = flag.Bool("patterns", false, "list known patterns and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclsched:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tclsched:", err)
		}
	}()

	if *patterns {
		for _, n := range sched.KnownPatternNames() {
			fmt.Println(n)
		}
		return
	}

	p, err := sched.ByName(*patName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclsched:", err)
		os.Exit(2)
	}
	a, err := sched.AlgorithmByName(*alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclsched:", err)
		os.Exit(2)
	}

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
			for _, e := range col.Entries {
				switch {
				case e.Weight == 0:
					fmt.Print("  .   ")
				case e.Dt == 0 && e.Dl == 0:
					fmt.Print("  =   ")
				default:
					fmt.Printf(" %+d%+d  ", e.Dt, e.Dl)
				}
			}
			fmt.Println()
		}
	}
}
