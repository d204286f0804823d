// Design space: explore the front-end connectivity trade-off the paper's
// Section 3 motivates — schedule quality vs multiplexer cost vs silicon
// area — over a sparsity sweep, and print a compact Pareto view.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"bittactical/internal/arch"
	"bittactical/internal/energy"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
)

func main() {
	patterns := []string{
		"L4<1,2>", "T4<2,2>", "L8<1,6>", "L8<2,5>", "T8<2,5>", "L8<4,3>", "X<inf,15>",
	}
	levels := []float64{0.5, 0.7, 0.9}
	const trials, steps, lanes = 40, 288, 16

	fmt.Printf("%-10s %6s %9s", "pattern", "mux", "area mm2")
	for _, sp := range levels {
		fmt.Printf("  @%2.0f%%W", sp*100)
	}
	fmt.Println("  (geomean schedule speedup, random 3x3x512 filters)")

	for _, name := range patterns {
		p, err := sched.ByName(name)
		if err != nil {
			panic(err)
		}
		area := energy.AreaOf(arch.TCLe(p)).Total()
		fmt.Printf("%-10s %6d %9.1f", p.Name, p.MuxInputs(), area)
		for li, sp := range levels {
			rng := rand.New(rand.NewSource(int64(li) + 1)) // same filters per level
			var logSum float64
			for t := 0; t < trials; t++ {
				w := sparsity.RandomSparseFilter(rng, steps, lanes, sp)
				f := sched.NewFilter(lanes, steps, w, nil)
				cols := sched.ScheduleFilter(f, p, sched.Algorithm1).Len()
				if cols == 0 {
					cols = 1
				}
				logSum += math.Log(float64(steps) / float64(cols))
			}
			fmt.Printf("  %5.2fx", math.Exp(logSum/trials))
		}
		fmt.Println()
	}
	fmt.Println("\nThe Trident (T8<2,5>) matches the L patterns' mux budget while tracking")
	fmt.Println("X<inf,15> most closely — the paper's hardware/software co-design result.")
}
