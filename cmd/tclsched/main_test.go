package main

import "os"

// Example runs the workbench with the column-optimal matching scheduler at
// its other defaults; main exits nonzero unless the schedule verifies, so
// the output below is a verified schedule.
func Example() {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"tclsched", "-alg", "matching"}
	main()
	// Output:
	// pattern T8<2,5> (8-input mux), scheduler matching
	// filter: 18 steps x 16 lanes, 86 effectual weights (70% sparse)
	// schedule: 8 columns (dense 18) -> speedup 2.25x; lower bound 6 columns
	// slots: unpromoted 30, lookahead 16, lookaside 40, zero 42, pad 0
}
