package main

import "os"

// Example runs the pipeline at its default flags: AlexNet-ES scheduled
// under T8<2,5>, every schedule verified, packed and round-tripped.
func Example() {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"tclpack"}
	main()
	// Output:
	// AlexNet-ES under T8<2,5>: 2656 filters scheduled and verified
	// schedule: 37888 columns vs 108416 dense steps (2.86x front-end compaction)
	// WS images: 1474.3 KB (raw dense weights: 3388.0 KB; ws+ALC overhead included)
}
