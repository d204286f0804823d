package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// pattern       mux  area mm2  @50%W  @70%W  @90%W  (geomean schedule speedup, random 3x3x512 filters)
	// L4<1,2>         4      80.6   1.52x   1.84x   2.21x
	// T4<2,2>         4      80.8   1.63x   2.06x   2.91x
	// L8<1,6>         8      80.9   1.64x   1.98x   2.21x
	// L8<2,5>         8      81.2   1.86x   2.34x   2.99x
	// T8<2,5>         8      81.2   1.87x   2.54x   3.21x
	// L8<4,3>         8      81.7   1.93x   2.58x   3.97x
	// X<inf,15>       1      83.6   2.00x   3.31x   9.93x
	//
	// The Trident (T8<2,5>) matches the L patterns' mux budget while tracking
	// X<inf,15> most closely — the paper's hardware/software co-design result.
}
