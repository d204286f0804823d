package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// budget: 8-input mux, lookahead depth <= 2
	//
	// start   L8<2,5>    score 2.469x
	// iter  0  improved to 2.639x with offsets [{2 -7} {2 0} {1 -1} {1 -2} {1 -3} {1 -4} {1 -5}]
	// iter  1  improved to 2.669x with offsets [{2 -7} {2 0} {1 -1} {1 6} {1 -3} {1 -4} {1 -5}]
	// iter  2  improved to 2.677x with offsets [{2 -7} {2 0} {1 -1} {1 6} {1 2} {1 -4} {1 -5}]
	// iter  7  improved to 2.698x with offsets [{2 -7} {2 0} {1 -7} {2 -1} {1 2} {1 -4} {1 -5}]
	// iter  8  improved to 2.700x with offsets [{2 -7} {2 0} {1 -7} {2 -1} {1 2} {1 -4} {1 6}]
	// iter 16  improved to 2.703x with offsets [{2 -7} {2 0} {1 -7} {2 -1} {1 -2} {1 -4} {1 6}]
	// iter 17  improved to 2.709x with offsets [{2 -7} {2 0} {1 -7} {2 -1} {1 -2} {1 -1} {1 6}]
	// iter 22  improved to 2.717x with offsets [{2 0} {2 6} {1 -7} {2 -1} {1 -2} {1 -1} {1 6}]
	//
	// pattern         score  offsets
	// L8<2,5>        2.469x  [{1 0} {2 0} {1 -1} {1 -2} {1 -3} {1 -4} {1 -5}]
	// T8<2,5>        2.634x  [{1 0} {2 0} {1 1} {1 -1} {2 3} {2 -3} {2 5}]
	// custom         2.717x  [{2 0} {2 6} {1 -7} {2 -1} {1 -2} {1 -1} {1 6}]
	//
	// The synthesized pattern lands at or above the hand-crafted Trident —
	// non-contiguous, depth-spread offsets win, which is exactly the paper's
	// Section 3.1 co-design argument.
}
