package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// layer: 9437184 MACs, weights 70% sparse, activations 45% zero
	// filter 0: dense schedule 36 columns -> 14 after T8<2,5> scheduling (2.57x)
	// DaDianNao++                 9216 cycles  speedup  1.00x  (outputs bit-exact)
	// TCL-FE/T8<2,5>              4608 cycles  speedup  2.00x  (outputs bit-exact)
	// TCLp/T8<2,5>                1336 cycles  speedup  6.90x  (outputs bit-exact)
	// TCLe/T8<2,5>                 807 cycles  speedup 11.42x  (outputs bit-exact)
}
