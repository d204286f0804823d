package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// AlexNet-ES: 16.2M MACs, 77% weight sparsity
	//
	// layer       dense cyc   TCLp speedup   TCLe speedup
	// conv1           15548          5.01x          9.59x
	// conv2            3600         10.94x         17.91x
	// conv3            1800          7.96x         14.88x
	// conv4            1350          8.60x         14.36x
	// conv5             675          8.88x         15.00x
	// fc6               256          8.00x         15.06x
	// fc7              1024         10.56x         16.00x
	// fc8               256          9.85x         16.00x
	// total           24509          6.05x         11.25x
	//
	// config                   logic uJ  onchip uJ offchip uJ   efficiency
	// DaDianNao++                  50.6        1.8       47.9        1.00x
	// TCLp/T8<2,5>                  2.7        1.3       53.6        1.74x
	// TCLe/T8<2,5>                  3.4        1.3       53.6        1.72x
	//
	// TCLe lane-time census: useful 27%, column sync 6%, tile sync 11%, A-zero 17%, W-zero 25%, both-zero 13%
}
