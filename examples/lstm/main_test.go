package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// Bi-LSTM: 19 layers (17 FC gate projections), 119.0M MACs, 73% weight sparsity
	//
	// conv front-end layers: 3.01x speedup
	// LSTM gate projections: 4.33x speedup (timesteps provide the window parallelism)
	// whole network:         3.46x at infinite bandwidth
	//
	// off-chip traffic: 562.7 KB weights (+63.8 KB schedule metadata), 879.5 KB activations
	//
	// memory            speedup
	// LPDDR3-1600         1.37x
	// LPDDR4-3200         2.74x
	// LPDDR4X-4266        3.46x
	// 2xLPDDR4-3200       3.46x
	// HBM                 3.46x
	// infinite            3.46x
}
