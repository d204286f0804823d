package main

// Example runs the program; go test checks that it prints exactly the
// output below.
func Example() {
	main()
	// Output:
	// filter: 58/192 weights effectual; schedule 5 columns (dense 12)
	//
	// col  head adv | promotions (dt,dl)            | TCLe serial cycles
	//   0     0   1 | [(1,+1) (1,-1) (1,+0) (1,-1) (1,+0) (1,-1) (2,+3) (2,+3) (1,+0)] | 3
	//   1     1   3 | [(2,+0) (2,-3) (2,-3) (2,+0) (1,+1) (2,+0) (2,+0)] | 3
	//   2     4   3 | [(1,+1) (2,+5) (2,+0) (1,+1) (1,+0) (1,+0) (1,+0) (2,+5)] | 3
	//   3     7   3 | [(1,-1) (1,+0) (2,-3) (1,+1) (2,-3) (2,+3) (1,-1)] | 3
	//   4    10   2 | [(1,+0) (1,+0) (1,+0) (1,+0)]  | 3
	//
	// structural psum 4539267 == reference 4539267: true
	// structural run: 15 serial cycles, 10 ABR rotations, 12 ABR loads (dense walk would load 12), 96 shift-adds, 15 tree reductions
}
