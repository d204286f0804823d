package main

import "os"

// Example prints one transformer workload from the attention zoo with its
// per-layer geometry at batch 2, which doubles every FC layer's token
// windows and so its MACs.
func Example() {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"tclzoo", "-model", "BERT-Attn", "-layers", "-batch", "2"}
	main()
	// Output:
	// BERT-Attn      16b  layers=16  MACs=  54.5M  weight sparsity=0.600 (target 0.60)
	//   blk1/q_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk1/k_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk1/v_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk1/scores    fc      K=64    C=64    1x1 s0 in 1x1 out 1x1  MACs=    1.05M  wsp=0.60
	//   blk1/attnv     fc      K=64    C=64    1x1 s0 in 1x1 out 1x1  MACs=    1.05M  wsp=0.60
	//   blk1/out_proj  fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk1/ffn1      fc      K=512   C=128   1x1 s0 in 1x1 out 1x1  MACs=    8.39M  wsp=0.60
	//   blk1/ffn2      fc      K=128   C=512   1x1 s0 in 1x1 out 1x1  MACs=    8.39M  wsp=0.60
	//   blk2/q_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk2/k_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk2/v_proj    fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk2/scores    fc      K=64    C=64    1x1 s0 in 1x1 out 1x1  MACs=    1.05M  wsp=0.60
	//   blk2/attnv     fc      K=64    C=64    1x1 s0 in 1x1 out 1x1  MACs=    1.05M  wsp=0.60
	//   blk2/out_proj  fc      K=128   C=128   1x1 s0 in 1x1 out 1x1  MACs=    2.10M  wsp=0.60
	//   blk2/ffn1      fc      K=512   C=128   1x1 s0 in 1x1 out 1x1  MACs=    8.39M  wsp=0.60
	//   blk2/ffn2      fc      K=128   C=512   1x1 s0 in 1x1 out 1x1  MACs=    8.39M  wsp=0.60
}
