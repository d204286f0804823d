package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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

// TestBadCountsExit2 runs the test binary as tclzoo with a -batch below 1,
// a negative -j, or an argument after the flags (where flag parsing stops,
// so the flags after it would be dropped unseen): each must exit 2 with
// one tclzoo line and print no model, rather than build at the library
// default.
func TestBadCountsExit2(t *testing.T) {
	if args := os.Getenv("TCLZOO_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclzoo"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, msg string }{
		{"-model BERT-Attn -batch -2", "tclzoo: -batch "},
		{"-batch 0", "tclzoo: -batch "},
		{"-model MobileNet -j -4", "tclzoo: -j "},
		{"-model BERT-Attn oops -batch 0", `tclzoo: unexpected argument "oops"`},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadCountsExit2$")
		cmd.Env = append(os.Environ(), "TCLZOO_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tclzoo %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclzoo %s printed to stdout:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tc.msg) || strings.Count(msg, "\n") != 1 {
			t.Errorf("tclzoo %s stderr = %q, want one line starting %q", args, msg, tc.msg)
		}
	}
}
