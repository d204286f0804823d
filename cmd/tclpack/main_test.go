package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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

// TestBadCountsExit2 runs the test binary as tclpack with a negative -j, or
// an argument after the flags (where flag parsing stops, so the flags
// after it would be dropped unseen): each must exit 2 with one tclpack
// line and pack nothing, rather than run at GOMAXPROCS.
func TestBadCountsExit2(t *testing.T) {
	if args := os.Getenv("TCLPACK_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclpack"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, msg string }{
		{"-j -3", "tclpack: -j "},
		{"-j -1 -model MobileNet", "tclpack: -j "},
		{"-model MobileNet oops -j -1", `tclpack: unexpected argument "oops"`},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadCountsExit2$")
		cmd.Env = append(os.Environ(), "TCLPACK_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tclpack %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclpack %s printed to stdout:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tc.msg) || strings.Count(msg, "\n") != 1 {
			t.Errorf("tclpack %s stderr = %q, want one line starting %q", args, msg, tc.msg)
		}
	}
}
