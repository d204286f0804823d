package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 runs the test binary as tclserve with each flag
// value out of range, and with an argument after the flags (where flag
// parsing stops, so the flags after it would be dropped unseen): each must
// exit 2 with one tclserve line naming it, rather than serve with the
// default in its place. A negative -cache-budget and a non-positive
// -health-interval keep their meanings (retention and probing off), so
// those pass the checks. Every run listens on -addr :-1, a port no
// listener accepts, so one that gets past its checks exits 1 before it
// serves anything.
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("TCLSERVE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclserve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct {
		args, msg string
		code      int
	}{
		{"-max-inflight 0", "tclserve: -max-inflight 0 must be at least 1", 2},
		{"-max-inflight -3", "tclserve: -max-inflight -3 must be at least 1", 2},
		{"-j -2", "tclserve: -j -2 must be at least 0", 2},
		{"-timeout 0s", "tclserve: -timeout 0s must be positive", 2},
		{"-timeout -1s", "tclserve: -timeout -1s must be positive", 2},
		{"-max-timeout 0s", "tclserve: -max-timeout 0s must be positive", 2},
		{"-max-timeout -5m", "tclserve: -max-timeout -5m0s must be positive", 2},
		{"-j 2 oops -max-inflight 0", `tclserve: unexpected argument "oops"`, 2},
		{"-cache-budget -1 -health-interval 0", "tclserve: listen tcp: address -1: invalid port", 1},
	} {
		args := "-addr :-1 " + tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "TCLSERVE_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("tclserve %s: %v, want exit status %d; stderr:\n%s", args, err, tc.code, stderr.String())
			continue
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tc.msg) || strings.Count(msg, "\n") != 1 {
			t.Errorf("tclserve %s stderr = %q, want one line starting %q", args, msg, tc.msg)
		}
	}
}
