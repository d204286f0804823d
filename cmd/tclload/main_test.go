package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestSplitConfigs pins the -configs grammar: commas separate specs except
// inside a pattern's angle brackets, so the default "tcle:T8<2,5>" is one
// config, not two broken halves.
func TestSplitConfigs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"tcle", []string{"tcle"}},
		{"tcle:T8<2,5>", []string{"tcle:T8<2,5>"}},
		{"tcle:T8<2,5>,tclp:L4<1,2>", []string{"tcle:T8<2,5>", "tclp:L4<1,2>"}},
		{" tcle , bitparallel ", []string{"tcle", "bitparallel"}},
		{",,tcle,", []string{"tcle"}},
		{"tcle:T8<2,5", []string{"tcle:T8<2,5"}}, // unbalanced: server rejects, not us
	} {
		if got := splitConfigs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitConfigs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestUsageErrorsExit2 runs the test binary as tclload with each flag
// value out of range, and with an argument after the flags (where flag
// parsing stops, so the flags after it would be dropped unseen): each must
// exit 2 with one tclload line naming it, rather than drive the server
// with a clamped count or with the server's default deadline. Every run
// names a server under a URL scheme no HTTP client speaks, so one that
// gets past its checks exits 1 without opening a connection.
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("TCLLOAD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclload"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct {
		args, msg string
		code      int
	}{
		{"-n 0", "tclload: -n 0 must be at least 1", 2},
		{"-n -4", "tclload: -n -4 must be at least 1", 2},
		{"-c 0", "tclload: -c 0 must be at least 1", 2},
		{"-timeout 500us", "tclload: -timeout 500µs must be at least 1ms", 2},
		{"-timeout 0s", "tclload: -timeout 0s must be at least 1ms", 2},
		{"-timeout -1s", "tclload: -timeout -1s must be at least 1ms", 2},
		{"-n 4 oops -c 0", `tclload: unexpected argument "oops"`, 2},
		{"-n 1 -c 1 -timeout 1ms", "tclload: ", 1},
	} {
		args := "-addr unsupported://nowhere " + tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "TCLLOAD_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("tclload %s: %v, want exit status %d; stderr:\n%s", args, err, tc.code, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclload %s printed to stdout:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tc.msg) || strings.Count(msg, "\n") != 1 {
			t.Errorf("tclload %s stderr = %q, want one line starting %q", args, msg, tc.msg)
		}
	}
}
