package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain calls main with args as its command line. main defines its flags
// on every call, so each call gets a fresh flag.CommandLine.
func runMain(args ...string) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	os.Args = append([]string{"tclpack"}, args...)
	flag.CommandLine = flag.NewFlagSet("tclpack", flag.ExitOnError)
	main()
}

// Example runs the pipeline at its default flags: AlexNet-ES scheduled
// under T8<2,5>, every schedule verified, packed and round-tripped.
func Example() {
	runMain()
	// Output:
	// AlexNet-ES under T8<2,5>: 2656 filters scheduled and verified
	// schedule: 37888 columns vs 108416 dense steps (2.86x front-end compaction)
	// WS images: 1474.3 KB (raw dense weights: 3388.0 KB; ws+ALC overhead included)
}

// TestImagesIndependentOfWorkers packs one model at -j 1 and at -j 2: the
// written images must be byte-identical, because the layers' images
// concatenate in layer order whichever worker packed them.
func TestImagesIndependentOfWorkers(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// The footprint report on stdout is not under test here.
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = devnull
	dir := t.TempDir()
	var images [][]byte
	for _, j := range []string{"1", "2"} {
		path := filepath.Join(dir, "j"+j+".tclw")
		runMain("-model", "MobileNet", "-j", j, "-o", path)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	if len(images[0]) == 0 {
		t.Fatal("-j 1 wrote an empty image")
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Errorf("-j 1 and -j 2 images differ (%d and %d bytes)", len(images[0]), len(images[1]))
	}
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
