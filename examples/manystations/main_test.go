package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the example itself when a test re-executes the test
// binary with MANYSTATIONS_TEST_MAIN=1, so -dur is checked through the
// real exit path.
func TestMain(m *testing.M) {
	if os.Getenv("MANYSTATIONS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDurBounds: a -dur that campaign.Plan would replace with its
// default, or that overflows simulated time, exits 2 with one line
// naming the flag before any world is built.
func TestDurBounds(t *testing.T) {
	for _, v := range []string{"-1", "0", "9223372032", "10000000000"} {
		c := exec.Command(os.Args[0], "-dur", v)
		c.Env = append(os.Environ(), "MANYSTATIONS_TEST_MAIN=1")
		var out, errOut bytes.Buffer
		c.Stdout, c.Stderr = &out, &errOut
		err := c.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-dur %s: %v, want exit status 2", v, err)
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-dur") {
			t.Errorf("-dur %s: stderr %q, want one line naming -dur", v, msg)
		}
		if out.Len() != 0 {
			t.Errorf("-dur %s: printed %q", v, out.String())
		}
	}
}
