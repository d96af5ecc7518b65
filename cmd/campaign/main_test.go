package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes the test
// binary with CAMPAIGN_TEST_MAIN=1, so flag handling is checked through
// the real exit path.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOutOfRangeFlags: run and sweep exit 2, naming the flag,
// for every value campaign.Plan would replace with its default and for
// durations that overflow simulated time, before anything runs.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	rows := []struct{ flag, value string }{
		{"reps", "0"},
		{"reps", "-2"},
		{"dur", "0"},
		{"dur", "-1"},
		{"dur", "NaN"},
		{"dur", "Inf"},
		{"dur", "1e12"},
		{"warmup", "0"},
		{"warmup", "-1"},
		{"seed", "0"},
		{"workers", "-1"},
	}
	for _, cmd := range [][]string{{"run"}, {"sweep", "-axis", "scheme=FIFO"}} {
		for _, r := range rows {
			t.Run(cmd[0]+"/"+r.flag+"="+r.value, func(t *testing.T) {
				args := append(append([]string{}, cmd...),
					"-s", "udp", "-reps", "1", "-dur", "1", "-warmup", "1", "-q", "-no-cache",
					"-"+r.flag, r.value)
				c := exec.Command(os.Args[0], args...)
				c.Env = append(os.Environ(), "CAMPAIGN_TEST_MAIN=1")
				var stderr bytes.Buffer
				c.Stderr = &stderr
				err := c.Run()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Fatalf("campaign %s: %v, want exit status 2; stderr:\n%s",
						strings.Join(args, " "), err, stderr.String())
				}
				if !strings.Contains(stderr.String(), "-"+r.flag) {
					t.Errorf("stderr %q does not name -%s", stderr.String(), r.flag)
				}
			})
		}
	}
}
