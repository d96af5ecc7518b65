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
// binary with AIRTIME_SIM_TEST_MAIN=1, so flag handling is checked
// through the real exit path.
func TestMain(m *testing.M) {
	if os.Getenv("AIRTIME_SIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// airtimeSim runs the command with a short window ahead of args (a later
// flag overrides an earlier one) and returns its exit status and
// output streams.
func airtimeSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	c := exec.Command(os.Args[0], append([]string{"-dur", "0.05", "-warmup", "0"}, args...)...)
	c.Env = append(os.Environ(), "AIRTIME_SIM_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	c.Stdout, c.Stderr = &out, &errOut
	err := c.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestFlagBounds: every numeric flag value the simulator would panic on,
// run silently wrong with or never finish exits 2 before the world is
// built, with one line naming the flag and no trace, and the bounds
// admit their end points.
func TestFlagBounds(t *testing.T) {
	for _, r := range []struct {
		flag, value string
		with        []string // other flags the value is checked against
		ok          bool
	}{
		// Outside the table phy.MCS indexes, which panics.
		{"-fast-mcs", "99", nil, false},
		{"-fast-mcs", "-1", nil, false},
		{"-slow-mcs", "16", nil, false},
		{"-slow-mcs", "-2", nil, false},
		{"-fast-mcs", "0", []string{"-slow-mcs", "15"}, true},
		{"-slow-mcs", "-1", nil, true}, // 1 Mbps legacy
		// The UDP source panics on a non-positive rate, and a total over
		// the 1 Gbps wired link queues on the wire without bound.
		{"-udp-mbps", "-5", nil, false},
		{"-udp-mbps", "0", nil, false},
		{"-udp-mbps", "NaN", nil, false},
		{"-udp-mbps", "400", nil, false},
		{"-udp-mbps", "50", []string{"-fast", "20"}, false},
		{"-udp-mbps", "333", nil, true},
		{"-udp-mbps", "1000", []string{"-fast", "0"}, true},
		{"-udp-mbps", "50", []string{"-fast", "30", "-traffic", "tcp"}, true},
		// An empty or negative window prints NaN goodput, and no
		// station an empty table.
		{"-dur", "-1", nil, false},
		{"-dur", "0", nil, false},
		{"-dur", "NaN", nil, false},
		{"-dur", "1e12", nil, false},
		{"-warmup", "-1", nil, false},
		{"-fast", "0", []string{"-slow", "0"}, false},
		// Negative counts and sizes, and a loss outside [0, 1], mean
		// nothing.
		{"-fast", "-1", nil, false},
		{"-slow", "-1", nil, false},
		{"-mpdu-loss", "2", nil, false},
		{"-mpdu-loss", "-0.1", nil, false},
		{"-trace", "-1", nil, false},
		{"-slow-weight", "1e30", nil, false},
		{"-mpdu-loss", "1", []string{"-trace", "0"}, true},
	} {
		args := append(append([]string{}, r.with...), r.flag, r.value)
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := airtimeSim(t, args...)
			if r.ok {
				if code != 0 || !strings.Contains(stdout, "total goodput:") {
					t.Fatalf("exit status %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
				}
				return
			}
			if code != 2 {
				t.Fatalf("exit status %d, want 2; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n"); len(lines) != 1 {
				t.Errorf("stderr has %d lines, want one:\n%s", len(lines), stderr)
			}
			if !strings.HasPrefix(stderr, r.flag) {
				t.Errorf("stderr %q does not open with %s", stderr, r.flag)
			}
			if stdout != "" {
				t.Errorf("ran anyway:\n%s", stdout)
			}
		})
	}
}
