package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestCacheKeysOnExecutable: the result cache keys on the bytes of the
// binary that runs. A copy of this binary with one byte appended stands
// in for a rebuild after an edit: it misses every cell the original
// cached, then hits its own, and the original still hits its cells.
func TestCacheKeysOnExecutable(t *testing.T) {
	dir := t.TempDir()
	orig, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(dir, "campaign-edited")
	if err := os.WriteFile(edited, append(raw, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	statsPath := filepath.Join(dir, "stats.json")
	steps := []struct {
		bin       string
		simulated int
	}{{orig, 6}, {orig, 0}, {edited, 6}, {edited, 0}, {orig, 0}}
	for i, step := range steps {
		c := exec.Command(step.bin, "run", "-s", "table1", "-q",
			"-cache-dir", cacheDir, "-stats-out", statsPath)
		c.Env = append(os.Environ(), "CAMPAIGN_TEST_MAIN=1")
		var stderr bytes.Buffer
		c.Stderr = &stderr
		if err := c.Run(); err != nil {
			t.Fatalf("run %d (%s): %v; stderr:\n%s", i, filepath.Base(step.bin), err, stderr.String())
		}
		blob, err := os.ReadFile(statsPath)
		if err != nil {
			t.Fatal(err)
		}
		var stats struct{ Simulated int }
		if err := json.Unmarshal(blob, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Simulated != step.simulated {
			t.Errorf("run %d (%s): simulated %d, want %d", i, filepath.Base(step.bin), stats.Simulated, step.simulated)
		}
	}
}
