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
// for every value campaign.Plan would replace with its default, for
// durations that overflow simulated time, and for a repeated scenario,
// axis or axis value, before anything runs.
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
		// Every row selects -s udp; a second one would run its cells
		// twice under the same seeds.
		{"s", "udp"},
		// Every row selects -axis scheme=FIFO; a second value set would
		// silently replace the first.
		{"axis", "scheme=Airtime"},
		// A repeated value would run its cell twice.
		{"axis", "rate-mbps=50,20,50"},
	}
	for _, cmd := range [][]string{{"run", "-axis", "scheme=FIFO"}, {"sweep", "-axis", "scheme=FIFO"}} {
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

// campaignCmd re-executes the test binary as the command with args and
// returns its stdout and exit status.
func campaignCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	c := exec.Command(os.Args[0], args...)
	c.Env = append(os.Environ(), "CAMPAIGN_TEST_MAIN=1")
	var stdout bytes.Buffer
	c.Stdout = &stdout
	var exit *exec.ExitError
	if err := c.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("campaign %s: %v", strings.Join(args, " "), err)
	}
	return stdout.String(), c.ProcessState.ExitCode()
}

// TestDescribeAndList: describe prints a scenario's topology and the
// metric names its default point emits, an unknown scenario exits 2,
// and list names every scenario, in order, with its default station
// count.
func TestDescribeAndList(t *testing.T) {
	out, code := campaignCmd(t, "describe", "dense")
	if code != 0 {
		t.Fatalf("describe dense: exit status %d", code)
	}
	for _, want := range []string{
		"\ntopology (default point): 1 co-channel BSS, 40 stations total (per BSS: 40)\n",
		"\nmetrics (artifact order): total-mbps, obss-jain, bss-share-0, jain-bss-0, rtt-ms-bss-0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("describe dense lacks %q; output:\n%s", want, out)
		}
	}
	if _, code := campaignCmd(t, "describe", "nosuch"); code != 2 {
		t.Errorf("describe nosuch: exit status %d, want 2", code)
	}

	out, code = campaignCmd(t, "list")
	if code != 0 {
		t.Fatalf("list: exit status %d", code)
	}
	lines := strings.Split(out, "\n")
	for _, sc := range []struct{ name, stations string }{
		{"latency", "[3 stations]"}, {"udp", "[3 stations]"},
		{"fairness", "[3 stations]"}, {"throughput", "[3 stations]"},
		{"sparse", "[4 stations]"}, {"scale", "[30 stations]"},
		{"voip", "[4 stations]"}, {"web", "[3 stations]"},
		{"weighted-udp", "[3 stations]"}, {"table1", "[3 stations]"},
		{"mixed", "[4 stations]"}, {"dense", "[40 stations / 1 BSS]"},
	} {
		for len(lines) > 0 && !strings.HasPrefix(lines[0], sc.name+" ") {
			lines = lines[1:]
		}
		if len(lines) == 0 {
			t.Fatalf("list lacks scenario %q in order; output:\n%s", sc.name, out)
		}
		if !strings.HasSuffix(lines[0], "  "+sc.stations) {
			t.Errorf("list line %q does not end in %q", lines[0], sc.stations)
		}
	}
}
