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
// binary with ANOMALY_MODEL_TEST_MAIN=1, so flag handling is checked
// through the real exit path.
func TestMain(m *testing.M) {
	if os.Getenv("ANOMALY_MODEL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// anomalyModel runs the command with args and returns its exit status
// and output streams.
func anomalyModel(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	c := exec.Command(os.Args[0], args...)
	c.Env = append(os.Environ(), "ANOMALY_MODEL_TEST_MAIN=1")
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

// table1 is the default run's output: the calculated columns of the
// paper's Table 1 for its three stations.
const table1 = `
Without airtime fairness (802.11 anomaly)
station  rate            aggr   T(i)   base(Mbps)  R(i)(Mbps)
-------  --------------  -----  -----  ----------  ----------
sta1     MCS15-HT20-SGI  18.44  24.8%  126.8       31.4      
sta2     MCS15-HT20-SGI  18.52  24.9%  126.8       31.6      
sta3     MCS0-HT20-SGI   1.89   50.3%  6.6         3.3       
total: 66.3 Mbps

With airtime fairness
station  rate            aggr   T(i)   base(Mbps)  R(i)(Mbps)
-------  --------------  -----  -----  ----------  ----------
sta1     MCS15-HT20-SGI  18.44  33.3%  126.8       42.3      
sta2     MCS15-HT20-SGI  18.52  33.3%  126.8       42.3      
sta3     MCS0-HT20-SGI   1.89   33.3%  6.6         2.2       
total: 86.7 Mbps
`

// TestDefaultTable1: with no flags the command prints the Table 1 block.
func TestDefaultTable1(t *testing.T) {
	code, stdout, stderr := anomalyModel(t)
	if code != 0 || stdout != table1 {
		t.Fatalf("exit status %d; stdout:\n%s\nwant:\n%s\nstderr:\n%s", code, stdout, table1, stderr)
	}
}

// TestFlagBounds: a station spec or packet size the model would panic
// on or answer with zero, NaN or negative rates exits 2 with one line
// naming the flag and no trace, and the bounds admit their end points.
func TestFlagBounds(t *testing.T) {
	for _, r := range []struct {
		flag, value string
		ok          bool
	}{
		// Outside the table phy.MCS indexes, which panics.
		{"-sta", "mcs99:1", false},
		{"-sta", "mcs-1:1", false},
		{"-sta", "mcs0:1", true},
		{"-sta", "mcs15:1", true},
		// An aggregate carries at least one MPDU.
		{"-sta", "mcs15:-3", false},
		{"-sta", "mcs15:0", false},
		{"-sta", "mcs15:0.5", false},
		{"-sta", "mcs15:NaN", false},
		{"-sta", "mcs15:Inf", false},
		{"-sta", "mcs15:32", true},
		// A legacy rate is a finite number of Mbps above 0.
		{"-sta", "legacy0:1", false},
		{"-sta", "legacy-5:1", false},
		{"-sta", "legacyNaN:1", false},
		{"-sta", "legacyInf:1", false},
		{"-sta", "legacy1:1", true},
		{"-sta", "legacy0.5:1", true},
		// A packet is 1 to 65535 bytes.
		{"-pktlen", "0", false},
		{"-pktlen", "-100", false},
		{"-pktlen", "65536", false},
		{"-pktlen", "1", true},
		{"-pktlen", "65535", true},
	} {
		t.Run(r.flag+" "+r.value, func(t *testing.T) {
			code, stdout, stderr := anomalyModel(t, r.flag, r.value)
			if r.ok {
				if code != 0 || !strings.Contains(stdout, "total:") ||
					strings.Contains(stdout, "NaN") || strings.Contains(stdout, "-0.0") {
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
			if !strings.Contains(stderr, r.flag) {
				t.Errorf("stderr %q does not name %s", stderr, r.flag)
			}
			if stdout != "" {
				t.Errorf("ran anyway:\n%s", stdout)
			}
		})
	}
}
