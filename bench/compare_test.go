package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSpec() *spec {
	return &spec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
	}}
}

func testArtifact(wall, setup float64, failed int) artifact {
	return artifact{Workloads: []*report{{
		Name: "udp-flood", Attempted: 10, Failed: failed,
		EndToEnd: map[string]summary{
			"wall_s":  summarize("s", []float64{wall * 0.99, wall, wall * 1.01}, []float64{2 * wall}),
			"setup_s": summarize("s", []float64{setup}, nil),
		},
	}}}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, a artifact) string {
		path := filepath.Join(dir, name)
		buf, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name string
		a, b artifact
		want int
	}{
		{"same", testArtifact(1, 0.01, 0), testArtifact(1, 0.01, 0), 0},
		{"within bounds", testArtifact(1, 0.1, 0), testArtifact(1.09, 0.109, 0), 0},
		{"faster", testArtifact(1, 0.01, 0), testArtifact(0.5, 0.005, 0), 0},
		{"wall past its bound", testArtifact(1, 0.01, 0), testArtifact(1.11, 0.01, 0), 1},
		{"setup past 10% but within 5 ms", testArtifact(1, 0.01, 0), testArtifact(1, 0.014, 0), 0},
		{"setup past 10% and 5 ms", testArtifact(1, 0.01, 0), testArtifact(1, 0.016, 0), 1},
		{"setup past 5 ms but within 10%", testArtifact(1, 0.1, 0), testArtifact(1, 0.108, 0), 0},
		{"setup past 5 ms and 10%", testArtifact(1, 0.1, 0), testArtifact(1, 0.112, 0), 1},
		{"failed checks", testArtifact(1, 0.01, 0), testArtifact(1, 0.01, 1), 1},
		{"workload missing", testArtifact(1, 0.01, 0), artifact{}, 1},
	} {
		a, b := write(tc.name+".a.json", tc.a), write(tc.name+".b.json", tc.b)
		code, err := runCompare(io.Discard, testSpec(), a, b)
		if err != nil || code != tc.want {
			t.Errorf("%s: exit %d, %v; want %d", tc.name, code, err, tc.want)
		}
	}
	if _, err := runCompare(io.Discard, testSpec(), write("base.json", testArtifact(1, 0.01, 0)),
		filepath.Join(dir, "absent.json")); err == nil {
		t.Error("comparing against a missing artifact did not fail")
	}
}

// TestCompareShowsRawDelta checks a time's row carries the change of the
// clock's own readings next to the normalized change, so a regression
// the normalization hides stays visible.
func TestCompareShowsRawDelta(t *testing.T) {
	a, b := testArtifact(1, 0.01, 0), testArtifact(1, 0.01, 0)
	b.Workloads[0].EndToEnd["wall_s"] = summarize("s", []float64{1}, []float64{2.5})
	var out bytes.Buffer
	if n := compare(&out, testSpec(), &a, &b); n != 0 {
		t.Fatalf("%d violations for an unchanged normalized time", n)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "wall_s") && !strings.Contains(line, "+25.00%") {
			t.Errorf("wall_s row lacks the raw delta +25.00%%: %q", line)
		}
	}
}
