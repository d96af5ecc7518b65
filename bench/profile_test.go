package main

import (
	"os"
	"testing"
)

func TestRollUpFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/top.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseTop(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("parsed %d rows, want 12", len(rows))
	}
	if r := rows[1]; r.fn != "repro/internal/stats.(*Sample).sort" || r.file != "/src/repro/internal/stats/stats.go" {
		t.Errorf("inline row parsed as %+v", r)
	}
	if r := rows[6]; r.fn != "repro/internal/campaign.Map[go.shape.struct { Name string }]" {
		t.Errorf("generic row parsed as fn %q", r.fn)
	}

	// The fixture's rows sum to 2.31e9; the rest of the 2.5e9 total had no
	// kept frame and goes to "other", as does the unmapped analysis row.
	got := rollUp(rows, 2.5e9)
	want := map[string]float64{
		"campaign": 630e6, "stats": 500e6, "runtime": 400e6, "sim": 300e6,
		"queue": 200e6, "cache": 150e6, "codec": 100e6, "exp": 20e6, "other": 200e6,
	}
	for layer, v := range want {
		if d := got[layer] - v; d > 1 || d < -1 {
			t.Errorf("%s = %g, want %g", layer, got[layer], v)
		}
	}
	for layer := range got {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %q = %g", layer, got[layer])
		}
	}
}

func TestParseTopRejectsText(t *testing.T) {
	if _, err := parseTop("no table here\n"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

func TestParseValue(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "120000000ns": 1.2e8, "1234": 1234, "1.5kB": 1500, "2MB": 2e6, "10.5ns": 10.5,
	} {
		got, err := parseValue(in)
		if err != nil || got != want {
			t.Errorf("parseValue(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseValue("3h"); err == nil {
		t.Error("parseValue accepted an unknown unit")
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/mac.(*Node).Input":                   "repro/internal/mac",
		"runtime.mallocgc":                                   "runtime",
		"repro/internal/campaign/cache.(*Store).Get":         "repro/internal/campaign/cache",
		"repro/internal/exp.(*Spec).Build.func1":             "repro/internal/exp",
		"slices.pdqsortOrdered[go.shape.float64]":            "slices",
		"repro/internal/campaign.Map[go.shape.*uint8]":       "repro/internal/campaign",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "internal/runtime/maps",
		"crypto/internal/fips140/sha256.blockSHANI":          "crypto/internal/fips140/sha256",
		"repro/internal/tcp.(*Endpoint).onAck":               "repro/internal/tcp",
		"repro/internal/traffic.(*UDPSource).send.deferwrap": "repro/internal/traffic",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}
