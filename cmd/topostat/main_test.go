package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topo"
)

// TestAllISPsGolden pins the default output — a stats line and a
// detour-profile line per built-in ISP — byte for byte. Regenerate on
// purpose with: go run ./cmd/topostat > cmd/topostat/testdata/all_isps.txt
func TestAllISPsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, isp := range topo.ISPs() {
		describe(&got, topo.MustBuildISP(isp), false)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_isps.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("all-ISP output differs from testdata/all_isps.txt:\n%s", got.Bytes())
	}
}

// TestExportRoundTrip: a graph written by -export and read back by -json
// describes itself identically, per link included.
func TestExportRoundTrip(t *testing.T) {
	g := topo.MustBuildISP(topo.VSNL)
	path := filepath.Join(t.TempDir(), "vsnl.json")
	if err := writeJSON(path, g); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := topo.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	describe(&want, g, true)
	describe(&got, back, true)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("exported graph describes differently:\n%s\n--- vs ---\n%s", got.Bytes(), want.Bytes())
	}
}
