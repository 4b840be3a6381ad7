package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// TestGoldenFig4Report pins the rendered Figure 4 tables — at a reduced
// but nontrivial scale — to bytes captured from the seed allocator. The
// flow-class allocator and every later hot-path optimisation must leave
// these bytes untouched: max-min gives identical rates to same-path,
// same-cap flows, so the refactor is provably output-preserving, and this
// test is the enforcement.
//
// Regenerate (only when an intentional physics change lands) with:
//
//	go test ./internal/experiments -run TestGoldenFig4Report -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden Fig4 report fixture")

// goldenFig4Config is the reduced-scale Figure 4 run the golden test
// renders.
func goldenFig4Config() Fig4Config {
	return Fig4Config{
		ISPs:            []topo.ISP{topo.Exodus},
		TargetActive:    120,
		DemandCap:       300 * units.Mbps,
		UniformCapacity: 450 * units.Mbps,
		Horizon:         8 * time.Second,
		Seeds:           1,
	}
}

// renderFig4 runs the golden config and renders both figure tables.
func renderFig4(t *testing.T, cfg Fig4Config) []byte {
	t.Helper()
	res, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4aReport(res).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Fig4bReport(res).Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenFig4Report(t *testing.T) {
	got := renderFig4(t, goldenFig4Config())

	path := filepath.Join("testdata", "golden_fig4.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Fig4 report bytes differ from seed golden fixture\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}
