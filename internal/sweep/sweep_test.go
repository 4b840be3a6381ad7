package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowsim"
	"repro/internal/topo"
	"repro/internal/units"
)

// Errored returns the indices of results carrying an error, in order.
func Errored(results []Result) []int {
	var out []int
	for i, r := range results {
		if r.Err != nil {
			out = append(out, i)
		}
	}
	return out
}

func TestGridPoints(t *testing.T) {
	g := NewGrid().
		Axis("isp", "A", "B").
		Axis("policy", "sp", "inrp").
		Axis("load", "1")
	if g.Size() != 4 {
		t.Fatalf("Size = %d, want 4", g.Size())
	}
	pts := g.Points()
	want := []string{
		"isp=A policy=sp load=1",
		"isp=A policy=inrp load=1",
		"isp=B policy=sp load=1",
		"isp=B policy=inrp load=1",
	}
	if len(pts) != len(want) {
		t.Fatalf("points = %d, want %d", len(pts), len(want))
	}
	for i, pt := range pts {
		if pt.Key() != want[i] {
			t.Errorf("point[%d] = %q, want %q", i, pt.Key(), want[i])
		}
	}
	if pts[1].Get("policy") != "inrp" {
		t.Errorf("Get(policy) = %q", pts[1].Get("policy"))
	}
	if got := pts[3].Subset("policy", "isp").Key(); got != "policy=inrp isp=B" {
		t.Errorf("Subset = %q", got)
	}
	if NewGrid().Size() != 0 || NewGrid().Axis("empty").Size() != 0 {
		t.Error("empty grids should have size 0")
	}
}

func TestSeedAxes(t *testing.T) {
	grid := NewGrid().
		Axis("isp", "A").
		Axis("policy", "sp", "inrp").
		SeedAxes("isp")
	var handed []int64
	scenarios := grid.Expand(1, 2, func(pt Point, replica int, seed int64) RunFunc {
		handed = append(handed, seed)
		return func(ctx context.Context) (Metrics, error) { return NewMetrics(), nil }
	})
	// Scenario.Seed must record exactly the seed handed to the builder.
	for i, sc := range scenarios {
		if sc.Seed != handed[i] {
			t.Errorf("scenario %d: Seed = %d, builder got %d", i, sc.Seed, handed[i])
		}
	}
	// Points differing only on the excluded policy axis share seeds at
	// equal replicas; replicas differ.
	if scenarios[0].Seed != scenarios[2].Seed || scenarios[1].Seed != scenarios[3].Seed {
		t.Errorf("policy axis should not affect seeds: %v", handed)
	}
	if scenarios[0].Seed == scenarios[1].Seed {
		t.Error("replicas must get distinct seeds")
	}

	// A typo'd SeedAxes name must fail loudly, not silently correlate the
	// whole grid.
	defer func() {
		if recover() == nil {
			t.Error("Expand with unknown SeedAxes name should panic")
		}
	}()
	NewGrid().Axis("isp", "A").SeedAxes("ips").Expand(1, 1,
		func(pt Point, replica int, seed int64) RunFunc { return nil })
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]flowsim.Policy{
		"sp": flowsim.SP, "ECMP": flowsim.ECMP, "Inrp": flowsim.INRP,
	} {
		if got, err := ParsePolicy(s); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy should reject unknown names")
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(1, "isp=A", 0)
	if a != DeriveSeed(1, "isp=A", 0) {
		t.Error("seed not stable")
	}
	if a < 0 {
		t.Errorf("seed %d negative", a)
	}
	seen := map[int64]string{}
	for _, master := range []int64{1, 2} {
		for _, key := range []string{"isp=A", "isp=B"} {
			for rep := 0; rep < 3; rep++ {
				s := DeriveSeed(master, key, rep)
				id := fmt.Sprintf("%d/%s/%d", master, key, rep)
				if prev, dup := seen[s]; dup {
					t.Errorf("seed collision: %s and %s both map to %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
}

// syntheticScenarios builds a deterministic all-software sweep: each
// scenario derives its metrics from its seed alone.
func syntheticScenarios(master int64, replicas int) []Scenario {
	g := NewGrid().
		Axis("isp", "A", "B").
		Axis("policy", "sp", "ecmp", "inrp").
		Axis("load", "60", "120")
	return g.Expand(master, replicas, func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
			rng := rand.New(rand.NewSource(seed))
			m := NewMetrics()
			m.Set("throughput", rng.Float64())
			m.Set("jain", rng.Float64())
			m.AddSamples("stretch", rng.Float64()+1, rng.Float64()+1)
			return m, nil
		}
	})
}

// renderAll renders every output format into one byte blob, the unit of the
// byte-identical determinism guarantee.
func renderAll(t *testing.T, results []Result) []byte {
	t.Helper()
	aggs := Aggregated(results)
	var buf bytes.Buffer
	if err := Table("sweep", aggs).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CSV(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	if err := JSON(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	for _, a := range aggs {
		fmt.Fprintf(&buf, "%s p90=%.6f\n", a.Point.Key(), a.Percentile("stretch", 90))
	}
	return buf.Bytes()
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var golden []byte
	for _, workers := range []int{1, 4, 16} {
		r := &Runner{Workers: workers}
		out := renderAll(t, r.Run(context.Background(), syntheticScenarios(7, 3)))
		if golden == nil {
			golden = out
			continue
		}
		if !bytes.Equal(out, golden) {
			t.Errorf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s",
				workers, out, golden)
		}
	}
}

// TestRunCancelResume: cancelling Run mid-sweep returns every unstarted
// scenario as context.Canceled, ready for a resume, and keeps the results
// of scenarios that finished. TestAccumulatorResumeMatchesUninterrupted
// covers the resume itself.
func TestRunCancelResume(t *testing.T) {
	scenarios := syntheticScenarios(7, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Workers: 2, Progress: func(done, total int, res Result) {
		if done == 3 {
			cancel() // interrupt mid-sweep
		}
	}}
	partial := r.Run(ctx, scenarios)
	errored := Errored(partial)
	if len(errored) == 0 {
		t.Fatal("cancel interrupted nothing; cannot exercise resume")
	}
	for _, i := range errored {
		if !errors.Is(partial[i].Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, partial[i].Err)
		}
	}
	if len(errored) == len(scenarios) {
		t.Fatal("cancel discarded the scenarios that finished")
	}
}

func TestRunCapturesFailuresAndPanics(t *testing.T) {
	boom := errors.New("boom")
	scenarios := []Scenario{
		{Name: "ok", Point: Point{{"case", "ok"}}, Run: func(ctx context.Context) (Metrics, error) {
			m := NewMetrics()
			m.Set("v", 1)
			return m, nil
		}},
		{Name: "fails", Point: Point{{"case", "fails"}}, Run: func(ctx context.Context) (Metrics, error) {
			return Metrics{}, boom
		}},
		{Name: "panics", Point: Point{{"case", "panics"}}, Run: func(ctx context.Context) (Metrics, error) {
			panic("kaboom")
		}},
	}
	var progress atomic.Int32
	r := &Runner{Workers: 2, Progress: func(done, total int, res Result) {
		progress.Add(1)
		if total != 3 {
			t.Errorf("progress total = %d, want 3", total)
		}
	}}
	results := r.Run(context.Background(), scenarios)
	if results[0].Err != nil || results[0].Metrics.Values["v"] != 1 {
		t.Errorf("ok scenario: %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) || !strings.Contains(results[1].Err.Error(), "fails") {
		t.Errorf("failed scenario err = %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "kaboom") {
		t.Errorf("panicking scenario err = %v", results[2].Err)
	}
	if got := progress.Load(); got != 3 {
		t.Errorf("progress calls = %d, want 3", got)
	}
	aggs := Aggregated(results)
	if len(aggs) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(aggs))
	}
	if aggs[1].Failed != 1 || aggs[1].Replicas != 0 {
		t.Errorf("failed aggregate = %+v", aggs[1])
	}
	out := Table("t", aggs).String()
	if !strings.Contains(out, "(+1 failed)") {
		t.Errorf("table should flag failures:\n%s", out)
	}
}

func TestAggregatedStats(t *testing.T) {
	pt := Point{{"k", "v"}}
	mk := func(v float64, samples ...float64) Result {
		m := NewMetrics()
		m.Set("x", v)
		m.AddSamples("s", samples...)
		return Result{Point: pt, Metrics: m}
	}
	aggs := Aggregated([]Result{mk(1, 10, 20), mk(2, 30), mk(3, 40)})
	if len(aggs) != 1 {
		t.Fatalf("groups = %d, want 1", len(aggs))
	}
	a := aggs[0]
	if a.Replicas != 3 {
		t.Errorf("replicas = %d", a.Replicas)
	}
	s := a.Summary("x")
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Errorf("summary = %v", s)
	}
	if got := a.Percentile("s", 50); got != 25 {
		t.Errorf("sample p50 = %v, want 25", got)
	}
	if got := a.Percentile("x", 100); got != 3 {
		t.Errorf("series p100 fallback = %v, want 3", got)
	}
	if names := MetricNames(aggs); len(names) != 1 || names[0] != "x" {
		t.Errorf("metric names = %v", names)
	}
}

func TestFlowSpecSweepDeterministic(t *testing.T) {
	spec := FlowSpec{
		ISP:       topo.VSNL,
		Capacity:  100 * units.Mbps,
		Flows:     30,
		MeanSize:  20 * units.MB,
		DemandCap: 50 * units.Mbps,
		Horizon:   4 * time.Second,
	}
	build := func(pt Point, replica int, seed int64) RunFunc {
		s := spec
		s.Policy = MustParsePolicy(pt.Get("policy"))
		return s.Run(seed)
	}
	// SeedAxes pairs workloads across the policy axis: both policies see
	// the same flows at each replica.
	grid := NewGrid().Axis("isp", string(topo.VSNL)).Axis("policy", "sp", "inrp").SeedAxes("isp")
	scenarios := grid.Expand(1, 2, build)
	var golden []byte
	for _, workers := range []int{1, 4} {
		out := renderAll(t, (&Runner{Workers: workers}).Run(context.Background(), scenarios))
		if golden == nil {
			golden = out
		} else if !bytes.Equal(out, golden) {
			t.Errorf("flowsim sweep differs between 1 and %d workers", workers)
		}
	}
	if !strings.Contains(string(golden), "demand_satisfied") {
		t.Errorf("flow metrics missing from output:\n%s", golden)
	}
}
