package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// randomAggGrid expands a random synthetic grid: 1–3 axes of 1–3 values each,
// 1–3 replicas, metrics and sample sets derived deterministically from each
// scenario's seed. withFailures additionally makes a deterministic subset
// of scenarios fail.
func randomAggGrid(rng *rand.Rand, withFailures bool) []Scenario {
	grid := NewGrid()
	axes := 1 + rng.Intn(3)
	for ai := 0; ai < axes; ai++ {
		nv := 1 + rng.Intn(3)
		vals := make([]string, nv)
		for vi := range vals {
			vals[vi] = fmt.Sprintf("v%d", vi)
		}
		grid.Axis(fmt.Sprintf("a%d", ai), vals...)
	}
	replicas := 1 + rng.Intn(3)
	master := rng.Int63n(1 << 30)
	return grid.Expand(master, replicas, func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
			if withFailures && seed%5 == 0 {
				return Metrics{}, errors.New("synthetic failure")
			}
			r := rand.New(rand.NewSource(seed))
			m := NewMetrics()
			m.Set("x", r.Float64())
			m.Set("y", r.NormFloat64())
			n := 20 + r.Intn(80)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 1 + r.ExpFloat64()
			}
			m.AddSamples("s", xs...)
			return m, nil
		}
	})
}

// sampleSetNames returns an aggregate's sample-set names, sorted.
func sampleSetNames(a Aggregate) []string {
	var names []string
	for name := range a.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// renderAggs renders aggregates through every output format plus explicit
// percentile queries — the byte blob two aggregation paths must agree on.
func renderAggs(t *testing.T, aggs []Aggregate) []byte {
	t.Helper()
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
		for _, name := range sampleSetNames(a) {
			for _, p := range []float64{10, 50, 90, 99} {
				fmt.Fprintf(&buf, "%s %s p%g=%v\n", a.Point.Key(), name, p, a.Percentile(name, p))
			}
		}
	}
	return buf.Bytes()
}

// accumulate runs the scenarios through a fresh accumulator at the given
// worker count and returns its aggregates.
func accumulate(t *testing.T, scenarios []Scenario, workers int) []Aggregate {
	t.Helper()
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	if _, err := (&Runner{Workers: workers}).Accumulate(context.Background(), scenarios, acc); err != nil {
		t.Fatal(err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

// TestAccumulatorExactMatchesAggregated is the core property: for random
// grids, seeds and worker counts, the streaming accumulator's output is
// byte-identical to the batch Run+Aggregated path.
func TestAccumulatorExactMatchesAggregated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		scenarios := randomAggGrid(rng, trial%3 == 0)
		results := (&Runner{Workers: 4}).Run(context.Background(), scenarios)
		golden := renderAggs(t, Aggregated(results))
		for _, workers := range []int{1, 3, 8} {
			aggs := accumulate(t, scenarios, workers)
			if got := renderAggs(t, aggs); !bytes.Equal(got, golden) {
				t.Fatalf("trial %d workers=%d: streaming output differs from batch:\n%s\n--- vs ---\n%s",
					trial, workers, got, golden)
			}
		}
	}
}

// TestAccumulatorShardMergeEqualsSingleHost: shards each write a standard
// checkpoint; merging them yields every rendered byte and percentile
// answer identical to a single host accumulating the whole grid live.
func TestAccumulatorShardMergeEqualsSingleHost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	for trial := 0; trial < 4; trial++ {
		scenarios := randomAggGrid(rng, false)
		golden := renderAggs(t, accumulate(t, scenarios, 4))
		for shards := 2; shards <= 4; shards++ {
			paths := make([]string, shards)
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("t%d-%d-of-%d.jsonl", trial, i, shards))
				cp, err := NewCheckpoint(paths[i], "prop")
				if err != nil {
					t.Fatal(err)
				}
				runner := &Runner{Workers: 3, Shard: Shard{Index: i, Count: shards}, Progress: cp.Progress(nil)}
				acc := NewAccumulator(AccumulatorConfig{}, scenarios)
				if _, err := runner.Accumulate(context.Background(), scenarios, acc); err != nil {
					t.Fatal(err)
				}
				if err := cp.Close(); err != nil {
					t.Fatal(err)
				}
			}
			merged := NewAccumulator(AccumulatorConfig{}, scenarios)
			if err := MergeCheckpointsInto(merged, "prop", scenarios, paths...); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			aggs, err := merged.Aggregates()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAggs(t, aggs); !bytes.Equal(got, golden) {
				t.Fatalf("trial %d shards=%d: merged output differs from single host:\n%s\n--- vs ---\n%s",
					trial, shards, got, golden)
			}
		}
	}
}

// TestAccumulatorResumeMatchesUninterrupted: cancel an accumulating run
// mid-sweep, resume from the checkpoint, and the final aggregates match an
// uninterrupted streaming run byte for byte.
func TestAccumulatorResumeMatchesUninterrupted(t *testing.T) {
	scenarios := randomAggGrid(rand.New(rand.NewSource(5)), false)
	golden := renderAggs(t, accumulate(t, scenarios, 4))

	path := filepath.Join(t.TempDir(), "resume.jsonl")
	cp, err := NewCheckpoint(path, "prop")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runner := &Runner{Workers: 2, Progress: cp.Progress(func(done, total int, r Result) {
		if done == len(scenarios)/2 {
			cancel()
		}
	})}
	interrupted := NewAccumulator(AccumulatorConfig{}, scenarios)
	failed, err := runner.Accumulate(ctx, scenarios, interrupted)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(failed) == 0 {
		t.Fatal("cancel interrupted nothing; cannot exercise resume")
	}

	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	restored, failed, err := (&Runner{Workers: 4}).ResumeCheckpointAccumulate(context.Background(), path, "prop", scenarios, acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("resume left failures: %v", failed)
	}
	if restored == 0 || restored == len(scenarios) {
		t.Fatalf("restored %d of %d scenarios; want a partial checkpoint", restored, len(scenarios))
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAggs(t, aggs); !bytes.Equal(got, golden) {
		t.Fatalf("resumed streaming output differs from uninterrupted:\n%s\n--- vs ---\n%s", got, golden)
	}
}

// TestResumeCheckpointAccumulate: the streaming resume — restored records
// fed from disk as the cursor reaches them — matches an uninterrupted
// streaming run byte for byte, keeps nothing parked, and handles the
// worst case: a checkpoint missing only scenario 0, behind which every
// restored record would otherwise queue.
func TestResumeCheckpointAccumulate(t *testing.T) {
	dir := t.TempDir()
	scenarios := randomAggGrid(rand.New(rand.NewSource(8)), false)
	results := (&Runner{Workers: 4}).Run(context.Background(), scenarios)
	golden := renderAggs(t, accumulate(t, scenarios, 4))

	// Checkpoint every scenario except the first: the fold cursor
	// cannot advance until the live re-run of scenario 0 completes.
	path := filepath.Join(dir, "gap0.jsonl")
	cp, err := NewCheckpoint(path, "prop")
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results[1:] {
		if err := cp.record(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	early := -1
	restored, failed, err := (&Runner{Workers: 3}).ResumeCheckpointAccumulate(
		context.Background(), path, "prop", scenarios, acc, func(n int) { early = n })
	if err != nil {
		t.Fatal(err)
	}
	if early != restored {
		t.Errorf("onRestored reported %d, return value %d", early, restored)
	}
	if len(failed) != 0 {
		t.Fatalf("streaming resume failures: %v", failed)
	}
	if restored != len(scenarios)-1 {
		t.Errorf("restored = %d, want %d", restored, len(scenarios)-1)
	}
	if acc.Pending() != 0 {
		t.Errorf("%d results left parked after resume", acc.Pending())
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAggs(t, aggs); !bytes.Equal(got, golden) {
		t.Fatalf("streaming resume differs from uninterrupted:\n%s\n--- vs ---\n%s", got, golden)
	}

	// A missing checkpoint file is a fresh run, not an error.
	fresh := NewAccumulator(AccumulatorConfig{}, scenarios)
	restored, failed, err = (&Runner{Workers: 3}).ResumeCheckpointAccumulate(
		context.Background(), filepath.Join(dir, "nope.jsonl"), "prop", scenarios, fresh, nil)
	if err != nil || restored != 0 || len(failed) != 0 {
		t.Fatalf("missing file: restored=%d failed=%v err=%v", restored, failed, err)
	}
	aggs, err = fresh.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAggs(t, aggs); !bytes.Equal(got, golden) {
		t.Error("fresh-run resume differs from uninterrupted")
	}
}

// TestAccumulatorRejectsBadObservations: unknown scenarios, duplicates and
// early aggregate reads fail loudly instead of corrupting aggregation.
func TestAccumulatorRejectsBadObservations(t *testing.T) {
	scenarios := randomAggGrid(rand.New(rand.NewSource(6)), false)
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	if _, err := acc.Aggregates(); err == nil {
		t.Error("Aggregates before any observation should fail")
	}
	if err := acc.Observe(Result{Name: "no such scenario"}); err == nil {
		t.Error("observing an unknown scenario should fail")
	}
	res := Result{Name: scenarios[0].Name, Point: scenarios[0].Point, Seed: scenarios[0].Seed}
	if err := acc.Observe(res); err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(res); err == nil {
		t.Error("observing a scenario twice should fail")
	}
	if _, err := acc.Aggregates(); err == nil {
		t.Error("Aggregates with unobserved scenarios should fail")
	}
}
