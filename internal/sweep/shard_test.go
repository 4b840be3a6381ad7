package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseShard(t *testing.T) {
	for str, want := range map[string]Shard{
		"0/1": {0, 1}, "0/3": {0, 3}, "2/3": {2, 3}, " 1 / 4 ": {1, 4},
	} {
		got, err := ParseShard(str)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", str, got, err, want)
		}
	}
	// "0/0" and negative counts must not parse to a silent whole-grid
	// run on a host that was meant to run one slice.
	for _, str := range []string{"", "3", "a/b", "3/3", "-1/3", "1/0", "1/-2", "0/0", "0/-5"} {
		if _, err := ParseShard(str); err == nil {
			t.Errorf("ParseShard(%q) should fail", str)
		}
	}
	if (Shard{}).Validate() != nil || (Shard{0, 1}).Validate() != nil {
		t.Error("zero and 0/1 shards must validate")
	}
	if (Shard{1, 1}).Validate() == nil || (Shard{3, 2}).Validate() == nil ||
		(Shard{0, -5}).Validate() == nil {
		t.Error("out-of-range shards must not validate")
	}
	if s := (Shard{1, 3}).String(); s != "1/3" {
		t.Errorf("String = %q", s)
	}
	if s := (Shard{}).String(); s != "0/1" {
		t.Errorf("zero String = %q", s)
	}
}

// TestShardPartition: for every shard count, Select produces disjoint,
// order-preserving slices whose union is the whole scenario list, and the
// zero shard selects everything.
func TestShardPartition(t *testing.T) {
	scenarios := syntheticScenarios(7, 3)
	if got := (Shard{}).Select(scenarios); len(got) != len(scenarios) {
		t.Fatalf("zero shard selected %d/%d", len(got), len(scenarios))
	}
	for count := 1; count <= 5; count++ {
		owner := map[string]int{}
		total := 0
		for idx := 0; idx < count; idx++ {
			s := Shard{Index: idx, Count: count}
			sel := s.Select(scenarios)
			total += len(sel)
			prev := -1
			for _, sc := range sel {
				if !s.Contains(sc) || s.Of(sc) != idx {
					t.Fatalf("count=%d: %q selected by shard %d but Of says %d", count, sc.Name, idx, s.Of(sc))
				}
				if before, dup := owner[sc.Name]; dup {
					t.Fatalf("count=%d: %q owned by shards %d and %d", count, sc.Name, before, idx)
				}
				owner[sc.Name] = idx
				// Order must be scenario order.
				pos := scenarioIndex(t, scenarios, sc.Name)
				if pos <= prev {
					t.Fatalf("count=%d shard %d: selection out of scenario order", count, idx)
				}
				prev = pos
			}
		}
		if total != len(scenarios) {
			t.Fatalf("count=%d: shards cover %d/%d scenarios", count, total, len(scenarios))
		}
	}
}

func scenarioIndex(t *testing.T, scenarios []Scenario, name string) int {
	t.Helper()
	for i, sc := range scenarios {
		if sc.Name == name {
			return i
		}
	}
	t.Fatalf("scenario %q not found", name)
	return -1
}

// TestShardStableUnderAxisReordering: the partition hashes the canonical
// (key-sorted) point, so two grids differing only in axis order assign
// every (point, replica) to the same shard.
func TestShardStableUnderAxisReordering(t *testing.T) {
	build := func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) { return NewMetrics(), nil }
	}
	a := NewGrid().Axis("isp", "A", "B").Axis("policy", "sp", "inrp").Axis("load", "1", "2").
		Expand(7, 2, build)
	b := NewGrid().Axis("load", "1", "2").Axis("policy", "sp", "inrp").Axis("isp", "A", "B").
		Expand(7, 2, build)

	canonical := func(sc Scenario) string {
		parts := make([]string, len(sc.Point))
		for i, kv := range sc.Point {
			parts[i] = kv.Key + "=" + kv.Value
		}
		// Subset in sorted-key order normalises both grids to one identity.
		return fmt.Sprintf("%s #%d", sc.Point.Subset("isp", "load", "policy").Key(), sc.Replica)
	}
	shard := Shard{Index: 0, Count: 5}
	byID := map[string]int{}
	for _, sc := range a {
		byID[canonical(sc)] = shard.Of(sc)
	}
	if len(byID) != len(a) {
		t.Fatalf("canonical ids collide: %d ids for %d scenarios", len(byID), len(a))
	}
	for _, sc := range b {
		want, ok := byID[canonical(sc)]
		if !ok {
			t.Fatalf("scenario %q missing from grid a", canonical(sc))
		}
		if got := shard.Of(sc); got != want {
			t.Errorf("scenario %q: shard %d under axis order b, %d under a", canonical(sc), got, want)
		}
	}
}

// randomGrid builds a random grid (axes, values, replicas, master seed)
// from rng, with synthetic seed-derived metrics — the property-test
// input space.
func randomGrid(rng *rand.Rand) []Scenario {
	g := NewGrid()
	axes := 1 + rng.Intn(3)
	for a := 0; a < axes; a++ {
		name := fmt.Sprintf("ax%c", 'a'+a)
		n := 1 + rng.Intn(3)
		values := make([]string, n)
		for v := range values {
			// Disjoint ranges keep axis values distinct (duplicate values
			// would collapse grid points).
			values[v] = fmt.Sprintf("%d", 50*v+rng.Intn(50))
		}
		g.Axis(name, values...)
	}
	master := rng.Int63n(1000)
	replicas := 1 + rng.Intn(2)
	return g.Expand(master, replicas, func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
			r := rand.New(rand.NewSource(seed))
			m := NewMetrics()
			m.Set("throughput", r.Float64())
			m.AddSamples("stretch", r.Float64()+1, r.Float64()+1)
			return m, nil
		}
	})
}

// TestShardMergeByteIdentical is the property test behind the
// distributed-sweep guarantee: for random grids, every partition into
// 1–5 shards — each shard run as its own "process" writing its own
// checkpoint, with one shard additionally killed mid-run and resumed
// from disk — merges to output byte-identical to the unsharded run.
func TestShardMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const label = "prop config"
	for trial := 0; trial < 4; trial++ {
		scenarios := randomGrid(rng)
		golden := renderAggs(t, Aggregated((&Runner{Workers: 4}).Run(context.Background(), scenarios)))

		for count := 1; count <= 5; count++ {
			dir := t.TempDir()
			paths := make([]string, count)
			for idx := 0; idx < count; idx++ {
				paths[idx] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", idx))
				shard := Shard{Index: idx, Count: count}
				if idx == 0 && count > 1 {
					runShardWithKill(t, paths[idx], label, scenarios, shard)
				} else {
					runShard(t, paths[idx], label, scenarios, shard)
				}
			}
			merged, err := mergeExact(label, scenarios, paths...)
			if err != nil {
				t.Fatalf("trial=%d count=%d: merge: %v", trial, count, err)
			}
			if out := renderAggs(t, merged); !bytes.Equal(out, golden) {
				t.Errorf("trial=%d count=%d: merged output differs from unsharded run:\n%s\n--- vs ---\n%s",
					trial, count, out, golden)
			}
		}
	}
}

// mergeExact streams the shard checkpoints through an exact-mode
// accumulator, the way cmd/sweep -merge does.
func mergeExact(label string, scenarios []Scenario, paths ...string) ([]Aggregate, error) {
	acc := NewAccumulator(AccumulatorConfig{Mode: AggExact}, scenarios)
	if err := MergeCheckpointsInto(acc, label, scenarios, paths...); err != nil {
		return nil, err
	}
	return acc.Aggregates()
}

// runShard executes one shard of the grid as its own process would,
// streaming to a checkpoint.
func runShard(t *testing.T, path, label string, scenarios []Scenario, shard Shard) {
	t.Helper()
	cp, err := NewCheckpoint(path, label)
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 2, Shard: shard, Progress: cp.Progress(nil)}).
		Run(context.Background(), scenarios)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

// runShardWithKill simulates a shard host SIGKILLed mid-run: the first
// process's in-memory results are discarded (only the checkpoint file
// survives), and a second process restores from disk and resumes.
func runShardWithKill(t *testing.T, path, label string, scenarios []Scenario, shard Shard) {
	t.Helper()
	cp, err := NewCheckpoint(path, label)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 2, Shard: shard, Progress: cp.Progress(func(done, total int, res Result) {
		if done == 1 {
			cancel() // the "kill": in-memory results below are discarded
		}
	})}
	r.Run(ctx, scenarios)
	cancel()
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: fresh load from disk, resume the rest of the shard.
	loaded, _, err := LoadCheckpoint(path, label, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := NewCheckpoint(path, label)
	if err != nil {
		t.Fatal(err)
	}
	resumed := (&Runner{Workers: 2, Shard: shard, Progress: cp2.Progress(nil)}).
		Resume(context.Background(), scenarios, loaded)
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, i := range Errored(resumed) {
		if !Skipped(resumed[i]) {
			t.Fatalf("shard %v resume left a real failure: %v", shard, resumed[i].Err)
		}
	}
}

// TestMergeCheckpointsFailures: overlapping, foreign, incomplete and
// missing shard sets must all fail loudly, and the incomplete error must
// name the missing scenarios.
func TestMergeCheckpointsFailures(t *testing.T) {
	const label = "merge config"
	scenarios := syntheticScenarios(7, 2)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	runShard(t, a, label, scenarios, Shard{Index: 0, Count: 2})
	runShard(t, b, label, scenarios, Shard{Index: 1, Count: 2})

	if _, err := mergeExact(label, scenarios, a, b); err != nil {
		t.Fatalf("complete merge failed: %v", err)
	}

	// Incomplete: one shard's file missing from the set.
	_, err := mergeExact(label, scenarios, a)
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("incomplete merge: err = %v, want *IncompleteError", err)
	}
	missing := Shard{Index: 1, Count: 2}.Select(scenarios)
	if len(inc.Missing) != len(missing) || inc.Total != len(scenarios) {
		t.Errorf("IncompleteError = %d missing of %d, want %d of %d",
			len(inc.Missing), inc.Total, len(missing), len(scenarios))
	}
	if !strings.Contains(err.Error(), missing[0].Name) {
		t.Errorf("incomplete error does not name a missing scenario: %v", err)
	}

	// Overlap: the same scenarios contributed twice.
	if _, err := mergeExact(label, scenarios, a, a, b); err == nil ||
		!strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping merge: err = %v, want overlap", err)
	}

	// Foreign: a label from a different configuration.
	if _, err := mergeExact("other config", scenarios, a, b); err == nil {
		t.Error("foreign-config merge should fail")
	}
	// Foreign: a different master seed changes every derived scenario seed.
	if _, err := mergeExact(label, syntheticScenarios(8, 2), a, b); err == nil ||
		!strings.Contains(err.Error(), "seed") {
		t.Errorf("foreign-seed merge: err = %v, want seed mismatch", err)
	}

	// A typo'd path must not read as an empty shard.
	if _, err := mergeExact(label, scenarios, a, filepath.Join(dir, "nope.jsonl")); err == nil {
		t.Error("merge with a missing file should fail")
	}
	// No files at all is an error, not an empty result.
	if _, err := mergeExact(label, scenarios); err == nil {
		t.Error("merge with no files should fail")
	}
}

// TestShardRunMarksOtherShards: Run and Resume must mark out-of-shard
// scenarios with ErrOtherShard, Aggregated must ignore them, and a
// sharded Resume must never execute another shard's pending work.
func TestShardRunMarksOtherShards(t *testing.T) {
	scenarios := syntheticScenarios(7, 2)
	shard := Shard{Index: 0, Count: 3}
	mine := len(shard.Select(scenarios))
	if mine == 0 || mine == len(scenarios) {
		t.Fatalf("shard owns %d/%d scenarios; partition degenerate for this grid", mine, len(scenarios))
	}

	results := (&Runner{Workers: 2, Shard: shard}).Run(context.Background(), scenarios)
	ran := 0
	for i, r := range results {
		switch {
		case r.Err == nil:
			ran++
			if !shard.Contains(scenarios[i]) {
				t.Fatalf("ran out-of-shard scenario %q", r.Name)
			}
		case errors.Is(r.Err, ErrOtherShard):
			if shard.Contains(scenarios[i]) {
				t.Fatalf("in-shard scenario %q marked ErrOtherShard", r.Name)
			}
			if !Skipped(r) {
				t.Fatalf("ErrOtherShard result not Skipped")
			}
		default:
			t.Fatalf("scenario %q: unexpected error %v", r.Name, r.Err)
		}
	}
	if ran != mine {
		t.Fatalf("ran %d scenarios, shard owns %d", ran, mine)
	}

	// Aggregation sees only what ran: no failures, only in-shard replicas.
	var replicas, failed int
	for _, a := range Aggregated(results) {
		replicas += a.Replicas
		failed += a.Failed
	}
	if replicas != mine || failed != 0 {
		t.Fatalf("aggregated %d replicas (%d failed), want %d (0)", replicas, failed, mine)
	}

	// Resume from all-pending placeholders runs exactly the shard again.
	loaded, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.jsonl"), "", scenarios)
	if err != nil {
		t.Fatal(err)
	}
	resumed := (&Runner{Workers: 2, Shard: shard}).Resume(context.Background(), scenarios, loaded)
	for i, r := range resumed {
		in := shard.Contains(scenarios[i])
		if in && r.Err != nil {
			t.Fatalf("in-shard %q not resumed: %v", r.Name, r.Err)
		}
		if !in && !errors.Is(r.Err, ErrOtherShard) {
			t.Fatalf("out-of-shard %q: err = %v, want ErrOtherShard", r.Name, r.Err)
		}
	}

	// A checkpoint recorded without a shard (or under a different split)
	// restores successes for out-of-shard scenarios; a sharded Resume
	// must discard them, not fold foreign scenarios into this slice.
	full := filepath.Join(t.TempDir(), "full.jsonl")
	runShard(t, full, "", scenarios, Shard{}) // unsharded checkpoint
	restored, n, err := LoadCheckpoint(full, "", scenarios)
	if err != nil || n != len(scenarios) {
		t.Fatalf("full restore: n=%d err=%v", n, err)
	}
	resumed = (&Runner{Workers: 2, Shard: shard}).Resume(context.Background(), scenarios, restored)
	kept := 0
	for i, r := range resumed {
		if shard.Contains(scenarios[i]) {
			if r.Err != nil {
				t.Fatalf("in-shard %q lost its restored result: %v", r.Name, r.Err)
			}
			kept++
			continue
		}
		if !errors.Is(r.Err, ErrOtherShard) {
			t.Fatalf("foreign restored %q leaked into shard output (err = %v)", r.Name, r.Err)
		}
	}
	if kept != mine {
		t.Fatalf("sharded resume kept %d results, shard owns %d", kept, mine)
	}
}
