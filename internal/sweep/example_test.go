package sweep_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/sweep"
)

// exampleScenarios expands the small deterministic grid the checkpoint
// and merge examples share: load × policy, workload seed paired across
// the policy axis.
func exampleScenarios() []sweep.Scenario {
	grid := sweep.NewGrid().
		Axis("load", "10", "20").
		Axis("policy", "sp", "inrp").
		SeedAxes("load")
	return grid.Expand(1, 2, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		return func(ctx context.Context) (sweep.Metrics, error) {
			load, _ := strconv.Atoi(pt.Get("load"))
			bonus := 0.0
			if pt.Get("policy") == "inrp" {
				bonus = 5
			}
			m := sweep.NewMetrics()
			m.Set("throughput", float64(load)+bonus+float64(replica))
			return m, nil
		}
	})
}

// ExampleGrid_Expand shows the documented sweep entry points end to end:
// expand a grid into deterministically seeded scenarios, run them on a
// worker pool, and render the aggregated replica metrics. The output is
// byte-identical at any worker count.
func ExampleGrid_Expand() {
	// Two axes; the seed is derived from the load axis alone, so both
	// policies are measured under the same (synthetic) workload.
	grid := sweep.NewGrid().
		Axis("load", "10", "20").
		Axis("policy", "sp", "inrp").
		SeedAxes("load")

	scenarios := grid.Expand(1, 2, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		return func(ctx context.Context) (sweep.Metrics, error) {
			// A real sweep would run a simulator here, seeded with seed;
			// this stand-in derives a deterministic "throughput".
			load, _ := strconv.Atoi(pt.Get("load"))
			bonus := 0.0
			if pt.Get("policy") == "inrp" {
				bonus = 5
			}
			m := sweep.NewMetrics()
			m.Set("throughput", float64(load)+bonus+float64(replica))
			return m, nil
		}
	})

	runner := &sweep.Runner{Workers: 4}
	results := runner.Run(context.Background(), scenarios)

	aggs := sweep.Aggregated(results)
	if err := sweep.Table("example sweep", aggs, "throughput").Render(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// example sweep
	// load  policy  replicas  throughput
	// -------------------------------------
	// 10    sp      2         10.500 ±0.707
	// 10    inrp    2         15.500 ±0.707
	// 20    sp      2         20.500 ±0.707
	// 20    inrp    2         25.500 ±0.707
}

// ExampleCheckpoint shows the durability lifecycle: a first process
// streams completed scenarios to a JSONL checkpoint; after a crash (or
// SIGKILL), a second process re-expands the same grid and
// ResumeCheckpointAccumulate folds the file's records, executing only what
// is missing — here, nothing. The rendered output is byte-identical to an
// uninterrupted run.
func ExampleCheckpoint() {
	dir, _ := os.MkdirTemp("", "sweep-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.jsonl")
	scenarios := exampleScenarios()

	// Process 1: run with a checkpoint; every completed scenario is
	// flushed to disk before the sweep moves on.
	cp, _ := sweep.NewCheckpoint(path, "demo config")
	runner := &sweep.Runner{Workers: 2, Progress: cp.Progress(nil)}
	runner.Run(context.Background(), scenarios)
	cp.Close()

	// Process 2 (after a kill): restore from disk, run only the rest.
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	n, _, err := (&sweep.Runner{Workers: 2}).ResumeCheckpointAccumulate(
		context.Background(), path, "demo config", scenarios, acc, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("restored %d/%d scenarios\n", n, len(scenarios))
	aggs, err := acc.Aggregates()
	if err != nil {
		fmt.Println(err)
		return
	}
	sweep.Table("resumed sweep", aggs, "throughput").Render(os.Stdout)
	// Output:
	// restored 8/8 scenarios
	// resumed sweep
	// load  policy  replicas  throughput
	// -------------------------------------
	// 10    sp      2         10.500 ±0.707
	// 10    inrp    2         15.500 ±0.707
	// 20    sp      2         20.500 ±0.707
	// 20    inrp    2         25.500 ±0.707
}

// ExampleMergeCheckpointsInto shows the distributed lifecycle: two
// "hosts" each run one Shard of the same grid against a standard
// checkpoint, and MergeCheckpointsInto streams the files through an
// accumulator — validating that they cover the grid exactly once — into
// output byte-identical to an unsharded run.
func ExampleMergeCheckpointsInto() {
	dir, _ := os.MkdirTemp("", "sweep-example")
	defer os.RemoveAll(dir)
	scenarios := exampleScenarios()

	// Each host runs its slice of the grid (host i: -shard i/2).
	var paths []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		cp, _ := sweep.NewCheckpoint(path, "demo config")
		r := &sweep.Runner{
			Workers:  2,
			Shard:    sweep.Shard{Index: i, Count: 2},
			Progress: cp.Progress(nil),
		}
		r.Run(context.Background(), scenarios)
		cp.Close()
		paths = append(paths, path)
	}

	// One host gathers the checkpoint files and merges.
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	if err := sweep.MergeCheckpointsInto(acc, "demo config", scenarios, paths...); err != nil {
		fmt.Println(err)
		return
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		fmt.Println(err)
		return
	}
	sweep.Table("merged sweep", aggs, "throughput").Render(os.Stdout)
	// Output:
	// merged sweep
	// load  policy  replicas  throughput
	// -------------------------------------
	// 10    sp      2         10.500 ±0.707
	// 10    inrp    2         15.500 ±0.707
	// 20    sp      2         20.500 ±0.707
	// 20    inrp    2         25.500 ±0.707
}
