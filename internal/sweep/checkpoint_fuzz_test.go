package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzScenarios is the fixed small grid every fuzz input is loaded
// against: 2 points × 2 replicas with real derived seeds, so corpus
// entries can carry both valid and deliberately-mismatched records.
func fuzzScenarios() []Scenario {
	return NewGrid().Axis("k", "a", "b").Expand(1, 2,
		func(pt Point, replica int, seed int64) RunFunc {
			return func(ctx context.Context) (Metrics, error) { return NewMetrics(), nil }
		})
}

const fuzzLabel = "fuzz config"

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint JSONL parser
// — torn lines, truncated JSON, foreign-grid headers, duplicate and
// seed-mismatched records — and checks the documented repair semantics:
// never panic, never return a malformed result set, and on success align
// exactly one result per scenario with ErrNotRun marking everything not
// restored. The streaming merge scanner is fuzzed against the same bytes,
// since it promises LoadCheckpoint's accept/reject rules record for
// record.
func FuzzLoadCheckpoint(f *testing.F) {
	scenarios := fuzzScenarios()
	record := func(i int, seed int64) string {
		return fmt.Sprintf(`{"name":%q,"point":[{"key":"k","value":%q}],"replica":%d,"seed":%d,"values":{"x":1.5},"samples":{"s":[1,2,3]}}`,
			scenarios[i].Name, scenarios[i].Point.Get("k"), scenarios[i].Replica, seed)
	}
	header := fmt.Sprintf(`{"sweep":%q}`, fuzzLabel)

	// A well-formed file: header plus two records.
	f.Add([]byte(header + "\n" + record(0, scenarios[0].Seed) + "\n" + record(2, scenarios[2].Seed) + "\n"))
	// A torn final line from a SIGKILLed writer.
	f.Add([]byte(header + "\n" + record(1, scenarios[1].Seed) + "\n" + record(2, scenarios[2].Seed)[:20]))
	// Truncated JSON mid-file and a blank line.
	f.Add([]byte(header + "\n{\"name\":\"k=a #0\",\"se\n\n" + record(3, scenarios[3].Seed) + "\n"))
	// A foreign-grid record and a foreign header label.
	f.Add([]byte(header + "\n" + `{"name":"k=z #9","seed":123}` + "\n"))
	f.Add([]byte(`{"sweep":"other config"}` + "\n" + record(0, scenarios[0].Seed) + "\n"))
	// Duplicate records (first wins) and a seed mismatch.
	f.Add([]byte(header + "\n" + record(0, scenarios[0].Seed) + "\n" + record(0, scenarios[0].Seed) + "\n"))
	f.Add([]byte(header + "\n" + record(0, scenarios[0].Seed+1) + "\n"))
	// Degenerate shapes: empty file, bare newlines, non-JSON noise.
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("not json at all\x00\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		results, n, err := LoadCheckpoint(path, fuzzLabel, scenarios)
		if err == nil {
			if len(results) != len(scenarios) {
				t.Fatalf("LoadCheckpoint returned %d results for %d scenarios", len(results), len(scenarios))
			}
			restored := 0
			for i, res := range results {
				if res.Name != scenarios[i].Name || res.Seed != scenarios[i].Seed {
					t.Fatalf("result %d identity %q/%d does not match scenario %q/%d",
						i, res.Name, res.Seed, scenarios[i].Name, scenarios[i].Seed)
				}
				if res.Err == nil {
					restored++
				} else if !errors.Is(res.Err, ErrNotRun) {
					t.Fatalf("result %d: unexpected error %v (want ErrNotRun)", i, res.Err)
				}
			}
			if restored != n {
				t.Fatalf("LoadCheckpoint reported %d restored, results hold %d", n, restored)
			}
		}

		// The streaming merge path must survive (and classify) the same
		// bytes. It may reject the file — an incomplete shard set is the
		// normal outcome here — but must never panic and, when it
		// succeeds, must have folded every scenario.
		acc := NewAccumulator(AccumulatorConfig{}, scenarios)
		if merr := MergeCheckpointsInto(acc, fuzzLabel, scenarios, path); merr == nil {
			if _, aerr := acc.Aggregates(); aerr != nil {
				t.Fatalf("merge succeeded but aggregates incomplete: %v", aerr)
			}
		}
	})
}

// TestLoadCheckpointDuplicateFirstWins pins the documented duplicate rule:
// when a resume re-records a scenario, the first record is the one
// restored — for the aligned loader and the streaming merge alike.
func TestLoadCheckpointDuplicateFirstWins(t *testing.T) {
	scenarios := fuzzScenarios()
	path := filepath.Join(t.TempDir(), "dup.jsonl")
	first := fmt.Sprintf(`{"name":%q,"seed":%d,"values":{"x":1}}`, scenarios[0].Name, scenarios[0].Seed)
	second := fmt.Sprintf(`{"name":%q,"seed":%d,"values":{"x":2}}`, scenarios[0].Name, scenarios[0].Seed)
	if err := os.WriteFile(path, []byte(first+"\n"+second+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, n, err := LoadCheckpoint(path, "", scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || results[0].Err != nil {
		t.Fatalf("restored %d, result err %v", n, results[0].Err)
	}
	if got := results[0].Metrics.Values["x"]; got != 1 {
		t.Errorf("duplicate record: restored x = %g, want first-written 1", got)
	}

	// The other scenarios are absent, so a merge must name them; a merge
	// over a complete duplicate-bearing set folds the first record too.
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	err = MergeCheckpointsInto(acc, "", scenarios, path)
	var inc *IncompleteError
	if !errors.As(err, &inc) || len(inc.Missing) != len(scenarios)-1 {
		t.Fatalf("merge err = %v, want IncompleteError naming %d scenarios", err, len(scenarios)-1)
	}
}
