package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// seed-mismatched records — and checks the documented repair semantics of
// the resume: never panic, and on success account for every scenario
// exactly once, either restored from the file or executed, with the
// restored count saying which. The streaming merge is fuzzed against the
// same bytes, since it promises the resume's accept/reject rules record
// for record: a file the resume rejects the merge rejects too, and a file
// the merge accepts whole resumes without running anything.
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
		n, ran, acc, failed, err := resumeRun(Runner{Workers: 1}, path, fuzzLabel, scenarios)
		if err == nil {
			if len(failed) != 0 {
				t.Fatalf("resume failed %d scenarios: %v", len(failed), failed[0].Err)
			}
			if n < 0 || n+len(ran) != len(scenarios) {
				t.Fatalf("resume restored %d and ran %d of %d scenarios", n, len(ran), len(scenarios))
			}
			aggs, aerr := acc.Aggregates()
			if aerr != nil {
				t.Fatalf("resume succeeded but aggregates incomplete: %v", aerr)
			}
			replicas := 0
			for _, a := range aggs {
				replicas += a.Replicas
			}
			if replicas != len(scenarios) {
				t.Fatalf("resume folded %d replicas for %d scenarios", replicas, len(scenarios))
			}
		}

		// The streaming merge path must survive (and classify) the same
		// bytes. It may reject the file — an incomplete shard set is the
		// normal outcome here — but must never panic and, when it
		// succeeds, must have folded every scenario the resume restored.
		macc := NewAccumulator(AccumulatorConfig{}, scenarios)
		merr := MergeCheckpointsInto(macc, fuzzLabel, scenarios, path)
		if err != nil && merr == nil {
			t.Fatalf("merge accepted a file the resume rejects: %v", err)
		}
		if merr == nil {
			if _, aerr := macc.Aggregates(); aerr != nil {
				t.Fatalf("merge succeeded but aggregates incomplete: %v", aerr)
			}
			if n != len(scenarios) || len(ran) != 0 {
				t.Fatalf("merge accepted the whole file, resume restored %d and ran %d", n, len(ran))
			}
		}
	})
}

// TestLoadCheckpointDuplicateFirstWins pins the documented duplicate rule:
// when a resume re-records a scenario, the first record is the one
// restored — for the resume and the streaming merge alike.
func TestLoadCheckpointDuplicateFirstWins(t *testing.T) {
	scenarios := fuzzScenarios()
	path := filepath.Join(t.TempDir(), "dup.jsonl")
	first := fmt.Sprintf(`{"name":%q,"seed":%d,"values":{"x":1}}`, scenarios[0].Name, scenarios[0].Seed)
	second := fmt.Sprintf(`{"name":%q,"seed":%d,"values":{"x":2}}`, scenarios[0].Name, scenarios[0].Seed)
	if err := os.WriteFile(path, []byte(first+"\n"+second+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, ran, acc, _, err := resumeRun(Runner{Workers: 1}, path, "", scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(ran) != len(scenarios)-1 || slices.Contains(ran, scenarios[0].Name) {
		t.Fatalf("restored %d and ran %v, want scenario 0 restored and the rest run", n, ran)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	// The re-run scenarios report no x, so x holds only the restored one.
	if got := aggs[0].Series["x"]; !slices.Equal(got, []float64{1}) {
		t.Errorf("duplicate record: restored x = %v, want first-written [1]", got)
	}

	// The other scenarios are absent, so a merge must name them.
	acc = NewAccumulator(AccumulatorConfig{}, scenarios)
	err = MergeCheckpointsInto(acc, "", scenarios, path)
	var inc *IncompleteError
	if !errors.As(err, &inc) || len(inc.Missing) != len(scenarios)-1 {
		t.Fatalf("merge err = %v, want IncompleteError naming %d scenarios", err, len(scenarios)-1)
	}
}
