package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resumeRender resumes scenarios from the checkpoint at path through
// Runner.ResumeCheckpointAccumulate and returns the rendered aggregates
// with the restored-scenario count.
func resumeRender(t *testing.T, r *Runner, path, label string, scenarios []Scenario) ([]byte, int) {
	t.Helper()
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	restored, failed, err := r.ResumeCheckpointAccumulate(context.Background(), path, label, scenarios, acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("resume left failures: %v", failed)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	return renderAggs(t, aggs), restored
}

// TestCheckpointKillRestart simulates the killed-process path: a first
// "process" streams results to a checkpoint and dies mid-sweep (its
// in-memory results are discarded — only the file survives, as after
// SIGKILL); a second process re-expands the same grid and resumes from
// the file. The aggregate bytes must match an uninterrupted run at every
// worker count.
func TestCheckpointKillRestart(t *testing.T) {
	golden := renderAggs(t, Aggregated((&Runner{Workers: 4}).Run(context.Background(), syntheticScenarios(7, 3))))

	for _, workers := range []int{1, 3, 8} {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")

		// Process 1: record to the checkpoint, get killed mid-sweep.
		scenarios := syntheticScenarios(7, 3)
		cp, err := NewCheckpoint(path, "")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := &Runner{Workers: workers, Progress: cp.Progress(func(done, total int, res Result) {
			if done == len(scenarios)/2 {
				cancel() // the "kill": everything in memory is lost below
			}
		})}
		r.Run(ctx, scenarios)
		cancel()
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}

		// Process 2: fresh grid expansion, resume from disk only.
		scenarios = syntheticScenarios(7, 3)
		cp2, err := NewCheckpoint(path, "")
		if err != nil {
			t.Fatal(err)
		}
		out, n := resumeRender(t, &Runner{Workers: workers, Progress: cp2.Progress(nil)}, path, "", scenarios)
		if err := cp2.Close(); err != nil {
			t.Fatal(err)
		}
		if n == 0 || n == len(scenarios) {
			t.Fatalf("restored %d of %d scenarios; kill landed outside the sweep", n, len(scenarios))
		}
		if !bytes.Equal(out, golden) {
			t.Errorf("workers=%d: kill/restart output differs from uninterrupted run:\n%s\n--- vs ---\n%s",
				workers, out, golden)
		}

		// Process 3: the sweep is complete; loading again restores
		// everything and a resume runs nothing.
		full, n, err := LoadCheckpoint(path, "", scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(scenarios) || len(Errored(full)) != 0 {
			t.Fatalf("complete checkpoint loaded %d of %d", n, len(scenarios))
		}
		if out := renderAggs(t, Aggregated(full)); !bytes.Equal(out, golden) {
			t.Errorf("workers=%d: checkpoint-only output differs from live run", workers)
		}
		if out, n := resumeRender(t, &Runner{Workers: workers}, path, "", scenarios); n != len(scenarios) || !bytes.Equal(out, golden) {
			t.Errorf("workers=%d: complete-checkpoint resume restored %d of %d or changed the output", workers, n, len(scenarios))
		}
	}
}

// TestCheckpointTornLine verifies SIGKILL-mid-write tolerance: a torn
// final line (and the valid lines a resumed process appends after it) must
// not corrupt the load.
func TestCheckpointTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	scenarios := syntheticScenarios(7, 2)

	cp, err := NewCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	results := (&Runner{Workers: 2, Progress: cp.Progress(nil)}).Run(context.Background(), scenarios)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	golden := renderAggs(t, Aggregated(results))

	// Tear the last record in half — the shape SIGKILL leaves mid-write.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	torn := append(bytes.Join(lines[:len(lines)-1], nil), last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, n, err := LoadCheckpoint(path, "", scenarios); err != nil || n != len(scenarios)-1 {
		t.Fatalf("loaded %d (err %v), want %d (one torn record)", n, err, len(scenarios)-1)
	}
	out, n := resumeRender(t, &Runner{Workers: 2}, path, "", scenarios)
	if n != len(scenarios)-1 {
		t.Fatalf("resume restored %d, want %d (one torn record)", n, len(scenarios)-1)
	}
	if !bytes.Equal(out, golden) {
		t.Error("torn-line resume output differs from original run")
	}

	// A resumed process appends after the torn line; NewCheckpoint must
	// terminate the torn tail so the re-recorded result does not glue onto
	// it, and a later load must recover every record.
	cp2, err := NewCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	out, _ = resumeRender(t, &Runner{Workers: 2, Progress: cp2.Progress(nil)}, path, "", scenarios)
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, golden) {
		t.Error("recorded torn-line resume output differs from original run")
	}
	if _, n, err = LoadCheckpoint(path, "", scenarios); err != nil || n != len(scenarios) {
		t.Fatalf("post-resume load: n=%d err=%v, want %d, nil", n, err, len(scenarios))
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	scenarios := syntheticScenarios(7, 1)
	loaded, n, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.jsonl"), "", scenarios)
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
	for i, r := range loaded {
		if !errors.Is(r.Err, ErrNotRun) {
			t.Fatalf("result %d: err = %v, want ErrNotRun", i, r.Err)
		}
		if r.Name != scenarios[i].Name || r.Seed != scenarios[i].Seed {
			t.Fatalf("result %d identity mismatch", i)
		}
	}
}

func TestLoadCheckpointRejectsForeignSweeps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cp, err := NewCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 2, Progress: cp.Progress(nil)}).
		Run(context.Background(), syntheticScenarios(7, 2))
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Same grid, different master seed: every derived seed disagrees.
	_, _, err = LoadCheckpoint(path, "", syntheticScenarios(8, 2))
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("different master seed: err = %v, want seed mismatch", err)
	}

	// Different grid: the file records scenarios the grid cannot name.
	other := NewGrid().Axis("x", "1").Expand(7, 1, func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) { return NewMetrics(), nil }
	})
	_, _, err = LoadCheckpoint(path, "", other)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("different grid: err = %v, want unknown scenario", err)
	}
}

// TestCheckpointConfigLabel: the header label binds a checkpoint to the
// non-axis configuration that produced it, so scenarios from physically
// different sweeps (same grid, different link rates or buffers) cannot
// mix.
func TestCheckpointConfigLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	scenarios := syntheticScenarios(7, 2)
	cp, err := NewCheckpoint(path, "buffer=25MB")
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 2, Progress: cp.Progress(nil)}).Run(context.Background(), scenarios)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Matching label: loads and reopens cleanly.
	if _, n, err := LoadCheckpoint(path, "buffer=25MB", scenarios); err != nil || n != len(scenarios) {
		t.Fatalf("matching label: n=%d err=%v", n, err)
	}
	if cp, err = NewCheckpoint(path, "buffer=25MB"); err != nil {
		t.Fatalf("reopen with matching label: %v", err)
	}
	cp.Close()

	// A changed non-axis parameter must be rejected by load and reopen.
	if _, _, err := LoadCheckpoint(path, "buffer=2MB", scenarios); err == nil ||
		!strings.Contains(err.Error(), "buffer=25MB") {
		t.Errorf("changed config: err = %v, want label mismatch", err)
	}
	if _, err := NewCheckpoint(path, "buffer=2MB"); err == nil {
		t.Error("reopen under a changed config should fail")
	}
	// As must expecting no label from a labelled file, and vice versa.
	if _, _, err := LoadCheckpoint(path, "", scenarios); err == nil {
		t.Error("labelled file loaded without a label")
	}
	unlabelled := filepath.Join(t.TempDir(), "plain.jsonl")
	cp2, err := NewCheckpoint(unlabelled, "")
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 2, Progress: cp2.Progress(nil)}).Run(context.Background(), scenarios)
	cp2.Close()
	if _, _, err := LoadCheckpoint(unlabelled, "buffer=25MB", scenarios); err == nil {
		t.Error("unlabelled file loaded with a label expectation")
	}
}

// TestCheckpointSkipsErroredResults: failed scenarios are not persisted,
// so a restart re-runs them.
func TestCheckpointSkipsErroredResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cp, err := NewCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Record(Result{Name: "failed", Err: errors.New("boom")}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 0 {
		t.Errorf("errored result was persisted: %q", blob)
	}
}
