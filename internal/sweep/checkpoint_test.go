package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// resumeRun resumes scenarios from the checkpoint at path through
// Runner.ResumeCheckpointAccumulate into a fresh accumulator. It returns
// the restored-scenario count, the names of the scenarios the runner
// executed instead (in completion order), the accumulator, the failed
// results and the resume's error.
func resumeRun(r Runner, path, label string, scenarios []Scenario) (restored int, ran []string, acc *Accumulator, failed []Result, err error) {
	next := r.Progress
	r.Progress = func(done, total int, res Result) {
		ran = append(ran, res.Name) // the runner serialises Progress calls
		if next != nil {
			next(done, total, res)
		}
	}
	acc = NewAccumulator(AccumulatorConfig{}, scenarios)
	restored, failed, err = r.ResumeCheckpointAccumulate(context.Background(), path, label, scenarios, acc, nil)
	return restored, ran, acc, failed, err
}

// resumeRender resumes like resumeRun and returns the rendered aggregates
// with the restored-scenario count, failing on any error or failure.
func resumeRender(t *testing.T, r *Runner, path, label string, scenarios []Scenario) ([]byte, int) {
	t.Helper()
	restored, _, acc, failed, err := resumeRun(*r, path, label, scenarios)
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

// resumeComplete resumes from a checkpoint that should cover every
// scenario: it must restore them all, execute none and render the same
// bytes as golden.
func resumeComplete(t *testing.T, path, label string, scenarios []Scenario, golden []byte) {
	t.Helper()
	out, n := resumeRender(t, &Runner{Workers: 2, Progress: func(_, _ int, res Result) {
		t.Errorf("complete checkpoint re-ran %s", res.Name)
	}}, path, label, scenarios)
	if n != len(scenarios) {
		t.Errorf("complete checkpoint restored %d of %d", n, len(scenarios))
	}
	if golden != nil && !bytes.Equal(out, golden) {
		t.Errorf("checkpoint-only output differs from the live run:\n%s\n--- vs ---\n%s", out, golden)
	}
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

		// Process 3: the sweep is complete; a resume restores everything
		// and runs nothing.
		resumeComplete(t, path, "", scenarios, golden)
	}
}

// TestCheckpointTornLine verifies SIGKILL-mid-write tolerance: a torn
// final line (and the valid lines a resumed process appends after it) must
// not corrupt the resume: the torn record re-runs, every other restores.
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

	out, n := resumeRender(t, &Runner{Workers: 2}, path, "", scenarios)
	if n != len(scenarios)-1 {
		t.Fatalf("resume restored %d, want %d (one torn record)", n, len(scenarios)-1)
	}
	if !bytes.Equal(out, golden) {
		t.Error("torn-line resume output differs from original run")
	}

	// A resumed process appends after the torn line; NewCheckpoint must
	// terminate the torn tail so the re-recorded result does not glue onto
	// it, and a later resume must restore every record.
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
	resumeComplete(t, path, "", scenarios, golden)
}

// TestLoadCheckpointMissingFile: resuming from a checkpoint that does not
// exist yet restores nothing and runs every scenario exactly once, so an
// "always resume" command works on its first run; the resume itself does
// not create the file.
func TestLoadCheckpointMissingFile(t *testing.T) {
	scenarios := syntheticScenarios(7, 1)
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	n, ran, acc, failed, err := resumeRun(Runner{Workers: 2}, path, "", scenarios)
	if err != nil || n != 0 || len(failed) != 0 {
		t.Fatalf("missing file: restored=%d failed=%d err=%v, want 0, 0, nil", n, len(failed), err)
	}
	slices.Sort(ran)
	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		want[i] = sc.Name
	}
	slices.Sort(want)
	if !slices.Equal(ran, want) {
		t.Fatalf("missing file ran %v, want every scenario once: %v", ran, want)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	golden := renderAggs(t, Aggregated((&Runner{Workers: 2}).Run(context.Background(), scenarios)))
	if out := renderAggs(t, aggs); !bytes.Equal(out, golden) {
		t.Error("missing-file resume output differs from a plain run")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("resume created the checkpoint file: stat err = %v", err)
	}
}

// TestLoadCheckpointRejectsForeignSweeps: a resume fails loudly, before
// running anything, on a checkpoint recorded under another master seed
// or another grid.
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
	_, ran, _, _, err := resumeRun(Runner{Workers: 2}, path, "", syntheticScenarios(8, 2))
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("different master seed: err = %v, want seed mismatch", err)
	}
	if len(ran) != 0 {
		t.Errorf("different master seed: ran %d scenarios before failing", len(ran))
	}

	// Different grid: the file records scenarios the grid cannot name.
	other := NewGrid().Axis("x", "1").Expand(7, 1, func(pt Point, replica int, seed int64) RunFunc {
		return func(ctx context.Context) (Metrics, error) { return NewMetrics(), nil }
	})
	_, ran, _, _, err = resumeRun(Runner{Workers: 2}, path, "", other)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("different grid: err = %v, want unknown scenario", err)
	}
	if len(ran) != 0 {
		t.Errorf("different grid: ran %d scenarios before failing", len(ran))
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

	// Matching label: resumes and reopens cleanly.
	resumeComplete(t, path, "buffer=25MB", scenarios, nil)
	if cp, err = NewCheckpoint(path, "buffer=25MB"); err != nil {
		t.Fatalf("reopen with matching label: %v", err)
	}
	cp.Close()

	// A changed non-axis parameter must be rejected by resume and reopen.
	resume := func(path, label string) error {
		_, _, _, _, err := resumeRun(Runner{Workers: 2}, path, label, scenarios)
		return err
	}
	if err := resume(path, "buffer=2MB"); err == nil || !strings.Contains(err.Error(), "buffer=25MB") {
		t.Errorf("changed config: err = %v, want label mismatch", err)
	}
	if _, err := NewCheckpoint(path, "buffer=2MB"); err == nil {
		t.Error("reopen under a changed config should fail")
	}
	// As must expecting no label from a labelled file, and vice versa.
	if err := resume(path, ""); err == nil {
		t.Error("labelled file resumed without a label")
	}
	unlabelled := filepath.Join(t.TempDir(), "plain.jsonl")
	cp2, err := NewCheckpoint(unlabelled, "")
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 2, Progress: cp2.Progress(nil)}).Run(context.Background(), scenarios)
	cp2.Close()
	if err := resume(unlabelled, "buffer=25MB"); err == nil {
		t.Error("unlabelled file resumed with a label expectation")
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
	if err := cp.record(Result{Name: "failed", Err: errors.New("boom")}); err != nil {
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
