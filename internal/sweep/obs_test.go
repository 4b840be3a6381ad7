package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunnerObsCounters verifies the runner-level metrics: scheduled and
// completed counts, failure counting, and busy-time attribution (global
// and per-worker sums must agree).
func TestRunnerObsCounters(t *testing.T) {
	scenarios := syntheticScenarios(7, 2)
	boom := errors.New("boom")
	scenarios[3].Run = func(ctx context.Context) (Metrics, error) {
		return Metrics{}, boom
	}
	reg := obs.New("runner-test")
	r := &Runner{Workers: 3, Obs: reg}
	results := r.Run(context.Background(), scenarios)
	if len(results) != len(scenarios) {
		t.Fatalf("got %d results, want %d", len(results), len(scenarios))
	}

	snap := reg.Snapshot()
	if got := snap.Counters["sweep_scenarios_scheduled"]; got != int64(len(scenarios)) {
		t.Errorf("scheduled = %d, want %d", got, len(scenarios))
	}
	if got := snap.Counters["sweep_scenarios_completed"]; got != int64(len(scenarios)) {
		t.Errorf("completed = %d, want %d", got, len(scenarios))
	}
	if got := snap.Counters["sweep_scenarios_failed"]; got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}

	var workerBusy int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sweep_worker_busy_ns{") {
			workerBusy += v
		}
	}
	if busy := snap.Counters["sweep_busy_ns"]; busy != workerBusy {
		t.Errorf("sweep_busy_ns = %d but per-worker sum = %d", busy, workerBusy)
	}
}

// TestCheckpointRecordObs checks the opt-in per-scenario observability
// summary: with RecordObs set every record carries an obs block, the file
// still resumes (the resume ignores it), and a default checkpoint of the
// same sweep contains no obs fields at all — old readers and old files
// are both unaffected.
func TestCheckpointRecordObs(t *testing.T) {
	scenarios := syntheticScenarios(7, 1)

	record := func(recordObs bool) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		cp, err := NewCheckpoint(path, "obs-test")
		if err != nil {
			t.Fatal(err)
		}
		cp.RecordObs = recordObs
		r := &Runner{Workers: 2, Progress: cp.Progress(nil)}
		r.Run(context.Background(), scenarios)
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	withObs := record(true)
	f, err := os.Open(withObs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	records := 0
	for sc.Scan() {
		var rec checkpointRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Name == "" {
			continue // header line
		}
		records++
		if rec.Obs == nil {
			t.Fatalf("record %q has no obs summary despite RecordObs", rec.Name)
		}
		if rec.Obs.ElapsedMS < 0 {
			t.Errorf("record %q has negative elapsed %v", rec.Name, rec.Obs.ElapsedMS)
		}
	}
	if records != len(scenarios) {
		t.Fatalf("checkpoint holds %d records, want %d", records, len(scenarios))
	}

	// The resume must restore a RecordObs file exactly like a plain one.
	resumeComplete(t, withObs, "obs-test", syntheticScenarios(7, 1), nil)

	// Default-config files must not mention obs at all.
	plain, err := os.ReadFile(record(false))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), `"obs"`) {
		t.Error("default checkpoint contains obs fields; RecordObs must be opt-in")
	}
}
