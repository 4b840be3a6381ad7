package experiments

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// runExperiment executes one experiment grid the way cmd/sweep runs its
// grids: an optional checkpoint file both restores previously completed
// scenarios and streams new completions to disk. Results fold into a
// streaming exact-mode Accumulator as workers finish (the experiments keep
// raw stretch samples for their CDF reports, so the sketch representation
// stays a cmd/sweep concern), and the per-point aggregates come back with
// any failed results for the caller to report. It is the shared engine
// behind every multi-scenario experiment, so each carries the same
// guarantees as a CLI sweep: byte-identical aggregate output at any worker
// count and across kill/resume.
func runExperiment(workers int, reg *obs.Registry, checkpoint, label string, scenarios []sweep.Scenario) ([]sweep.Aggregate, []sweep.Result, error) {
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{Mode: sweep.AggExact}, scenarios)
	runner := &sweep.Runner{Workers: workers, Obs: reg}
	var (
		failed []sweep.Result
		err    error
	)
	if checkpoint == "" {
		failed, err = runner.Accumulate(context.Background(), scenarios, acc)
	} else {
		cp, cerr := sweep.NewCheckpoint(checkpoint, label)
		if cerr != nil {
			return nil, nil, cerr
		}
		runner.Progress = cp.Progress(nil)
		_, failed, err = runner.ResumeCheckpointAccumulate(context.Background(), checkpoint, label, scenarios, acc, nil)
		if cerr := cp.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("experiments: checkpoint: %w", cerr)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		return nil, nil, err
	}
	return aggs, failed, nil
}
