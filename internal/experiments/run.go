package experiments

import (
	"context"

	"repro/internal/sweep"
)

// runExperiment executes one experiment grid the way cmd/sweep runs its
// grids: results fold into a streaming Accumulator as workers finish,
// which keeps the raw stretch samples the CDF reports need, and the
// per-point aggregates come back with any failed results for the caller
// to report. It is the shared engine behind every multi-scenario
// experiment, so each carries the same guarantee as a CLI sweep:
// byte-identical aggregate output at any worker count.
func runExperiment(scenarios []sweep.Scenario) ([]sweep.Aggregate, []sweep.Result, error) {
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	failed, err := (&sweep.Runner{}).Accumulate(context.Background(), scenarios, acc)
	if err != nil {
		return nil, nil, err
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		return nil, nil, err
	}
	return aggs, failed, nil
}
