package sweep

import (
	"fmt"
	"sync"
)

// AccumulatorConfig parameterises NewAccumulator. It has no fields: exact
// streaming aggregation is the only fold. The type stays so the
// NewAccumulator signature, and the perfbench harness that builds
// AccumulatorConfig{}, keep compiling unchanged.
type AccumulatorConfig struct{}

// Accumulator folds Results into per-point Aggregates as they arrive,
// instead of materialising the full []Result first. Results may be observed
// in any order — workers finish when they finish — but folding happens in
// scenario order behind a reassembly cursor, so the aggregates and their
// rendered bytes are identical to Aggregated over the same results no
// matter the arrival schedule. Results that arrive ahead of the cursor
// wait in a pending set of shallow Result copies (metric maps stay shared
// with the caller's values, not duplicated); in a live run its size tracks
// the completion skew of the moment (≈ in-flight scenarios). The
// checkpoint resume (Runner.ResumeCheckpointAccumulate) leaves restored
// records on disk and feeds each one exactly when the cursor reaches it.
//
// Observe is safe for concurrent use; the Runner's Accumulate/
// ResumeCheckpointAccumulate drive it from the worker pool, and
// MergeCheckpointsInto drives it from shard checkpoint files in scenario
// order.
type Accumulator struct {
	mu      sync.Mutex
	byName  map[string]int
	seen    []bool
	pending map[int]*Result
	next    int // fold cursor: the next scenario index to fold

	folded pointFold
}

// NewAccumulator returns an accumulator for exactly the given scenario
// list. Every scenario must be observed exactly once — run, restored,
// failed or skipped — before Aggregates will answer.
func NewAccumulator(_ AccumulatorConfig, scenarios []Scenario) *Accumulator {
	a := &Accumulator{
		byName:  make(map[string]int, len(scenarios)),
		seen:    make([]bool, len(scenarios)),
		pending: make(map[int]*Result),
	}
	for i, sc := range scenarios {
		a.byName[sc.Name] = i
	}
	return a
}

// Pending returns the number of observed results waiting behind the fold
// cursor — instrumentation for tests and progress displays.
func (a *Accumulator) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Next returns the fold cursor: the scenario index whose result the
// accumulator will fold next. Streaming suppliers (the checkpoint resume)
// use it to hand over exactly the result the cursor is waiting for, so
// nothing parks.
func (a *Accumulator) Next() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Observe folds one scenario's result. Results naming a scenario outside
// the accumulator's list, or a scenario already observed, are rejected —
// that is a wiring bug, not data. Safe for concurrent use.
func (a *Accumulator) Observe(r Result) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.byName[r.Name]
	if !ok {
		return fmt.Errorf("sweep: accumulator: unknown scenario %q", r.Name)
	}
	if a.seen[i] {
		return fmt.Errorf("sweep: accumulator: scenario %q observed twice", r.Name)
	}
	a.seen[i] = true
	if i == a.next {
		a.folded.add(&r)
		a.next++
		for {
			p, ok := a.pending[a.next]
			if !ok {
				break
			}
			delete(a.pending, a.next)
			a.folded.add(p)
			a.next++
		}
		return nil
	}
	held := r
	a.pending[i] = &held
	return nil
}

// Aggregates returns the folded aggregates, in first-appearance (scenario)
// order — the same order and the same contents as Aggregated over the full
// result slice. It fails if any scenario has not been observed yet: a
// partial read would silently drop grid points.
func (a *Accumulator) Aggregates() ([]Aggregate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next != len(a.seen) {
		return nil, fmt.Errorf("sweep: accumulator: %d of %d scenarios not yet observed",
			len(a.seen)-a.next-len(a.pending), len(a.seen))
	}
	return a.folded.aggs, nil
}
