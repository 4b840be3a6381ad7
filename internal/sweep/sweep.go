package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// Param is one named parameter value of a scenario point. The JSON shape
// is part of the checkpoint file format.
type Param struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Point is an ordered list of parameters identifying one cell of a sweep
// grid. Order is the grid's axis order and is part of the point's identity.
type Point []Param

// Get returns the value for key, or "" when the point has no such axis.
func (p Point) Get(key string) string {
	for _, kv := range p {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// Key renders the canonical "k=v k=v" identity used for grouping and seed
// derivation.
func (p Point) Key() string {
	parts := make([]string, len(p))
	for i, kv := range p {
		parts[i] = kv.Key + "=" + kv.Value
	}
	return strings.Join(parts, " ")
}

// String returns the canonical key.
func (p Point) String() string { return p.Key() }

// Subset returns the point restricted to the given axes, in the given
// order. Use it to derive paired seeds across a comparison axis: deriving a
// workload seed from Subset("isp") gives every policy the same workload at
// the same replica.
func (p Point) Subset(keys ...string) Point {
	out := make(Point, 0, len(keys))
	for _, k := range keys {
		for _, kv := range p {
			if kv.Key == k {
				out = append(out, kv)
			}
		}
	}
	return out
}

// Metrics is one scenario's measured outcome: named scalar values plus
// optional named sample sets (e.g. per-flow stretch) that aggregation pools
// across replicas.
type Metrics struct {
	Values  map[string]float64
	Samples map[string][]float64
}

// NewMetrics returns an empty Metrics ready for Set/AddSamples.
func NewMetrics() Metrics {
	return Metrics{Values: map[string]float64{}, Samples: map[string][]float64{}}
}

// Set records a scalar metric. The zero value of Metrics is usable: maps
// are initialised on first write.
func (m *Metrics) Set(name string, v float64) {
	if m.Values == nil {
		m.Values = map[string]float64{}
	}
	m.Values[name] = v
}

// AddSamples appends to a named sample set, initialising the zero value on
// first write.
func (m *Metrics) AddSamples(name string, xs ...float64) {
	if m.Samples == nil {
		m.Samples = map[string][]float64{}
	}
	m.Samples[name] = append(m.Samples[name], xs...)
}

// RunFunc executes one scenario and returns its metrics. Implementations
// must be deterministic given the scenario's seed and must honour ctx for
// early exit (checking it between coarse steps is enough — the runner also
// checks before starting each scenario).
type RunFunc func(ctx context.Context) (Metrics, error)

// Scenario is one unit of sweep work: a parameter point, a replica index,
// the seed derived for it, and the function that runs it.
type Scenario struct {
	// Name identifies the scenario in progress output and results
	// (canonical "point key #replica" when built by Grid.Expand).
	Name string
	// Point is the parameter cell this scenario samples.
	Point Point
	// Replica distinguishes repeated runs of the same point.
	Replica int
	// Seed is the deterministic per-scenario seed (see DeriveSeed).
	Seed int64
	// Run executes the scenario.
	Run RunFunc
}

// Result is one scenario's outcome. Exactly one of Metrics/Err is
// meaningful: a non-nil Err marks the scenario failed (or cancelled) and
// excludes it from aggregation.
type Result struct {
	Name    string
	Point   Point
	Replica int
	Seed    int64
	Metrics Metrics
	Err     error
	// Elapsed is wall-clock run time; informational only and deliberately
	// excluded from aggregation so output stays deterministic.
	Elapsed time.Duration
}

// DeriveSeed hashes (master, key, replica) into an independent positive
// seed. Scenarios must never share an RNG stream: two distinct
// (key, replica) pairs get uncorrelated seeds, and the same pair always
// gets the same seed regardless of scheduling.
func DeriveSeed(master int64, key string, replica int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(master))
	h.Write(buf[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(buf[:], uint64(replica))
	h.Write(buf[:])
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// ScenarioName renders the canonical scenario name for a point + replica.
func ScenarioName(pt Point, replica int) string {
	return fmt.Sprintf("%s #%d", pt.Key(), replica)
}
