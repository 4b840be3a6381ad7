package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// benchScenarios builds the 32-scenario flowsim sweep used to track the
// worker-pool speedup: 2 policies × 4 load levels × 4 seed replicas on the
// VSNL topology. The per-op metric to compare across sub-benchmarks is
// ns/op; on a multi-core host workers=N must land ≥2× below workers=1.
func benchScenarios() []Scenario {
	grid := NewGrid().
		Axis("policy", "sp", "inrp").
		Axis("flows", "60", "120", "180", "240").
		SeedAxes("flows")
	return grid.Expand(1, 4, func(pt Point, replica int, seed int64) RunFunc {
		spec := FlowSpec{
			ISP:       topo.VSNL,
			Capacity:  100 * units.Mbps,
			MeanSize:  40 * units.MB,
			DemandCap: 50 * units.Mbps,
			Horizon:   6 * time.Second,
		}
		fmt.Sscanf(pt.Get("flows"), "%d", &spec.Flows)
		spec.Policy = MustParsePolicy(pt.Get("policy"))
		return spec.Run(seed)
	})
}

// benchAggInput synthesises a grid's worth of completed results without
// running any simulator: points × replicas scenarios, each carrying
// samplesPer pooled samples — the aggregation-layer workload isolated from
// scenario execution.
func benchAggInput(points, replicas, samplesPer int) ([]Scenario, []Result) {
	vals := make([]string, points)
	for i := range vals {
		vals[i] = fmt.Sprintf("p%03d", i)
	}
	scenarios := NewGrid().Axis("p", vals...).Expand(1, replicas,
		func(pt Point, replica int, seed int64) RunFunc { return nil })
	results := make([]Result, len(scenarios))
	for i, sc := range scenarios {
		r := rand.New(rand.NewSource(sc.Seed))
		m := NewMetrics()
		m.Set("x", r.Float64())
		m.Set("y", r.NormFloat64())
		xs := make([]float64, samplesPer)
		for j := range xs {
			xs[j] = 1 + r.ExpFloat64()
		}
		m.AddSamples("s", xs...)
		results[i] = Result{Name: sc.Name, Point: sc.Point, Replica: sc.Replica, Seed: sc.Seed, Metrics: m}
	}
	return scenarios, results
}

// BenchmarkAggregate is the batch baseline: pool every raw sample of a
// 10⁵-sample grid into []Aggregate. B/op scales with the sample count —
// the memory wall the streaming accumulator removes.
func BenchmarkAggregate(b *testing.B) {
	_, results := benchAggInput(10, 10, 1000) // 10·10·1000 = 10⁵ samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs := Aggregated(results)
		if len(aggs) != 10 {
			b.Fatalf("aggregates = %d", len(aggs))
		}
	}
}

// BenchmarkAccumulator folds the same 10⁵-sample grid through the
// streaming accumulator. It keeps every sample, as the batch path does,
// so compare its cost with BenchmarkAggregate: streaming adds the
// reordering cursor, not memory.
func BenchmarkAccumulator(b *testing.B) {
	scenarios, results := benchAggInput(10, 10, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc := NewAccumulator(AccumulatorConfig{}, scenarios)
		for _, r := range results {
			if err := acc.Observe(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := acc.Aggregates(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(results)), "results")
}

// BenchmarkSweepWorkers times the same 32-scenario sweep at 1 worker and at
// GOMAXPROCS workers. The aggregated output is asserted identical, so the
// speedup never comes at the cost of determinism.
func BenchmarkSweepWorkers(b *testing.B) {
	scenarios := benchScenarios()
	golden := ""
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var results []Result
			for i := 0; i < b.N; i++ {
				results = (&Runner{Workers: workers}).Run(context.Background(), scenarios)
			}
			out := Table("bench", Aggregated(results)).String()
			if golden == "" {
				golden = out
			} else if out != golden {
				b.Fatal("aggregated output changed with worker count")
			}
			b.ReportMetric(float64(len(scenarios)), "scenarios")
		})
	}
}
