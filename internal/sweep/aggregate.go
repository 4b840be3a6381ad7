package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/report"
	"repro/internal/stats"
)

// Aggregate summarises all replicas of one grid point. Replica values and
// samples are accumulated in scenario order, so aggregation over the same
// result set is deterministic no matter how many workers produced it.
type Aggregate struct {
	// Point is the grid cell being summarised.
	Point Point
	// Replicas counts successful results folded in.
	Replicas int
	// Failed counts results excluded because they carried an error.
	Failed int
	// Series maps metric name → one value per successful replica, in
	// scenario order.
	Series map[string][]float64
	// Samples maps sample-set name → values pooled across replicas, in
	// scenario order.
	Samples map[string][]float64
}

// Aggregated groups results by point (in first-appearance order) and folds
// each successful result's metrics into its group. Errored results only
// increment Failed. Results the process never executed — another shard's
// scenarios (see Skipped) — are excluded entirely, so a sharded run
// aggregates exactly what it ran. It folds Runner.Run's batch results
// for examples/loadsweep, and it is the reference the accumulator tests
// hold the streaming Accumulator to.
func Aggregated(results []Result) []Aggregate {
	var f pointFold
	for i := range results {
		f.add(&results[i])
	}
	return f.aggs
}

// pointFold groups results by point in first-appearance order: the one
// fold behind both Aggregated and the Accumulator.
type pointFold struct {
	index map[string]int // point key → aggs index
	aggs  []Aggregate
}

// add folds one result into its point's aggregate: skipped results vanish,
// errors count as Failed, successes append their metrics.
func (f *pointFold) add(r *Result) {
	if Skipped(*r) {
		return
	}
	key := r.Point.Key()
	i, ok := f.index[key]
	if !ok {
		if f.index == nil {
			f.index = map[string]int{}
		}
		i = len(f.aggs)
		f.index[key] = i
		f.aggs = append(f.aggs, Aggregate{
			Point:   r.Point,
			Series:  map[string][]float64{},
			Samples: map[string][]float64{},
		})
	}
	a := &f.aggs[i]
	if r.Err != nil {
		a.Failed++
		return
	}
	a.Replicas++
	for name, v := range r.Metrics.Values {
		a.Series[name] = append(a.Series[name], v)
	}
	for name, xs := range r.Metrics.Samples {
		a.Samples[name] = append(a.Samples[name], xs...)
	}
}

// Summary returns the replica summary (mean/std/min/max) for a metric.
func (a *Aggregate) Summary(metric string) stats.Summary {
	var s stats.Summary
	for _, v := range a.Series[metric] {
		s.Add(v)
	}
	return s
}

// Mean returns the replica mean of a metric (zero when absent).
func (a *Aggregate) Mean(metric string) float64 { return a.Summary(metric).Mean() }

// Percentile returns the p-th percentile (p in [0,100]) over a pooled
// sample set, falling back to the per-replica series when no sample set of
// that name exists.
func (a *Aggregate) Percentile(name string, p float64) float64 {
	if xs, ok := a.Samples[name]; ok {
		return stats.Percentile(xs, p)
	}
	return stats.Percentile(a.Series[name], p)
}

// MetricNames returns the union of scalar metric names across aggregates,
// sorted.
func MetricNames(aggs []Aggregate) []string {
	seen := map[string]bool{}
	for _, a := range aggs {
		for name := range a.Series {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table renders aggregates as a report table: one column per axis of the
// (first) point, then "mean±std" per metric. Passing no metrics selects the
// sorted union of all metric names.
func Table(title string, aggs []Aggregate, metrics ...string) *report.Table {
	if len(metrics) == 0 {
		metrics = MetricNames(aggs)
	}
	var headers []string
	if len(aggs) > 0 {
		for _, kv := range aggs[0].Point {
			headers = append(headers, kv.Key)
		}
	}
	headers = append(headers, "replicas")
	headers = append(headers, metrics...)
	t := report.New(title, headers...)
	for _, a := range aggs {
		row := make([]string, 0, len(headers))
		for _, kv := range a.Point {
			row = append(row, kv.Value)
		}
		rep := fmt.Sprintf("%d", a.Replicas)
		if a.Failed > 0 {
			rep += fmt.Sprintf(" (+%d failed)", a.Failed)
		}
		row = append(row, rep)
		for _, m := range metrics {
			s := a.Summary(m)
			switch {
			case s.N() == 0:
				row = append(row, "-")
			case s.N() == 1:
				row = append(row, report.F3(s.Mean()))
			default:
				row = append(row, fmt.Sprintf("%s ±%s", report.F3(s.Mean()), report.F3(s.Std())))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// CSV renders aggregates as CSV with separate mean/std columns per metric.
func CSV(w io.Writer, aggs []Aggregate, metrics ...string) error {
	if len(metrics) == 0 {
		metrics = MetricNames(aggs)
	}
	var headers []string
	if len(aggs) > 0 {
		for _, kv := range aggs[0].Point {
			headers = append(headers, kv.Key)
		}
	}
	headers = append(headers, "replicas", "failed")
	for _, m := range metrics {
		headers = append(headers, m+"_mean", m+"_std")
	}
	t := report.New("", headers...)
	for _, a := range aggs {
		row := make([]string, 0, len(headers))
		for _, kv := range a.Point {
			row = append(row, kv.Value)
		}
		row = append(row, fmt.Sprintf("%d", a.Replicas), fmt.Sprintf("%d", a.Failed))
		for _, m := range metrics {
			s := a.Summary(m)
			if s.N() == 0 {
				// Distinguish "metric absent at this point" from a
				// measured zero, as Table's "-" does.
				row = append(row, "", "")
				continue
			}
			row = append(row, fmt.Sprintf("%g", s.Mean()), fmt.Sprintf("%g", s.Std()))
		}
		t.AddRow(row...)
	}
	return t.RenderCSV(w)
}

// jsonAggregate is the stable JSON shape of one aggregate.
type jsonAggregate struct {
	Point    map[string]string  `json:"point"`
	Replicas int                `json:"replicas"`
	Failed   int                `json:"failed,omitempty"`
	Mean     map[string]float64 `json:"mean"`
	Std      map[string]float64 `json:"std"`
}

// JSON renders aggregates as an indented JSON array. Map keys marshal in
// sorted order, so the output is deterministic.
func JSON(w io.Writer, aggs []Aggregate) error {
	out := make([]jsonAggregate, 0, len(aggs))
	for _, a := range aggs {
		j := jsonAggregate{
			Point:    map[string]string{},
			Replicas: a.Replicas,
			Failed:   a.Failed,
			Mean:     map[string]float64{},
			Std:      map[string]float64{},
		}
		for _, kv := range a.Point {
			j.Point[kv.Key] = kv.Value
		}
		for name := range a.Series {
			s := a.Summary(name)
			j.Mean[name] = s.Mean()
			j.Std[name] = s.Std()
		}
		out = append(out, j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
