package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runToy runs one toy-sized benchmark and returns its info and result
// lines.
func runToy(t *testing.T, workload string, trace string, seconds string) (info, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", seconds,
		"--trace", trace, "--toy", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want info and result lines, got %q", stdout.String())
	}
	var in info
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &in); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return in, res
}

// TestWorkloadsPrintEveryMetric runs every workload of BENCHMARK.json at
// toy size, untraced and traced, and checks that each named metric prints
// with its unit and that every output check passes.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, mode := range []struct {
				trace, seconds string
				want           []struct{ Name, Unit string }
			}{{"0", "0.2", s.EndToEnd}, {"1", "1", s.PerLayer}} {
				in, res := runToy(t, w.Name, mode.trace, mode.seconds)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %s: correct=%v attempted=%d failed=%d: %v",
						mode.trace, res.Correct, res.Attempted, res.Failed, in.Failures)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %s", mode.trace, m.Name, got, m.Unit)
					}
				}
				for _, k := range []string{"go", "nproc", "gomaxprocs", "cpu", "commit", "seed"} {
					if in.Env[k] == "" {
						t.Errorf("env lacks %s", k)
					}
				}
				if mode.trace == "1" {
					var sum float64
					for name, m := range res.Metrics {
						if strings.HasPrefix(name, "share.") {
							sum += m.Value
						}
					}
					if sum < 99.999 || sum > 100.001 {
						t.Errorf("package shares sum to %v, want 100", sum)
					}
				}
			}
		})
	}
}

// TestEndToEndDirections requires the program to report, for every
// end-to-end metric, the quartile on the side BENCHMARK.json calls worse.
func TestEndToEndDirections(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEnd))
	}
	q := [3]float64{1, 2, 3}
	for _, m := range s.EndToEnd {
		e, ok := endToEnd[m.Name]
		if !ok || e.unit != m.Unit || e.higher != (m.Better == "higher") {
			t.Errorf("%s: program has %+v, BENCHMARK.json unit %s better %s", m.Name, e, m.Unit, m.Better)
		}
		want := 3.0
		if m.Better == "higher" {
			want = 1
		}
		if got := worseQuartile(q, e.higher); got != want {
			t.Errorf("%s: worse quartile of %v is %v, want %v", m.Name, q, got, want)
		}
	}
}

// TestCorruptedResultsFailChecks runs each workload's pass at toy size,
// then corrupts its outputs and requires the output check to fail.
func TestCorruptedResultsFailChecks(t *testing.T) {
	pass := func(t *testing.T, b bench) {
		t.Helper()
		if err := b.build(nil); err != nil {
			t.Fatal(err)
		}
		if err := b.prepare(nil); err != nil {
			t.Fatal(err)
		}
		c := &checks{}
		if _, err := b.pass(nil, 1, c); err != nil {
			t.Fatal(err)
		}
		if c.failed != 0 {
			t.Fatalf("clean pass failed its checks: %v", c.msgs)
		}
	}
	trips := func(t *testing.T, what string, check func(c *checks)) {
		t.Helper()
		c := &checks{}
		check(c)
		if c.failed == 0 {
			t.Errorf("%s passed the output check", what)
		}
	}

	t.Run("fig4-pool", func(t *testing.T) {
		b := newFig4(3, true).(*fig4)
		pass(t, b)
		lost := *b.inrp
		lost.Completed--
		trips(t, "an INRP run with a lost flow", func(c *checks) { checkFig4(c, b.flows, &lost, b.sp) })
		worse := *b.inrp
		worse.DemandSatisfied = b.sp.DemandSatisfied / 2
		trips(t, "INRP below SP", func(c *checks) { checkFig4(c, b.flows, &worse, b.sp) })
	})
	t.Run("custody-fanin", func(t *testing.T) {
		b := newFanin(3, true).(*fanin)
		pass(t, b)
		dropped := *b.reps[0]
		dropped.ChunksDropped = 1
		trips(t, "INRPP with a drop", func(c *checks) { checkFanin(c, b.transfers, b.chunks, &dropped, b.reps[1]) })
		short := *b.reps[1]
		short.Completions = map[int]time.Duration{}
		trips(t, "AIMD with no completions", func(c *checks) { checkFanin(c, b.transfers, b.chunks, b.reps[0], &short) })
	})
	t.Run("failure-grid", func(t *testing.T) {
		b := newGrid(3, true).(*grid)
		pass(t, b)
		failed := []sweep.Result{{Name: "loss=0 #0", Err: os.ErrInvalid}}
		trips(t, "an errored scenario", func(c *checks) { checkGrid(c, "inrpp", 16, failed) })
	})
}

// flaky is a bench whose statistics change after the warm-up pass.
type flaky struct{ passes int }

func (f *flaky) build(*tracer) error   { return nil }
func (f *flaky) prepare(*tracer) error { return nil }
func (f *flaky) pass(_ *tracer, _ int, _ *checks) (passOut, error) {
	f.passes++
	d := "same"
	if f.passes == 3 {
		d = "changed"
	}
	return passOut{pooled: side{time.Millisecond, 1}, baseline: side{time.Millisecond, 1}, digest: d}, nil
}

// TestDigestChangeFailsCheck requires a pass whose statistics differ from
// the warm-up pass to count as a failed operation.
func TestDigestChangeFailsCheck(t *testing.T) {
	workloads["flaky"] = func(int64, bool) bench { return &flaky{} }
	defer delete(workloads, "flaky")
	_, res := runToy(t, "flaky", "0", "0.01")
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed check", res.Correct, res.Failed)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestSharesFromTop parses a pprof -top excerpt into package groups.
func TestSharesFromTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.50s 75.00%  repro/internal/des.(*eventHeap).siftDown
     400ms 20.00% 80.00%      400ms 20.00%  runtime.mallocgc
     200ms 10.00% 90.00%      200ms 10.00%  internal/runtime/maps.(*Map).getWithKeySmall
     100ms  5.00% 95.00%      100ms  5.00%  repro/internal/sweepd.(*Coordinator).lease
     100ms  5.00%   100%      100ms  5.00%  sort.Float64s
         0     0%   100%      1.00s 50.00%  main.main
`
	got, err := sharesFromTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"share.des": 60, "share.runtime": 30, "share.other": 10, "share.flowsim": 0} {
		if v := got[k]; v < want-1e-9 || v > want+1e-9 {
			t.Errorf("%s = %v, want %v", k, v, want)
		}
	}
}
