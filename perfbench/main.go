// Command perfbench is the repository benchmark. It runs one workload —
// fig4-pool, custody-fanin or failure-grid — for a fixed number of host
// seconds, each pass running the paper's pooling mechanism (the pooled
// side) and its end-to-end baseline on identical generated inputs, checks
// every pass's outputs, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fig4-pool --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// observability off. With --trace 1 it carries the per-layer metrics of a
// traced run: obs registries bound through the simulators' public Obs
// fields, benchmark-side spans around each layer call, and a CPU profile
// summarised into per-package shares. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for spans and the CPU profile
	toy      bool   // toy input sizes, for the self-test
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds of timed passes")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans and profiles")
	fs.BoolVar(&o.toy, "toy", false, "toy input sizes (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if _, ok := workloads[o.workload]; !ok || *trace < 0 || *trace > 1 || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, info, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line printed just before the result: the recorded
// environment, the digest of the simulated statistics, sample counts and
// quartiles, and the messages of any failed check.
type info struct {
	Env       map[string]string     `json:"env"`
	Digest    string                `json:"digest"`
	Passes    int                   `json:"passes"`
	Builds    int                   `json:"setup_builds"`
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	Failures  []string              `json:"failures,omitempty"`
}

// checks counts output checks: each is one operation, a failed check a
// failed operation.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// side is one half of a pass: its wall time and the work it completed
// (flows, chunks or scenarios).
type side struct {
	wall time.Duration
	work float64
}

// passOut is one pass's outcome.
type passOut struct {
	pooled, baseline side
	digest           string // digest of the simulated statistics
}

// bench is one workload. build constructs the inputs (repeated to time
// set-up), prepare makes untimed per-pass state, and pass runs both sides
// once and checks their outputs. A nil tracer means tracing is off.
type bench interface {
	build(t *tracer) error
	prepare(t *tracer) error
	pass(t *tracer, workers int, c *checks) (passOut, error)
}

// workloads maps each name to its constructor.
var workloads = map[string]func(seed int64, toy bool) bench{
	"fig4-pool":     newFig4,
	"custody-fanin": newFanin,
	"failure-grid":  newGrid,
}

// parallel names the workloads that run more than one goroutine. The
// others run with GOMAXPROCS 1: their GC work then shares the simulator's
// core and counts in run_s, and the runtime never wakes the idle vCPU,
// whose host scheduling latency made wall times noisier on a 2-vCPU VM.
var parallel = map[string]bool{"failure-grid": true}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set-up is built setupWarm times before the first timed pass, to warm
// code and heap, and then again before every timed pass: at least
// setupPerPass times and for at least setupPerPassBudget. The builds
// between passes are setup_s's samples, so set-up is measured over the same
// stretch of host time as the passes. The traced run builds setupWarm
// times with tracing on instead.
const (
	setupWarm          = 3
	setupPerPass       = 2
	setupPerPassBudget = 20 * time.Millisecond
)

// passSample is what one timed pass measured.
type passSample struct {
	run, cpu, pooledRate, baselineRate, allocMB float64
}

// measure runs one benchmark: warm-up set-up builds, a warm-up pass that
// fixes the reference digest, then timed passes for o.seconds, each after
// timed set-up builds. A traced run splits the time between untraced and
// traced passes.
func measure(o options, log io.Writer) (result, info, error) {
	if !parallel[o.workload] {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	b := workloads[o.workload](o.seed, o.toy)
	c := &checks{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	in := info{Env: environment(o)}

	var setups []float64
	build := func(n int, budget time.Duration) error {
		for start := time.Now(); n > 0 || time.Since(start) < budget; n-- {
			runtime.GC()
			d, err := (*tracer)(nil).time("setup", func() error { return b.build(nil) })
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := build(setupWarm, 0); err != nil {
		return result{}, in, err
	}
	setups = setups[:0]

	// The warm-up pass runs on one worker; every later pass, at any worker
	// count and traced or not, must reproduce its statistics exactly.
	if err := b.prepare(nil); err != nil {
		return result{}, in, fmt.Errorf("warm-up: %w", err)
	}
	warm, err := b.pass(nil, 1, c)
	if err != nil {
		return result{}, in, fmt.Errorf("warm-up: %w", err)
	}
	in.Digest = warm.digest

	workers := runtime.GOMAXPROCS(0)
	// timed runs the timed passes; on the end-to-end run it builds the
	// set-up samples before each pass.
	timed := func(t *tracer, budget time.Duration, minPasses int) ([]passSample, error) {
		var out []passSample
		start := time.Now()
		for len(out) < minPasses || time.Since(start) < budget {
			if !o.trace {
				if err := build(setupPerPass, setupPerPassBudget); err != nil {
					return nil, err
				}
			}
			id := t.begin("prepare")
			err := b.prepare(t)
			t.end(id)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			cpu0, alloc0 := cpuSeconds(), heapAllocs()
			t.beginPass()
			p, err := b.pass(t, workers, c)
			t.endPass()
			if err != nil {
				return nil, err
			}
			cpu, alloc := cpuSeconds()-cpu0, heapAllocs()-alloc0
			c.expect(p.digest == warm.digest, "pass %d digest %s differs from warm-up %s",
				len(out)+1, p.digest, warm.digest)
			out = append(out, passSample{
				run:          (p.pooled.wall + p.baseline.wall).Seconds(),
				cpu:          cpu,
				pooledRate:   p.pooled.work / p.pooled.wall.Seconds(),
				baselineRate: p.baseline.work / p.baseline.wall.Seconds(),
				allocMB:      float64(alloc) / 1e6,
			})
		}
		return out, nil
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if !o.trace {
		samples, err := timed(nil, budget, 3)
		if err != nil {
			return result{}, in, err
		}
		in.Passes, in.Builds = len(samples), len(setups)
		col := func(f func(passSample) float64) []float64 {
			xs := make([]float64, len(samples))
			for i, s := range samples {
				xs[i] = f(s)
			}
			return xs
		}
		series := map[string][]float64{
			"setup_s":        setups,
			"run_s":          col(func(s passSample) float64 { return s.run }),
			"cpu_s":          col(func(s passSample) float64 { return s.cpu }),
			"pooled_per_s":   col(func(s passSample) float64 { return s.pooledRate }),
			"baseline_per_s": col(func(s passSample) float64 { return s.baselineRate }),
			"alloc_mb":       col(func(s passSample) float64 { return s.allocMB }),
		}
		in.Quartiles = map[string][3]float64{}
		for name, xs := range series {
			q := quartiles(xs)
			in.Quartiles[name] = q
			res.Metrics[name] = metric{worseQuartile(q, endToEnd[name].higher), endToEnd[name].unit}
		}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), endToEnd["max_rss_mb"].unit}
	} else {
		layers, passes, err := perLayerRun(o, b, tr, timed, budget)
		if err != nil {
			return result{}, in, err
		}
		in.Passes = passes
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.writeSpans(spans); err != nil {
			return result{}, in, err
		}
		in.Env["spans"] = spans
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	in.Failures = c.msgs
	fmt.Fprintf(log, "perfbench %s seed=%d passes=%d checks=%d failed=%d digest=%s\n",
		o.workload, o.seed, in.Passes, c.attempted, c.failed, in.Digest)
	return res, in, nil
}

// timedFunc runs timed passes for budget, at least minPasses of them,
// traced when t is non-nil.
type timedFunc func(t *tracer, budget time.Duration, minPasses int) ([]passSample, error)

// perLayerRun is the traced run. Its first half runs untraced passes under
// the CPU profile and the runtime's GC accounting, so neither sees the cost
// of tracing; its second half rebuilds the inputs with observability bound
// and runs traced passes for the spans and counts. It returns the
// per-layer values and the number of passes.
func perLayerRun(o options, b bench, tr *tracer, timed timedFunc, budget time.Duration) (map[string]float64, int, error) {
	prof, err := os.CreateTemp(o.out, "cpu-"+o.workload+"-*.pprof")
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(prof.Name())
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, 0, err
	}
	gc0 := gcCPU()
	plain, err := timed(nil, budget/2, 2)
	gc := gcCPU().sub(gc0)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}

	for i := 0; i < setupWarm; i++ {
		id := tr.begin("setup")
		err := b.build(tr)
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("traced set-up: %w", err)
		}
	}
	traced, err := timed(tr, budget/2, 2)
	if err != nil {
		return nil, 0, err
	}

	layers := tr.layerMetrics()
	runOf := func(ps []passSample) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.run
		}
		return median(xs)
	}
	layers["obs.overhead_pct"] = 100 * (runOf(traced)/runOf(plain) - 1)
	layers["runtime.gc_cpu_share"] = gc.share()
	layers["runtime.gc_cycles"] = gc.cycles / float64(len(plain))
	shares, err := packageShares(prof.Name())
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		layers[k] = v
	}
	return layers, len(plain) + len(traced), nil
}

// endToEnd gives every end-to-end metric its unit and direction.
var endToEnd = map[string]struct {
	unit   string
	higher bool // higher is better
}{
	"setup_s":        {"s", false},
	"run_s":          {"s", false},
	"cpu_s":          {"s", false},
	"pooled_per_s":   {"1/s", true},
	"baseline_per_s": {"1/s", true},
	"alloc_mb":       {"MB", false},
	"max_rss_mb":     {"MB", false},
}

// worseQuartile is the quartile q on the worse side of the median: the
// third for a metric where lower is better, the first where higher is. Of
// the samples of a run, three in four do at least as well. Other tenants
// of a shared host speed the CPU up and slow it down for seconds at a
// time; the passes in the host's fast spells pull a run's median with
// them, and this quartile moves far less from run to run (README.md).
func worseQuartile(q [3]float64, higher bool) float64 {
	if higher {
		return q[0]
	}
	return q[2]
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	return readMetrics("/gc/heap/allocs:bytes")[0].Value.Uint64()
}

// gcStat is the runtime's GC accounting at one instant.
type gcStat struct{ gcCPU, totalCPU, cycles float64 }

func gcCPU() gcStat {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
		"/gc/cycles/total:gc-cycles")
	return gcStat{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (g gcStat) sub(o gcStat) gcStat {
	return gcStat{g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU, g.cycles - o.cycles}
}

func (g gcStat) share() float64 {
	if g.totalCPU <= 0 {
		return 0
	}
	return g.gcCPU / g.totalCPU
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, median and third quartile of xs,
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		m := float64(i*(n+1)) / 4 // 1-based position
		j := int(m)
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = s[j-1] + (m-float64(j))*(s[j]-s[j-1])
		}
	}
	return q
}
