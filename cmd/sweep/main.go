// Command sweep runs parameter-grid scenario sweeps on the sweep engine:
// it expands parameter grids into scenario lists, executes them on all
// cores with deterministic per-scenario seeding, and prints aggregated
// mean±std summaries. Two grid modes cover the repo's two simulators:
//
//   - -mode flow (default): topology × policy × load flow-level scenarios,
//     the Figure 4 machinery;
//   - -mode chunk: transport × anticipation × custody × load chunk-level
//     scenarios on the custody bottleneck chain, the §3.3 machinery.
//
// Usage:
//
//	sweep -isps "Tiscali (EU),Exodus (US)" -policies sp,ecmp,inrp \
//	      -flows 60,120,240 -replicas 3 -seed 1 -workers 0 \
//	      -capacity 450Mbps -demand 300Mbps -size 150MB -horizon 8s \
//	      -format table|csv|json [-columns demand_satisfied,jain] [-q]
//
//	sweep -mode chunk -transports inrpp,aimd,arc -anticipations 256,4096 \
//	      -custody 1GB,10GB -transfers 1,4 -chunks 2000 -replicas 3
//
// Chunk mode also carries the failure model: -outage-kind/-outage-up/
// -outage-down put churn on the bottleneck, -maintenance "1s-2s;4s-5s"
// adds scheduled hard-down windows, -loss 0.01,0.05 makes the bottleneck
// randomly lossy, -detour-rate 1Gbps adds a failover diamond, and with it
// -failover hold,reroute,both compares recovery strategies and
// -correlated true fails the detour together with the bottleneck (one
// SRLG).
//
// Each grid family is one table in grids.go, a row per flag: default,
// point or label key, decoder into sweep.FlowSpec/ChunkSpec, whether the
// axis joins the seed, its quiet value (an axis left there stays out of
// the grid, keeping older grids' names, seeds and label) and whether it
// is an INRPP-only knob (anticipation, custody, failover) whose AIMD/ARC
// baselines run only at the first listed value. Flags, decoding, the
// grid, seed rule, baseline collapse and checkpoint label are loops over
// the rows, and every expanded cell passes the spec's Validate before
// any scenario runs. To add an axis, add a row.
//
// With -checkpoint FILE every completed scenario is streamed to FILE as
// one JSON line, and a run whose FILE already exists resumes from it:
// recorded scenarios are restored from disk and only the rest execute,
// so rerunning the same command after a kill (SIGKILL included) finishes
// with output byte-identical to an uninterrupted run.
//
// Results fold into a streaming accumulator as workers finish, so the
// full result slice is never materialised; the fold is exact, and output
// is byte-identical to aggregating every result at the end. Restored
// records stream from the checkpoint file into the same fold.
//
// A single run is a one-cell grid: -policies inrp -replicas 1 (flow) or
// -mode chunk -transports arc -replicas 1 (chunk) prints the metrics of
// one sweep.FlowSpec or sweep.ChunkSpec run at the cell's derived seed.
//
// A grid can be split across machines: -shard i/n (0-based) runs only the
// i-th slice of a deterministic n-way partition of the expanded grid,
// writing a standard checkpoint, and -merge file1,file2,... combines the
// collected shard checkpoints — validating that they come from the same
// grid, master seed and configuration, rejecting overlaps, and reporting
// missing scenarios — into output byte-identical to an unsharded run:
//
//	hostA$ sweep -mode chunk -shard 0/2 -checkpoint a.jsonl
//	hostB$ sweep -mode chunk -shard 1/2 -checkpoint b.jsonl
//	hostA$ sweep -mode chunk -merge a.jsonl,b.jsonl
//
// Every host must pass the same grid flags. The partition hashes each
// scenario's identity, so it balances scenario counts, not wall-clock. A
// shard host that dies reruns its own command: -checkpoint resumes it.
//
// Every run is instrumented through internal/obs. -metrics ADDR serves
// live snapshots of the shared registry over HTTP while the sweep runs
// (GET /metrics for Prometheus text format, GET /snapshot for JSON;
// -metrics-linger keeps serving the final state after completion so
// scrapers catch it). -trace FILE streams a sampled sim-time JSONL event
// trace (custody enter/exit, detours, back-pressure, flow admit/finish),
// one record in -trace-sample per event kind. A periodic stderr progress
// line (done/total, rate, ETA — period set by -progress-every) rides on
// the same counters; -q silences it along with the per-scenario lines.
// -checkpoint-obs embeds a per-scenario observability summary in
// checkpoint records (old readers ignore it; default off keeps files
// byte-identical to pre-observability checkpoints). -checkpoint-obs,
// -metrics-linger and -trace-sample exit with an error when given
// without the -checkpoint, -metrics or -trace they qualify.
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// sweep for performance work (see the README benchmarking cookbook);
// -exectrace FILE captures a runtime execution trace the same way. All
// three flush on every exit path.
//
// The seed at each grid point is derived from the point's seed axes only
// (the table's seed column), so the comparison axes — policy in flow
// mode; transport, anticipation, custody and failover in chunk mode — are
// measured under identical load and failure traces; output is
// byte-identical for the same grid and seed at any -workers value and —
// after -merge — at any -shard count.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	mode := flag.String("mode", "flow", "grid mode: flow|chunk")
	replicas := flag.Int("replicas", 3, "seed replicas per grid point")
	seed := flag.Int64("seed", 1, "master sweep seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table|csv|json")
	metricsList := flag.String("columns", "", "comma-separated metric subset to render (default: all)")
	quiet := flag.Bool("q", false, "suppress progress output")
	metricsAddr := flag.String("metrics", "", "serve live metric snapshots over HTTP on this address (e.g. 127.0.0.1:9090; /metrics Prometheus text, /snapshot JSON)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics endpoint serving the final snapshot this long after the sweep completes")
	tracePath := flag.String("trace", "", "stream a sampled sim-time JSONL event trace to this file")
	traceSample := flag.Int("trace-sample", 1, "trace sampling: keep 1 in N events per event kind")
	progressEvery := flag.Duration("progress-every", 5*time.Second, "period of the stderr progress ticker (done/total, rate, ETA); 0 disables")
	checkpointObs := flag.Bool("checkpoint-obs", false, "embed per-scenario observability summaries in checkpoint records")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace of the sweep to this file")
	checkpointPath := flag.String("checkpoint", "", "stream completed scenarios to this JSONL file, resuming from it when it exists")
	shardStr := flag.String("shard", "", "run only shard i/n of the grid (0-based, e.g. 0/3); combine shard checkpoints with -merge")
	mergeList := flag.String("merge", "", "merge shard checkpoint files (comma-separated JSONL paths) instead of running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")

	// Grid flags: both families' axes and scalars, declared in grids.go.
	registerGrids(flag.CommandLine)
	flag.Parse()
	if err := checkFlags(*mode, *format, *replicas, *workers, *traceSample, *progressEvery, *metricsLinger); err != nil {
		fatal(err)
	}
	if err := checkCompanions(flag.CommandLine); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	memProfilePath = *memprofile
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		execTraceFile = f
	}

	// Every run shares one registry: scenario simulators, the runner and
	// the progress ticker all write to it, and -metrics serves it live.
	reg := obs.New("sweep")
	var simTrace *obs.Trace
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		simTrace = obs.NewTrace(f, *traceSample)
		simTraceFile, simTraceFlush = f, simTrace
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: metrics listening on http://%s\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler(reg)}
		go srv.Serve(ln) //nolint:errcheck — dies with the process
	}

	scenarios, label, err := expandGrid(flag.CommandLine, *mode, *seed, *replicas, reg, simTrace)
	if err != nil {
		fatal(err)
	}

	var shard sweep.Shard
	if *shardStr != "" {
		if shard, err = sweep.ParseShard(*shardStr); err != nil {
			fatal(err)
		}
	}

	// -merge: no scenario runs; stream the collected shard checkpoints
	// through an accumulator in scenario order and render the result.
	// Title and bytes must match an unsharded run exactly, so the
	// rendering path below is shared.
	if *mergeList != "" {
		if *shardStr != "" || *checkpointPath != "" {
			fatal(fmt.Errorf("-merge cannot be combined with -shard or -checkpoint"))
		}
		acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
		if err := sweep.MergeCheckpointsInto(acc, label, scenarios, split(*mergeList)...); err != nil {
			fatal(err)
		}
		render(*format, *metricsList, title(scenarios, *replicas, *seed, sweep.Shard{}), acc)
		stopProfiles()
		return
	}

	runner := &sweep.Runner{Workers: *workers, Shard: shard, Obs: reg}
	if !*quiet {
		runner.Progress = func(done, total int, r sweep.Result) {
			status := "ok"
			if r.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s, %v)\n", done, total, r.Name, status, r.Elapsed.Round(time.Millisecond))
		}
	}

	var cp *sweep.Checkpoint
	if *checkpointPath != "" {
		if cp, err = sweep.NewCheckpoint(*checkpointPath, label); err != nil {
			fatal(err)
		}
		cp.RecordObs = *checkpointObs
		runner.Progress = cp.Progress(runner.Progress)
	}
	stopTicker := startProgressTicker(reg, *progressEvery, *quiet)

	// Results fold into the accumulator as workers finish; only the
	// failed ones come back as a slice, for reporting. A checkpointed run
	// streams the records already in the file into the fold as the
	// accumulator reaches them, never materialising them all at once.
	acc := sweep.NewAccumulator(sweep.AccumulatorConfig{}, scenarios)
	var failed []sweep.Result
	if cp != nil {
		_, failed, err = runner.ResumeCheckpointAccumulate(context.Background(), *checkpointPath, label, scenarios, acc,
			func(restored int) {
				fmt.Fprintf(os.Stderr, "sweep: restored %d/%d scenarios from %s\n",
					restored, len(shard.Select(scenarios)), *checkpointPath)
			})
	} else {
		failed, err = runner.Accumulate(context.Background(), scenarios, acc)
	}
	stopTicker()
	if err != nil {
		fatal(err)
	}
	if cp != nil {
		if err := cp.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: checkpoint: %v\n", err)
		}
	}
	for _, r := range failed {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", r.Err)
	}

	render(*format, *metricsList, title(scenarios, *replicas, *seed, shard), acc)
	stopProfiles()
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "sweep: metrics serving final snapshot for %s\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d scenarios failed\n", len(failed), len(shard.Select(scenarios)))
		os.Exit(1)
	}
}

// startProgressTicker emits a periodic stderr progress line from the
// runner's counters: scenarios done/total, completion rate and an ETA.
// The returned stop function ends the ticker and waits it out, so no
// line can interleave with the final table.
func startProgressTicker(reg *obs.Registry, every time.Duration, quiet bool) func() {
	if quiet || every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		start := time.Now()
		completed := reg.Counter("sweep_scenarios_completed")
		scheduled := reg.Counter("sweep_scenarios_scheduled")
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				d, total := completed.Value(), scheduled.Value()
				if total == 0 {
					continue
				}
				line := fmt.Sprintf("sweep: %d/%d scenarios", d, total)
				if rate := float64(d) / time.Since(start).Seconds(); d > 0 && d < total {
					eta := time.Duration(float64(total-d) / rate * float64(time.Second))
					line += fmt.Sprintf(" (%.1f/s, ETA %s)", rate, eta.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// memProfilePath, when set, receives a heap profile via stopProfiles on
// every exit path. execTraceFile and the sim-time trace pair are flushed
// the same way — os.Exit skips defers, so fatal() and the normal exit
// both route through stopProfiles.
var (
	memProfilePath string
	execTraceFile  *os.File
	simTraceFile   *os.File
	simTraceFlush  *obs.Trace
)

// stopProfiles flushes the profiling and tracing outputs; it must run
// before any process exit (os.Exit skips defers).
func stopProfiles() {
	pprof.StopCPUProfile()
	if execTraceFile != nil {
		trace.Stop()
		execTraceFile.Close()
		execTraceFile = nil
	}
	if simTraceFlush != nil {
		if err := simTraceFlush.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: trace:", err)
		}
		simTraceFile.Close()
		simTraceFlush, simTraceFile = nil, nil
	}
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
		return
	}
	runtime.GC() // materialise up-to-date heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
	}
	f.Close()
	memProfilePath = ""
}

// title renders the table heading. A sharded run labels itself and its
// slice size; merged and unsharded runs must produce identical bytes, so
// they share the zero-shard form.
func title(scenarios []sweep.Scenario, replicas int, seed int64, shard sweep.Shard) string {
	// Points counted from the scenario list, not grid.Size(): chunk
	// mode collapses redundant baseline cells after expansion.
	base := fmt.Sprintf("Scenario sweep — %d scenarios, %d points, seed %d",
		len(scenarios), len(scenarios)/replicas, seed)
	if shard.Count <= 1 {
		return base
	}
	return fmt.Sprintf("%s — shard %s (%d scenarios here)",
		base, shard, len(shard.Select(scenarios)))
}

// modes and formats list the values -mode and -format accept.
var (
	modes   = []string{"flow", "chunk"}
	formats = []string{"table", "csv", "json"}
)

// checkFlags rejects values no run can honour, before any scenario runs:
// an unknown -mode or -format would fail only after setup or after the
// whole grid ran, and the count and period flags below their range would
// silently run as another value (-replicas and -trace-sample as 1,
// -workers as GOMAXPROCS, -progress-every and -metrics-linger as 0).
func checkFlags(mode, format string, replicas, workers, traceSample int, progressEvery, metricsLinger time.Duration) error {
	switch {
	case !slices.Contains(modes, mode):
		return fmt.Errorf("-mode %q: unknown mode (known: %s)", mode, strings.Join(modes, ", "))
	case !slices.Contains(formats, format):
		return fmt.Errorf("-format %q: unknown format (known: %s)", format, strings.Join(formats, ", "))
	case replicas < 1:
		return fmt.Errorf("-replicas %d: need at least one replica", replicas)
	case workers < 0:
		return fmt.Errorf("-workers %d: need 0 (GOMAXPROCS) or more workers", workers)
	case traceSample < 1:
		return fmt.Errorf("-trace-sample %d: need a sampling rate of at least 1", traceSample)
	case progressEvery < 0:
		return fmt.Errorf("-progress-every %v: need 0 (off) or a positive period", progressEvery)
	case metricsLinger < 0:
		return fmt.Errorf("-metrics-linger %v: need 0 (off) or a positive duration", metricsLinger)
	}
	return nil
}

// companions maps each flag that only qualifies another to the flag it
// qualifies.
var companions = map[string]string{
	"checkpoint-obs": "checkpoint",
	"metrics-linger": "metrics",
	"trace-sample":   "trace",
}

// checkCompanions rejects a qualifying flag given without the flag it
// qualifies, which would otherwise be silently ignored.
func checkCompanions(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if need, ok := companions[f.Name]; ok && err == nil && fs.Lookup(need).Value.String() == "" {
			err = fmt.Errorf("-%s has no effect without -%s", f.Name, need)
		}
	})
	return err
}

// render writes the accumulator's aggregates in the format checkFlags
// accepted.
func render(format, metricsList, tableTitle string, acc *sweep.Accumulator) {
	aggs, err := acc.Aggregates()
	if err != nil {
		fatal(err)
	}
	metrics := split(metricsList)
	switch format {
	case "table":
		if err := sweep.Table(tableTitle, aggs, metrics...).Render(os.Stdout); err != nil {
			fatal(err)
		}
	case "csv":
		if err := sweep.CSV(os.Stdout, aggs, metrics...); err != nil {
			fatal(err)
		}
	case "json":
		if err := sweep.JSON(os.Stdout, aggs); err != nil {
			fatal(err)
		}
	}
}

// split parses a comma-separated list, trimming blanks.
func split(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
