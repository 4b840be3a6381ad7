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
// randomly lossy (axis), -detour-rate 1Gbps adds a failover diamond, and
// with it -failover hold,reroute,both compares recovery strategies and
// -correlated true fails the detour together with the bottleneck (one
// SRLG). Loss and correlation change the failure realization and join
// the seed derivation; the failover axis does not, so every strategy
// replays the identical failure trace.
//
// Anticipation, custody and failover are INRPP knobs: the AIMD/ARC
// baselines run only at the first listed value of each instead of being
// recomputed byte-identically per cell.
//
// With -checkpoint FILE every completed scenario is streamed to FILE as
// one JSON line; rerunning with -resume restores those scenarios from
// disk and executes only the rest, so a killed process (SIGKILL included)
// finishes with output byte-identical to an uninterrupted run.
//
// Results aggregate through a streaming accumulator as workers finish.
// -agg selects the representation: "exact" pools every raw sample (the
// byte-identical reference), "sketch" holds bounded quantile sketches —
// O(sketch) memory per grid point however many replicas and samples pool
// into it — and "auto" (default) starts exact and cuts over to sketches
// the moment pooled samples exceed -agg-budget. Table, CSV and JSON
// output is byte-identical across all three modes (they render streamed
// mean±std); only explicit percentile queries see the sketch's documented
// ±ε rank error (-sketch-eps).
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
// scenario's identity, so it balances scenario counts, not wall-clock;
// for heterogeneous grids use the sweep service below.
//
// The sweep service replaces static shards with lease-based work
// stealing (see internal/sweepd): -mode serve starts a coordinator on
// -listen that expands the grid once, leases batches of -batch scenarios
// with a -lease-ttl heartbeat-renewed TTL, persists every result to its
// -checkpoint (always resuming from it at startup), and renders the
// final table itself; -mode work starts a thin worker against
// -coordinator URL. Both sides pick the grid family with -grid flow|chunk
// and must be given identical grid flags — the configuration label is
// verified on every lease and submission:
//
//	host0$ sweep -mode serve -grid chunk -checkpoint grid.jsonl -listen :8377
//	hostA$ sweep -mode work -grid chunk -coordinator http://host0:8377
//	hostB$ sweep -mode work -grid chunk -coordinator http://host0:8377
//
// Output is byte-identical to the single-host run at any worker count,
// lease order or re-lease history; the coordinator's mux also serves
// GET /state, /aggregate, /percentile, /metrics and /snapshot.
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
// byte-identical to pre-observability checkpoints).
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// sweep for performance work (see the README benchmarking cookbook);
// -exectrace FILE captures a runtime execution trace the same way. All
// three flush on every exit path.
//
// The workload seed at each grid point is derived from the point minus
// the comparison axis (policy in flow mode; transport/ac/custody in chunk
// mode), so alternatives are measured under identical load; output is
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
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chunknet"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	mode := flag.String("mode", "flow", "grid mode (flow|chunk) or service mode (serve|work; pick the grid with -grid)")
	replicas := flag.Int("replicas", 3, "seed replicas per grid point")
	seed := flag.Int64("seed", 1, "master sweep seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	horizon := flag.Duration("horizon", 0, "virtual time horizon per scenario (0 = mode default: 8s flow, 5s chunk)")
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
	checkpointPath := flag.String("checkpoint", "", "stream completed scenarios to this JSONL file")
	resume := flag.Bool("resume", false, "restore completed scenarios from -checkpoint, run only the rest")
	aggStr := flag.String("agg", "auto", "aggregation: exact|sketch|auto (auto stays exact until -agg-budget pooled samples, then cuts over to bounded quantile sketches)")
	sketchEps := flag.Float64("sketch-eps", 0, "sketch rank-error fraction (0 = default 0.01)")
	aggBudget := flag.Int64("agg-budget", 0, "auto aggregation: pooled raw-sample budget before the sketch cutover (0 = default 2^20)")
	shardStr := flag.String("shard", "", "run only shard i/n of the grid (0-based, e.g. 0/3); combine shard checkpoints with -merge")
	mergeList := flag.String("merge", "", "merge shard checkpoint files (comma-separated JSONL paths) instead of running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")

	// Sweep-service flags (-mode serve|work).
	gridFlag := flag.String("grid", "flow", "serve/work: grid family to expand (flow|chunk); the grid axes flags apply as usual")
	listenAddr := flag.String("listen", "127.0.0.1:8377", "serve: coordinator listen address (lease protocol + /state /aggregate /metrics)")
	coordURL := flag.String("coordinator", "", "work: coordinator base URL (e.g. http://host:8377)")
	batch := flag.Int("batch", 0, "serve: scenarios per lease (0 = 8); work: cap on scenarios per lease request")
	leaseTTL := flag.Duration("lease-ttl", 0, "serve: lease time-to-live between heartbeats; expired leases re-queue (0 = 1m)")
	pollEvery := flag.Duration("poll", 0, "work: poll interval when the coordinator has no leasable work or is unreachable (0 = 500ms)")
	patience := flag.Duration("patience", 0, "work: give up after the coordinator has been unreachable this long (0 = 2m)")
	workerName := flag.String("worker-name", "", "work: worker name in coordinator logs and /state (default host-pid)")

	// Flow-mode axes and workload shape.
	ispList := flag.String("isps", string(topo.Tiscali), "flow: comma-separated ISP topologies")
	policyList := flag.String("policies", "sp,inrp", "flow: comma-separated policies: sp|ecmp|inrp")
	flowsList := flag.String("flows", "60,120,180,240,300", "flow: comma-separated flow counts (offered-load axis)")
	capStr := flag.String("capacity", "450Mbps", "flow: uniform link capacity override (0 = keep built-in)")
	demandStr := flag.String("demand", "300Mbps", "flow: per-flow rate demand (0 = elastic)")
	sizeStr := flag.String("size", "150MB", "flow: mean flow size (bounded Pareto)")
	lambda := flag.Float64("lambda", 0, "flow: arrival rate (flows/s; 0 = flows/4)")

	// Chunk-mode axes and chain shape.
	transportList := flag.String("transports", "inrpp,aimd,arc", "chunk: comma-separated transports: inrpp|aimd|arc")
	acList := flag.String("anticipations", "4096", "chunk: comma-separated INRPP anticipation windows (chunks)")
	custodyList := flag.String("custody", "10GB", "chunk: comma-separated INRPP custody budgets")
	transfersList := flag.String("transfers", "1", "chunk: comma-separated concurrent transfer counts (load axis)")
	ingressStr := flag.String("ingress", "40Gbps", "chunk: chain ingress link rate")
	egressStr := flag.String("egress", "2Gbps", "chunk: chain egress (bottleneck) link rate")
	chunkSizeStr := flag.String("chunksize", "10MB", "chunk: chunk size")
	chunks := flag.Int64("chunks", 2000, "chunk: chunks per transfer")
	bufferStr := flag.String("buffer", "25MB", "chunk: AIMD/ARC drop-tail buffer")
	outageKindStr := flag.String("outage-kind", "none", "chunk: egress-link churn family: none|fixed|exp (none keeps the link always up)")
	outageUpList := flag.String("outage-up", "2s", "chunk: comma-separated mean up-phase durations (outage-rate axis; active with -outage-kind)")
	outageDownList := flag.String("outage-down", "500ms", "chunk: comma-separated mean down-phase durations (axis)")
	outageDownRateStr := flag.String("outage-downrate", "", "chunk: link capacity while down (empty = hard outage: arc pauses, in-flight packets drop)")
	lossList := flag.String("loss", "0", "chunk: comma-separated egress per-packet loss probabilities (lossy-arc axis; 0 keeps the link lossless)")
	failoverList := flag.String("failover", "hold", "chunk: comma-separated INRPP failover strategies: hold|reroute|both (axis; baselines keep the first value)")
	detourRateStr := flag.String("detour-rate", "", "chunk: add a detour node beside the bottleneck with both links at this rate (empty = no detour; required by -failover reroute/both and -correlated)")
	correlatedList := flag.String("correlated", "false", "chunk: comma-separated true|false — group the egress and detour-return links into one SRLG so they fail together (axis; needs -detour-rate)")
	maintenanceStr := flag.String("maintenance", "", "chunk: scheduled egress hard-down windows, semicolon-separated \"start-end\" pairs (e.g. \"1s-2s;4s-5s\"); composes with -outage-kind churn")
	flag.Parse()

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

	// In the service modes the scenario grid is picked by -grid; the
	// classic modes are themselves the grid name.
	gridMode := *mode
	switch *mode {
	case "serve", "work":
		gridMode = *gridFlag
	case "flow", "chunk":
	default:
		fatal(fmt.Errorf("unknown mode %q (known: flow, chunk, serve, work)", *mode))
	}

	var (
		scenarios []sweep.Scenario
		label     string
	)
	switch gridMode {
	case "flow":
		if *horizon == 0 {
			*horizon = 8 * time.Second
		}
		scenarios = flowScenarios(flowArgs{
			isps: *ispList, policies: *policyList, flows: *flowsList,
			capacity: *capStr, demand: *demandStr, size: *sizeStr,
			lambda: *lambda, horizon: *horizon, seed: *seed, replicas: *replicas,
			obs: reg, trace: simTrace,
		})
		label = fmt.Sprintf("flow capacity=%s demand=%s size=%s lambda=%g horizon=%s",
			*capStr, *demandStr, *sizeStr, *lambda, *horizon)
	case "chunk":
		if *horizon == 0 {
			*horizon = 5 * time.Second
		}
		scenarios = chunkScenarios(chunkArgs{
			transports: *transportList, acs: *acList, custody: *custodyList,
			transfers: *transfersList, ingress: *ingressStr, egress: *egressStr,
			chunkSize: *chunkSizeStr, chunks: *chunks, buffer: *bufferStr,
			outageKind: *outageKindStr, outageUps: *outageUpList,
			outageDowns: *outageDownList, outageDownRate: *outageDownRateStr,
			losses: *lossList, failovers: *failoverList, detourRate: *detourRateStr,
			correlated: *correlatedList, maintenance: *maintenanceStr,
			horizon: *horizon, seed: *seed, replicas: *replicas,
			obs: reg, trace: simTrace,
		})
		label = fmt.Sprintf("chunk ingress=%s egress=%s chunksize=%s chunks=%d buffer=%s horizon=%s",
			*ingressStr, *egressStr, *chunkSizeStr, *chunks, *bufferStr, *horizon)
		// Failure-free labels keep their pre-outage bytes, so old
		// checkpoints still resume and merge. Scalar failure knobs join the
		// label (axes are already part of every scenario name).
		if kind := mustOutageKind(*outageKindStr); kind != topo.OutageNone {
			label += fmt.Sprintf(" outage=%s downrate=%s", kind, *outageDownRateStr)
		}
		if *maintenanceStr != "" {
			label += fmt.Sprintf(" maintenance=%s", *maintenanceStr)
		}
		if *detourRateStr != "" {
			label += fmt.Sprintf(" detour=%s", *detourRateStr)
		}
	default:
		fatal(fmt.Errorf("unknown grid %q (known: flow, chunk)", gridMode))
	}

	var shard sweep.Shard
	if *shardStr != "" {
		var err error
		if shard, err = sweep.ParseShard(*shardStr); err != nil {
			fatal(err)
		}
	}

	aggMode, err := sweep.ParseAggMode(*aggStr)
	if err != nil {
		fatal(err)
	}
	if *sketchEps < 0 || *sketchEps >= 0.5 {
		fatal(fmt.Errorf("-sketch-eps %g out of range [0, 0.5): every answer would be vacuous", *sketchEps))
	}
	aggConfig := sweep.AccumulatorConfig{Mode: aggMode, Eps: *sketchEps, SampleBudget: *aggBudget}
	newAccumulator := func() *sweep.Accumulator {
		return sweep.NewAccumulator(aggConfig, scenarios)
	}

	// Service modes hand off to internal/sweepd and exit: the coordinator
	// owns the checkpoint (always resuming), the workers own nothing.
	switch *mode {
	case "serve":
		if *shardStr != "" || *mergeList != "" || *resume {
			fatal(fmt.Errorf("-mode serve cannot be combined with -shard, -merge or -resume (the coordinator always resumes from -checkpoint)"))
		}
		runServe(serveArgs{
			listen:         *listenAddr,
			checkpointPath: *checkpointPath,
			batch:          *batch,
			leaseTTL:       *leaseTTL,
			label:          label,
			scenarios:      scenarios,
			agg:            aggConfig,
			newAccumulator: newAccumulator,
			format:         *format,
			metricsList:    *metricsList,
			tableTitle:     title(scenarios, *replicas, *seed, sweep.Shard{}),
			linger:         *metricsLinger,
			quiet:          *quiet,
			reg:            reg,
		})
		return
	case "work":
		if *shardStr != "" || *mergeList != "" || *checkpointPath != "" || *resume {
			fatal(fmt.Errorf("-mode work cannot be combined with -shard, -merge, -checkpoint or -resume (the coordinator owns the checkpoint)"))
		}
		runWork(workArgs{
			coordinator: *coordURL,
			name:        *workerName,
			label:       label,
			scenarios:   scenarios,
			workers:     *workers,
			max:         *batch,
			poll:        *pollEvery,
			patience:    *patience,
			quiet:       *quiet,
			reg:         reg,
		})
		return
	}

	// -merge: no scenario runs; stream the collected shard checkpoints
	// through an accumulator in scenario order and render the result.
	// Title and bytes must match an unsharded run exactly, so the
	// rendering path below is shared.
	if *mergeList != "" {
		if *shardStr != "" || *checkpointPath != "" || *resume {
			fatal(fmt.Errorf("-merge cannot be combined with -shard, -checkpoint or -resume"))
		}
		acc := newAccumulator()
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

	if *resume && *checkpointPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	var cp *sweep.Checkpoint
	if *checkpointPath != "" {
		var err error
		if cp, err = sweep.NewCheckpoint(*checkpointPath, label); err != nil {
			fatal(err)
		}
		cp.RecordObs = *checkpointObs
		runner.Progress = cp.Progress(runner.Progress)
	}
	stopTicker := startProgressTicker(reg, *progressEvery, *quiet)

	// Results fold into the accumulator as workers finish; only the
	// failed ones come back as a slice, for reporting. A resume streams
	// restored records from the checkpoint file as the accumulator
	// reaches them, never materialising them all at once.
	acc := newAccumulator()
	var failed []sweep.Result
	if *resume {
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
	rep := replicas
	if rep < 1 {
		rep = 1 // mirrors Grid.Expand's floor
	}
	// Points counted from the scenario list, not grid.Size(): chunk
	// mode collapses redundant baseline cells after expansion.
	base := fmt.Sprintf("Scenario sweep — %d scenarios, %d points, seed %d",
		len(scenarios), len(scenarios)/rep, seed)
	if shard.Count <= 1 {
		return base
	}
	return fmt.Sprintf("%s — shard %s (%d scenarios here)",
		base, shard, len(shard.Select(scenarios)))
}

// render writes the accumulator's aggregates in the requested format.
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
	default:
		fatal(fmt.Errorf("unknown format %q (known: table, csv, json)", format))
	}
}

type flowArgs struct {
	isps, policies, flows  string
	capacity, demand, size string
	lambda                 float64
	horizon                time.Duration
	seed                   int64
	replicas               int
	obs                    *obs.Registry
	trace                  *obs.Trace
}

// flowScenarios expands the flow-level grid: the workload seed at each
// point is derived from the point minus the policy axis, so every policy
// is measured on identical flows.
func flowScenarios(a flowArgs) []sweep.Scenario {
	capacity, err := units.ParseBitRate(a.capacity)
	if err != nil {
		fatal(err)
	}
	demand, err := units.ParseBitRate(a.demand)
	if err != nil {
		fatal(err)
	}
	meanSize, err := units.ParseByteSize(a.size)
	if err != nil {
		fatal(err)
	}

	isps := axis("isps", a.isps)
	for _, isp := range isps {
		if _, err := topo.BuildISP(topo.ISP(isp)); err != nil {
			fatal(fmt.Errorf("%w (known: %v)", err, topo.ISPs()))
		}
	}
	pols := axis("policies", a.policies)
	for _, p := range pols {
		if _, err := sweep.ParsePolicy(p); err != nil {
			fatal(err)
		}
	}
	flows := axis("flows", a.flows)
	for _, f := range flows {
		if n, err := strconv.Atoi(f); err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -flows entry %q: want a positive flow count", f))
		}
	}

	grid := sweep.NewGrid().
		Axis("isp", isps...).
		Axis("flows", flows...).
		Axis("policy", pols...).
		SeedAxes("isp", "flows")
	scenarios := grid.Expand(a.seed, a.replicas,
		func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
			n, _ := strconv.Atoi(pt.Get("flows"))
			spec := sweep.FlowSpec{
				ISP:        topo.ISP(pt.Get("isp")),
				Capacity:   capacity,
				Policy:     sweep.MustParsePolicy(pt.Get("policy")),
				Flows:      n,
				Lambda:     a.lambda,
				MeanSize:   meanSize,
				DemandCap:  demand,
				Horizon:    a.horizon,
				Obs:        a.obs,
				Trace:      a.trace,
				TraceLabel: sweep.ScenarioName(pt, replica),
			}
			return spec.Run(seed)
		})
	return scenarios
}

type chunkArgs struct {
	transports, acs, custody, transfers string
	ingress, egress, chunkSize, buffer  string
	outageKind, outageUps, outageDowns  string
	outageDownRate                      string
	losses, failovers                   string
	detourRate, correlated, maintenance string
	chunks                              int64
	horizon                             time.Duration
	seed                                int64
	replicas                            int
	obs                                 *obs.Registry
	trace                               *obs.Trace
}

// mustOutageKind parses -outage-kind or dies.
func mustOutageKind(s string) topo.OutageKind {
	kind, err := topo.ParseOutageKind(s)
	if err != nil {
		fatal(err)
	}
	return kind
}

// chunkScenarios expands the chunk-level grid over the custody bottleneck
// chain. The seed is derived from the transfers axis alone, so every
// transport/anticipation/custody combination sees identical start jitter
// at each load level and replica.
func chunkScenarios(a chunkArgs) []sweep.Scenario {
	ingress, err := units.ParseBitRate(a.ingress)
	if err != nil {
		fatal(err)
	}
	egress, err := units.ParseBitRate(a.egress)
	if err != nil {
		fatal(err)
	}
	chunkSize, err := units.ParseByteSize(a.chunkSize)
	if err != nil {
		fatal(err)
	}
	buffer, err := units.ParseByteSize(a.buffer)
	if err != nil {
		fatal(err)
	}

	if a.chunks < 0 {
		fatal(fmt.Errorf("bad -chunks %d: want a non-negative count (0 = default)", a.chunks))
	}
	transports := axis("transports", a.transports)
	for _, tr := range transports {
		if _, err := sweep.ParseTransport(tr); err != nil {
			fatal(err)
		}
	}
	acs := axis("anticipations", a.acs)
	for _, ac := range acs {
		if n, err := strconv.ParseInt(ac, 10, 64); err != nil || n < 0 {
			fatal(fmt.Errorf("bad -anticipations entry %q: want a non-negative window (0 = default)", ac))
		}
	}
	custodies := axis("custody", a.custody)
	for _, c := range custodies {
		if _, err := units.ParseByteSize(c); err != nil {
			fatal(fmt.Errorf("bad -custody entry %q: %w", c, err))
		}
	}
	transfers := axis("transfers", a.transfers)
	for _, n := range transfers {
		if v, err := strconv.Atoi(n); err != nil || v < 0 {
			fatal(fmt.Errorf("bad -transfers entry %q: want a non-negative count (0 = default)", n))
		}
	}
	outageKind := mustOutageKind(a.outageKind)
	var (
		outageUps, outageDowns []string
		outageDownRate         units.BitRate
	)
	if outageKind != topo.OutageNone {
		outageUps, outageDowns = axis("outage-up", a.outageUps), axis("outage-down", a.outageDowns)
		for _, d := range slices.Concat(outageUps, outageDowns) {
			if _, err := time.ParseDuration(d); err != nil {
				fatal(fmt.Errorf("bad outage duration %q: %w", d, err))
			}
		}
		if a.outageDownRate != "" {
			var err error
			if outageDownRate, err = units.ParseBitRate(a.outageDownRate); err != nil {
				fatal(fmt.Errorf("bad -outage-downrate: %w", err))
			}
		}
	}

	// Failure knobs, all validated here so a bad value dies at flag-parse
	// time instead of mid-sweep. Each axis only joins the grid when its
	// flag moves off the quiet default, keeping failure-free scenario
	// names, seeds and output bytes exactly as they were.
	losses := axis("loss", a.losses)
	lossAxis := false
	for _, l := range losses {
		p, err := strconv.ParseFloat(l, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -loss entry %q: %w", l, err))
		}
		if err := topo.ValidateLossProb(p); err != nil {
			fatal(fmt.Errorf("bad -loss entry %q: %w", l, err))
		}
		if p > 0 {
			lossAxis = true
		}
	}
	failovers := axis("failover", a.failovers)
	failoverAxis := false
	for _, f := range failovers {
		mode, err := chunknet.ParseFailoverMode(f)
		if err != nil {
			fatal(err)
		}
		if mode != chunknet.FailoverHold {
			failoverAxis = true
		}
	}
	var detourRate units.BitRate
	if a.detourRate != "" {
		var err error
		if detourRate, err = units.ParseBitRate(a.detourRate); err != nil {
			fatal(fmt.Errorf("bad -detour-rate: %w", err))
		}
	}
	if failoverAxis && detourRate == 0 {
		fatal(fmt.Errorf("-failover reroute/both needs a detour path: set -detour-rate"))
	}
	correlateds := axis("correlated", a.correlated)
	correlatedAxis := false
	for _, c := range correlateds {
		v, err := strconv.ParseBool(c)
		if err != nil {
			fatal(fmt.Errorf("bad -correlated entry %q: %w", c, err))
		}
		if v {
			correlatedAxis = true
		}
	}
	if correlatedAxis && detourRate == 0 {
		fatal(fmt.Errorf("-correlated groups the egress with the detour-return link: set -detour-rate"))
	}
	if correlatedAxis && outageKind == topo.OutageNone && a.maintenance == "" {
		fatal(fmt.Errorf("-correlated needs a failure process: set -outage-kind and/or -maintenance"))
	}
	var maintenance []topo.Window
	if a.maintenance != "" {
		var err error
		if maintenance, err = topo.ParseWindows(a.maintenance); err != nil {
			fatal(fmt.Errorf("bad -maintenance: %w", err))
		}
		if err := (topo.CalendarSpec{Windows: maintenance}).Validate(); err != nil {
			fatal(fmt.Errorf("bad -maintenance: %w", err))
		}
	}

	// The churn axes only exist when churn is on, so churn-free grids —
	// their scenario names, seeds and output bytes — stay exactly as they
	// were before outage support. Outage axes join the seed derivation:
	// every transport/ac/custody cell replays the identical outage trace
	// at each (up, down, transfers) point.
	grid := sweep.NewGrid().
		Axis("transport", transports...).
		Axis("ac", acs...).
		Axis("custody", custodies...).
		Axis("transfers", transfers...)
	seedAxes := []string{"transfers"}
	if outageKind != topo.OutageNone {
		grid.Axis("outage_up", outageUps...).
			Axis("outage_down", outageDowns...)
		seedAxes = append(seedAxes, "outage_up", "outage_down")
	}
	// The loss and correlation axes change the failure realization, so
	// they join the seed derivation; the failover axis must NOT — the
	// whole point is that every strategy replays the identical failure
	// trace.
	if lossAxis {
		grid.Axis("loss", losses...)
		seedAxes = append(seedAxes, "loss")
	}
	if correlatedAxis {
		grid.Axis("correlated", correlateds...)
		seedAxes = append(seedAxes, "correlated")
	}
	if failoverAxis {
		grid.Axis("failover", failovers...)
	}
	grid.SeedAxes(seedAxes...)
	scenarios := grid.Expand(a.seed, a.replicas,
		func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
			ac, _ := strconv.ParseInt(pt.Get("ac"), 10, 64)
			custody, _ := units.ParseByteSize(pt.Get("custody"))
			transfers, _ := strconv.Atoi(pt.Get("transfers"))
			spec := sweep.ChunkSpec{
				Transport:    sweep.MustParseTransport(pt.Get("transport")),
				IngressRate:  ingress,
				EgressRate:   egress,
				ChunkSize:    chunkSize,
				Anticipation: ac,
				Custody:      custody,
				Buffer:       buffer,
				Transfers:    transfers,
				Chunks:       a.chunks,
				Horizon:      a.horizon,
				DetourRate:   detourRate,
				Maintenance:  maintenance,
				Obs:          a.obs,
				Trace:        a.trace,
				TraceLabel:   sweep.ScenarioName(pt, replica),
			}
			if outageKind != topo.OutageNone {
				up, _ := time.ParseDuration(pt.Get("outage_up"))
				down, _ := time.ParseDuration(pt.Get("outage_down"))
				spec.Outage = topo.OutageSpec{
					Kind: outageKind, Up: up, Down: down, DownRate: outageDownRate,
				}
			}
			if lossAxis {
				spec.Loss, _ = strconv.ParseFloat(pt.Get("loss"), 64)
			}
			if correlatedAxis {
				spec.Correlated, _ = strconv.ParseBool(pt.Get("correlated"))
			}
			if failoverAxis {
				spec.Failover, _ = chunknet.ParseFailoverMode(pt.Get("failover"))
			}
			return spec.Run(seed)
		})

	// Anticipation, custody and failover are INRPP knobs: AIMD and ARC
	// would run byte-identically at every such cell. Baselines keep only
	// the first listed value of each, so wide INRPP grids don't multiply
	// baseline wall-clock (or duplicate their rows) for free.
	kept := scenarios[:0]
	for _, sc := range scenarios {
		if sc.Point.Get("transport") != "inrpp" {
			if sc.Point.Get("ac") != acs[0] || sc.Point.Get("custody") != custodies[0] {
				continue
			}
			if failoverAxis && sc.Point.Get("failover") != failovers[0] {
				continue
			}
		}
		kept = append(kept, sc)
	}
	return kept
}

// axis splits a comma-separated grid-axis flag, dying when it names no
// value: an empty axis would expand to a silent 0-scenario table.
func axis(flag, s string) []string {
	values := split(s)
	if len(values) == 0 {
		fatal(fmt.Errorf("-%s: empty list", flag))
	}
	return values
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
