// Package repro is a from-scratch Go reproduction of "Revisiting Resource
// Pooling: The Case for In-Network Resource Sharing" (Psaras, Saino,
// Pavlou — ACM HotNets-XIII, 2014): the In-Network Resource Pooling
// Principle (INRPP), its substrates, and every experiment in the paper.
//
// This root package is a thin facade over the implementation packages:
//
//   - internal/core     — the INRPP protocol logic (phases, eq. 1
//     estimator, detour planner, back-pressure, processor sharing);
//   - internal/topo     — graphs, generators and the nine calibrated
//     synthetic ISP topologies of Table 1;
//   - internal/route    — shortest paths, ECMP, k-shortest, detour
//     classification;
//   - internal/flowsim  — the flow-level simulator behind Figure 4;
//   - internal/chunknet — the chunk-level INRPP/AIMD simulator behind the
//     custody experiment;
//   - internal/experiments — one harness per paper artifact.
//
// See examples/ for runnable walkthroughs and cmd/experiments for the
// paper-vs-measured tables.
package repro

import (
	"context"
	"io"
	"net/http"

	"repro/internal/chunknet"
	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/topo"
	"repro/internal/units"
)

// Re-exported primary types. The aliases make the public API usable from
// a single import.
type (
	// Graph is an undirected capacitated topology.
	Graph = topo.Graph
	// ISP names one of the paper's nine Table 1 topologies.
	ISP = topo.ISP
	// BitRate is bits per second.
	BitRate = units.BitRate
	// ByteSize is an amount of data in bytes.
	ByteSize = units.ByteSize
	// FlowPolicy selects SP, ECMP or INRP in the flow-level simulator.
	FlowPolicy = flowsim.Policy
	// FlowConfig configures a flow-level run.
	FlowConfig = flowsim.Config
	// FlowResult is a flow-level run's outcome.
	FlowResult = flowsim.Result
	// ChunkConfig configures a chunk-level run.
	ChunkConfig = chunknet.Config
	// ChunkTransfer is one chunk-level content transfer.
	ChunkTransfer = chunknet.Transfer
	// ChunkReport is a chunk-level run's outcome.
	ChunkReport = chunknet.Report
	// DetourProfile is a topology's Table 1 row.
	DetourProfile = route.Profile
	// LinkOutage is a seeded churn process for a link: fixed or
	// exponential up/down cycles, with an optional degraded down-rate
	// (zero = hard outage). Attach per link with Graph.SetLinkOutage, or
	// graph-wide via ChunkConfig.Outage / ChunkSweepSpec.Outage.
	LinkOutage = topo.OutageSpec
	// LinkOutageKind selects the churn family (none, fixed, exp).
	LinkOutageKind = topo.OutageKind
	// LinkSRLG is a shared-risk link group: one seeded failure process
	// (and/or maintenance calendar) that takes every member link down
	// together. Attach with Graph.AddSRLG / Graph.MustAddSRLG.
	LinkSRLG = topo.SRLG
	// LinkCalendar is a scheduled-maintenance calendar for a link or
	// SRLG: exact absolute down-windows that consume no randomness.
	// Attach per link with Graph.SetLinkCalendar.
	LinkCalendar = topo.CalendarSpec
	// MaintenanceWindow is one [Start, End) down-window of a
	// LinkCalendar.
	MaintenanceWindow = topo.Window
	// ChunkFailoverMode selects what INRPP routers do with traffic whose
	// nominal arc is hard-down: hold in custody, reroute around the
	// outage, or both (ChunkConfig.Failover / ChunkSweepSpec.Failover).
	ChunkFailoverMode = chunknet.FailoverMode
	// ReportTable is a renderable text/CSV result table.
	ReportTable = report.Table

	// SweepGrid builds parameter grids for scenario sweeps.
	SweepGrid = sweep.Grid
	// SweepPoint is one parameter cell of a sweep grid.
	SweepPoint = sweep.Point
	// SweepScenario is one unit of sweep work.
	SweepScenario = sweep.Scenario
	// SweepResult is one scenario's outcome.
	SweepResult = sweep.Result
	// SweepMetrics is a scenario's measured values and sample sets.
	SweepMetrics = sweep.Metrics
	// SweepRunFunc executes one scenario.
	SweepRunFunc = sweep.RunFunc
	// SweepRunner executes scenarios on a bounded worker pool.
	SweepRunner = sweep.Runner
	// SweepAggregate summarises the replicas of one grid point.
	SweepAggregate = sweep.Aggregate
	// FlowSweepSpec is the reusable flow-level scenario recipe (topology +
	// workload + policy).
	FlowSweepSpec = sweep.FlowSpec
	// ChunkSweepSpec is the reusable chunk-level scenario recipe (custody
	// bottleneck chain + transport).
	ChunkSweepSpec = sweep.ChunkSpec
	// SweepCheckpoint streams completed scenario results to a JSONL file
	// so a killed sweep can resume from disk.
	SweepCheckpoint = sweep.Checkpoint
	// SweepShard selects one slice of the deterministic partition of an
	// expanded scenario grid, so a sweep can be split across machines and
	// recombined with MergeSweepCheckpointsInto.
	SweepShard = sweep.Shard
	// SweepAccumulator folds results into per-point aggregates as workers
	// finish, instead of materialising the full result slice first.
	SweepAccumulator = sweep.Accumulator
	// SweepAccumulatorConfig parameterises NewSweepAccumulator.
	SweepAccumulatorConfig = sweep.AccumulatorConfig
	// SweepAggMode selects the accumulator's representation: exact raw
	// pooling, bounded quantile sketches, or automatic cutover.
	SweepAggMode = sweep.AggMode
	// QuantileSketch is a mergeable bounded ε-approximate quantile summary
	// (Greenwald–Khanna).
	QuantileSketch = stats.GKSketch

	// SweepCoordinator pools worker capacity behind lease-based work
	// stealing: it holds one expanded grid, leases scenario batches over
	// HTTP with TTL + heartbeat renewal, deduplicates re-leased
	// submissions first-write-wins, checkpoints every result, and folds a
	// completed grid byte-identically to a single-host run.
	SweepCoordinator = sweepd.Coordinator
	// SweepCoordinatorConfig parameterises NewSweepCoordinator.
	SweepCoordinatorConfig = sweepd.Config
	// SweepWorkerConfig parameterises RunSweepWorker: the coordinator URL
	// plus the same expanded grid and configuration label the coordinator
	// holds.
	SweepWorkerConfig = sweepd.WorkerConfig

	// ObsRegistry is a named registry of allocation-conscious simulation
	// metrics (counters, gauges, histograms, sim-time samplers). A nil
	// registry disables instrumentation at near-zero cost; thread one
	// through FlowConfig/ChunkConfig/FlowSweepSpec/ChunkSweepSpec/
	// SweepRunner and snapshot it live.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time copy of a registry, renderable as
	// JSON or Prometheus text format.
	ObsSnapshot = obs.Snapshot
	// ObsCounter is a monotone atomic counter instrument.
	ObsCounter = obs.Counter
	// ObsGauge is a last-value atomic gauge instrument.
	ObsGauge = obs.Gauge
	// ObsTrace streams sampled sim-time events as JSONL for post-hoc
	// timeline analysis.
	ObsTrace = obs.Trace
	// ObsEvent is one record of an ObsTrace.
	ObsEvent = obs.Event
)

// Common rate and size constants.
const (
	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
	KB   = units.KB
	MB   = units.MB
	GB   = units.GB
)

// Flow-level policies (Figure 4 legend).
const (
	SP   = flowsim.SP
	ECMP = flowsim.ECMP
	INRP = flowsim.INRP
)

// Chunk-level transports.
const (
	INRPP = chunknet.INRPP
	AIMD  = chunknet.AIMD
	ARC   = chunknet.ARC
)

// Sweep aggregation modes.
const (
	// SweepAggExact pools every raw sample — byte-identical to the batch
	// AggregateSweep path.
	SweepAggExact = sweep.AggExact
	// SweepAggSketch holds bounded quantile sketches: O(sketch) memory per
	// grid point regardless of replica and sample counts.
	SweepAggSketch = sweep.AggSketch
	// SweepAggAuto starts exact and cuts over to sketches past the
	// configured sample budget.
	SweepAggAuto = sweep.AggAuto
)

// ISPs lists the nine Table 1 topologies.
func ISPs() []ISP { return topo.ISPs() }

// BuildISP synthesizes the named ISP's calibrated topology.
func BuildISP(isp ISP) (*Graph, error) { return topo.BuildISP(isp) }

// Fig3Topology returns the paper's Figure 3 example topology.
func Fig3Topology() *Graph { return topo.Fig3() }

// AnalyzeDetours classifies every link of g by its shortest alternative
// path — one row of Table 1.
func AnalyzeDetours(g *Graph) DetourProfile { return route.Analyze(g) }

// RunFlows executes a flow-level simulation (Figure 4 machinery).
func RunFlows(cfg FlowConfig) (*FlowResult, error) { return flowsim.Run(cfg) }

// NewChunkSim builds a chunk-level INRPP/AIMD simulation.
func NewChunkSim(cfg ChunkConfig) (*chunknet.Sim, error) { return chunknet.New(cfg) }

// NewSweepGrid returns an empty sweep parameter grid.
func NewSweepGrid() *SweepGrid { return sweep.NewGrid() }

// ParseFlowPolicy maps "sp"/"ecmp"/"inrp" (any case) to a FlowPolicy.
func ParseFlowPolicy(s string) (FlowPolicy, error) { return sweep.ParsePolicy(s) }

// MustParseFlowPolicy is ParseFlowPolicy for known-good axis values.
func MustParseFlowPolicy(s string) FlowPolicy { return sweep.MustParsePolicy(s) }

// DeriveSweepSeed hashes (master, key, replica) into an independent
// deterministic scenario seed.
func DeriveSweepSeed(master int64, key string, replica int) int64 {
	return sweep.DeriveSeed(master, key, replica)
}

// ParseChunkTransport maps "inrpp"/"aimd"/"arc" (any case) to a chunk
// transport.
func ParseChunkTransport(s string) (chunknet.Transport, error) { return sweep.ParseTransport(s) }

// MustParseChunkTransport is ParseChunkTransport for known-good axis
// values.
func MustParseChunkTransport(s string) chunknet.Transport { return sweep.MustParseTransport(s) }

// RunSweep executes scenarios on a worker pool (workers ≤ 0 means
// GOMAXPROCS). Results come back in scenario order at any worker count.
func RunSweep(ctx context.Context, workers int, scenarios []SweepScenario) []SweepResult {
	return (&sweep.Runner{Workers: workers}).Run(ctx, scenarios)
}

// ResumeSweep re-executes exactly the scenarios whose prior result
// carries an error (a cancelled run, or ErrNotRun placeholders from
// LoadSweepCheckpoint) and returns the patched result set.
func ResumeSweep(ctx context.Context, workers int, scenarios []SweepScenario, prior []SweepResult) []SweepResult {
	return (&sweep.Runner{Workers: workers}).Resume(ctx, scenarios, prior)
}

// NewSweepCheckpoint opens (or appends to) a JSONL sweep checkpoint. A
// non-empty label binds the file to the sweep's non-axis configuration;
// reopening under a different label fails.
func NewSweepCheckpoint(path, label string) (*SweepCheckpoint, error) {
	return sweep.NewCheckpoint(path, label)
}

// LoadSweepCheckpoint aligns a checkpoint file to a scenario list: one
// result per scenario, restored from disk or marked not-yet-run for
// ResumeSweep to execute. Files from a different grid, master seed or
// config label are rejected.
func LoadSweepCheckpoint(path, label string, scenarios []SweepScenario) ([]SweepResult, int, error) {
	return sweep.LoadCheckpoint(path, label, scenarios)
}

// ParseSweepShard parses the "index/count" form (0-based, e.g. "1/3")
// into a SweepShard.
func ParseSweepShard(s string) (SweepShard, error) { return sweep.ParseShard(s) }

// RunSweepShard executes only the scenarios the shard owns (the rest
// come back marked as another shard's and are excluded from
// aggregation), so N machines can each run one slice of the same grid.
func RunSweepShard(ctx context.Context, workers int, shard SweepShard, scenarios []SweepScenario) []SweepResult {
	return (&sweep.Runner{Workers: workers, Shard: shard}).Run(ctx, scenarios)
}

// SweepResultSkipped reports whether a result marks a scenario this
// process never executed — another shard's scenario or an unrestored
// checkpoint placeholder — as opposed to one that ran and failed.
func SweepResultSkipped(r SweepResult) bool { return sweep.Skipped(r) }

// AggregateSweep groups results by grid point and accumulates replica
// metrics.
func AggregateSweep(results []SweepResult) []SweepAggregate {
	return sweep.Aggregated(results)
}

// NewSweepAccumulator returns a streaming accumulator for exactly the given
// scenario list: results fold into per-point aggregates as they are
// observed, in scenario order whatever the arrival order. In
// SweepAggExact mode its aggregates render byte-identically to
// AggregateSweep; in SweepAggSketch mode per-point memory stays bounded
// and percentile queries answer within the sketches' documented error.
func NewSweepAccumulator(cfg SweepAccumulatorConfig, scenarios []SweepScenario) *SweepAccumulator {
	return sweep.NewAccumulator(cfg, scenarios)
}

// ParseSweepAggMode maps "exact"/"sketch"/"auto" (any case) to a
// SweepAggMode.
func ParseSweepAggMode(s string) (SweepAggMode, error) { return sweep.ParseAggMode(s) }

// AccumulateSweep executes scenarios on a worker pool, folding every
// result into acc as workers finish instead of materialising the result
// slice. It returns only the results that ran and failed.
func AccumulateSweep(ctx context.Context, workers int, scenarios []SweepScenario, acc *SweepAccumulator) ([]SweepResult, error) {
	return (&sweep.Runner{Workers: workers}).Accumulate(ctx, scenarios, acc)
}

// ResumeAccumulateSweep is AccumulateSweep over a prior result set (a
// loaded checkpoint, or a cancelled run): restored results feed the
// accumulator, errored ones re-execute.
func ResumeAccumulateSweep(ctx context.Context, workers int, scenarios []SweepScenario, prior []SweepResult, acc *SweepAccumulator) ([]SweepResult, error) {
	return (&sweep.Runner{Workers: workers}).ResumeAccumulate(ctx, scenarios, prior, acc)
}

// MergeSweepCheckpointsInto combines per-shard checkpoint files into acc
// without executing any scenario — validating that every file comes from
// the same grid, master seed and config label, rejecting overlapping
// shard sets, and failing with an error naming the missing scenarios when
// coverage is incomplete. Records are re-read one at a time in scenario
// order, so the aggregates match an unsharded run byte for byte, and a
// sketch-mode merge of arbitrarily many shards aggregates in bounded
// memory.
func MergeSweepCheckpointsInto(acc *SweepAccumulator, label string, scenarios []SweepScenario, paths ...string) error {
	return sweep.MergeCheckpointsInto(acc, label, scenarios, paths...)
}

// NewQuantileSketch returns an empty mergeable quantile sketch with the
// given rank-error fraction (eps ≤ 0 selects the 1% default).
func NewQuantileSketch(eps float64) *QuantileSketch { return stats.NewGKSketch(eps) }

// NewSweepCoordinator opens (or resumes) the coordinator's checkpoint
// and returns a sweep-service coordinator ready to lease the grid; serve
// its Handler over HTTP and FoldInto an accumulator once Complete.
func NewSweepCoordinator(cfg SweepCoordinatorConfig) (*SweepCoordinator, error) {
	return sweepd.NewCoordinator(cfg)
}

// RunSweepWorker loops lease → run → submit against a sweep-service
// coordinator until the grid completes (nil), ctx cancels, or the
// coordinator rejects the worker's configuration.
func RunSweepWorker(ctx context.Context, cfg SweepWorkerConfig) error {
	return sweepd.RunWorker(ctx, cfg)
}

// NewObsRegistry returns an empty named metrics registry. Instruments
// are created on first use and harvested with Snapshot.
func NewObsRegistry(name string) *ObsRegistry { return obs.New(name) }

// NewObsTrace returns a sim-time event trace writing JSONL to w, keeping
// 1 in every events per event kind (every ≤ 1 keeps all).
func NewObsTrace(w io.Writer, every int) *ObsTrace { return obs.NewTrace(w, every) }

// ObsHandler serves live snapshots of reg over HTTP: GET /metrics in
// Prometheus text format, GET /snapshot as JSON.
func ObsHandler(reg *ObsRegistry) http.Handler { return obs.Handler(reg) }

// SweepTable renders aggregates as a mean±std table.
func SweepTable(title string, aggs []SweepAggregate, metrics ...string) *ReportTable {
	return sweep.Table(title, aggs, metrics...)
}

// SweepCSV renders aggregates as CSV with mean/std columns per metric.
func SweepCSV(w io.Writer, aggs []SweepAggregate, metrics ...string) error {
	return sweep.CSV(w, aggs, metrics...)
}

// SweepJSON renders aggregates as a deterministic JSON array.
func SweepJSON(w io.Writer, aggs []SweepAggregate) error {
	return sweep.JSON(w, aggs)
}

// Experiment entry points, re-exported from internal/experiments.
var (
	// Table1 regenerates the paper's Table 1.
	Table1 = experiments.Table1
	// Fig4 regenerates Figures 4a and 4b.
	Fig4 = experiments.Fig4
	// Fig3Fairness regenerates the Figure 3 fairness example.
	Fig3Fairness = experiments.Fig3
	// Custody regenerates the §3.3 custody/back-pressure experiment.
	Custody = experiments.Custody
	// Disruption runs the link-churn experiment: completion time vs
	// outage rate per transport on the churned custody chain.
	Disruption = experiments.Disruption
	// Failover runs the failover-replanning experiment: failure profile ×
	// correlation × custody × recovery strategy on the custody diamond.
	Failover = experiments.Failover
)

// Link churn process kinds (LinkOutage.Kind).
const (
	OutageNone  = topo.OutageNone
	OutageFixed = topo.OutageFixed
	OutageExp   = topo.OutageExp
)

// Failover recovery strategies (ChunkConfig.Failover).
const (
	FailoverHold    = chunknet.FailoverHold
	FailoverReroute = chunknet.FailoverReroute
	FailoverBoth    = chunknet.FailoverBoth
)

// DisruptionConfig parameterises the Disruption experiment.
type DisruptionConfig = experiments.DisruptionConfig

// DisruptionReport renders the disruption result as a table.
func DisruptionReport(r *experiments.DisruptionResult) *ReportTable {
	return experiments.DisruptionReport(r)
}

// FailoverConfig parameterises the Failover experiment.
type FailoverConfig = experiments.FailoverConfig

// FailoverReport renders the failover frontier as a table.
func FailoverReport(r *experiments.FailoverResult) *ReportTable {
	return experiments.FailoverReport(r)
}

// ParseLinkOutageKind decodes "none", "fixed" or "exp".
func ParseLinkOutageKind(s string) (LinkOutageKind, error) {
	return topo.ParseOutageKind(s)
}

// ParseChunkFailoverMode decodes "hold", "reroute" or "both".
func ParseChunkFailoverMode(s string) (ChunkFailoverMode, error) {
	return chunknet.ParseFailoverMode(s)
}

// ParseMaintenanceWindows decodes a semicolon-separated list of
// "start-end" duration pairs (e.g. "1s-2s;4s-5s") into calendar windows.
func ParseMaintenanceWindows(s string) ([]MaintenanceWindow, error) {
	return topo.ParseWindows(s)
}
