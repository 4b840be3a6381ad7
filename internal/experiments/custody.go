package experiments

import (
	"fmt"
	"time"

	"repro/internal/chunknet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/units"
)

// CustodyPaper captures the §3.3 sizing claim: "a 10GB cache after a
// 40Gbps link can hold incoming traffic for 2 seconds".
var CustodyPaper = struct {
	Cache    units.ByteSize
	LinkRate units.BitRate
	HoldSecs float64
}{Cache: 10 * units.GB, LinkRate: 40 * units.Gbps, HoldSecs: 2}

// CustodyConfig parameterises the custody/back-pressure experiment.
type CustodyConfig struct {
	// IngressRate and EgressRate set the bottleneck chain: src →(ingress)
	// router →(egress) receiver. Defaults: 40Gbps → 2Gbps.
	IngressRate units.BitRate
	EgressRate  units.BitRate
	// Custody is the INRPP custody budget at the router (default 10GB).
	Custody units.ByteSize
	// Buffer is the AIMD/ARC drop-tail buffer (default 25MB, a typical
	// BDP-scale buffer).
	Buffer units.ByteSize
	// ChunkSize (default 10MB — coarse, to keep paper-scale runs fast).
	ChunkSize units.ByteSize
	// Chunks per transfer (default 2000 = 20GB offered).
	Chunks int64
	// Horizon (default 5s).
	Horizon time.Duration
	// Workers bounds the sweep parallelism (default GOMAXPROCS). The
	// outcome is identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, streams every completed scenario to
	// this JSONL file and restores scenarios already present before
	// running, so a killed run resumes instead of restarting.
	Checkpoint string
	// Obs and Trace thread observability into every scenario (see
	// sweep.ChunkSpec); each scenario traces under its canonical sweep
	// name. Metrics never change the result.
	Obs   *obs.Registry
	Trace *obs.Trace
}

func (c *CustodyConfig) applyDefaults() {
	if c.IngressRate == 0 {
		c.IngressRate = 40 * units.Gbps
	}
	if c.EgressRate == 0 {
		c.EgressRate = 2 * units.Gbps
	}
	if c.Custody == 0 {
		c.Custody = 10 * units.GB
	}
	if c.Buffer == 0 {
		c.Buffer = 25 * units.MB
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 10 * units.MB
	}
	if c.Chunks == 0 {
		c.Chunks = 2000
	}
	if c.Horizon == 0 {
		c.Horizon = 5 * time.Second
	}
}

// Spec translates the config into the sweep.ChunkSpec recipe the
// experiment's grid scenarios share; the transport is set per grid point.
func (c CustodyConfig) Spec() sweep.ChunkSpec {
	return sweep.ChunkSpec{
		IngressRate:  c.IngressRate,
		EgressRate:   c.EgressRate,
		ChunkSize:    c.ChunkSize,
		Anticipation: 4096,
		Custody:      c.Custody,
		Buffer:       c.Buffer,
		Transfers:    1,
		Chunks:       c.Chunks,
		Horizon:      c.Horizon,
		Ti:           50 * time.Millisecond,
	}
}

// CustodyResult compares INRPP custody against the drop-tail baselines
// on the same bottleneck chain.
type CustodyResult struct {
	// HoldSeconds is the analytic absorption horizon cache/linkRate —
	// the quantity the paper quotes as 2 s.
	HoldSeconds float64

	INRPP CustodyRun
	AIMD  CustodyRun
	// ARC is the receiver-driven request-control baseline: pull like
	// INRPP, but end-to-end probing like AIMD — it isolates how much of
	// the custody win comes from in-network storage.
	ARC CustodyRun
}

// CustodyRun is one transport's outcome.
type CustodyRun struct {
	Delivered      int64
	Dropped        int64
	Retransmits    int64
	CustodyPeak    units.ByteSize
	MeanResidencyS float64
	Backpressure   int
	ClosedLoop     int
}

// Custody runs the experiment on the sweep engine: an aggressive push
// into a bottleneck, once per transport on the transport axis of a
// chunknet grid — INRPP custody+back-pressure against the AIMD and ARC
// drop-tail baselines, all under identical offered load. With
// cfg.Checkpoint set, completed scenarios stream to disk and a rerun
// resumes instead of restarting.
func Custody(cfg CustodyConfig) (*CustodyResult, error) {
	cfg.applyDefaults()
	aggs, failed, err := runExperiment(cfg.Workers, cfg.Obs, cfg.Checkpoint, custodyLabel(cfg), custodyScenarios(cfg))
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("custody %w", failed[0].Err)
	}
	return custodyCollect(cfg, aggs)
}

// custodyScenarios expands the transport grid. cfg must already have
// defaults applied.
func custodyScenarios(cfg CustodyConfig) []sweep.Scenario {
	spec := cfg.Spec()
	grid := sweep.NewGrid().Axis("transport", "inrpp", "aimd", "arc")
	return grid.Expand(0, 1, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		s := spec
		s.Transport = sweep.MustParseTransport(pt.Get("transport"))
		s.Obs = cfg.Obs
		s.Trace = cfg.Trace
		s.TraceLabel = sweep.ScenarioName(pt, replica)
		return s.Run(seed)
	})
}

// custodyLabel derives the checkpoint config label: every non-axis
// parameter that changes the physics of the chain.
func custodyLabel(cfg CustodyConfig) string {
	return fmt.Sprintf("custody ingress=%s egress=%s custody=%s buffer=%s chunksize=%s chunks=%d horizon=%s",
		cfg.IngressRate, cfg.EgressRate, cfg.Custody, cfg.Buffer, cfg.ChunkSize, cfg.Chunks, cfg.Horizon)
}

// custodyCollect folds per-point aggregates into the experiment's
// comparison.
func custodyCollect(cfg CustodyConfig, aggs []sweep.Aggregate) (*CustodyResult, error) {
	res := &CustodyResult{
		HoldSeconds: cfg.IngressRate.TransmissionTime(cfg.Custody).Seconds(),
	}
	for _, a := range aggs {
		run := CustodyRun{
			Delivered:      int64(a.Mean("delivered")),
			Dropped:        int64(a.Mean("dropped")),
			Retransmits:    int64(a.Mean("retransmits")),
			CustodyPeak:    units.ByteSize(a.Mean("custody_peak_bytes")),
			MeanResidencyS: a.Mean("residency_mean_s"),
			Backpressure:   int(a.Mean("backpressure")),
			ClosedLoop:     int(a.Mean("closed_loop")),
		}
		switch sweep.MustParseTransport(a.Point.Get("transport")) {
		case chunknet.INRPP:
			res.INRPP = run
		case chunknet.AIMD:
			res.AIMD = run
		case chunknet.ARC:
			res.ARC = run
		}
	}
	return res, nil
}

// CustodyReport renders the experiment.
func CustodyReport(r *CustodyResult) *report.Table {
	c := &report.Comparison{Name: "§3.3 custody — 10GB cache behind a 40Gbps link"}
	c.Add("absorption horizon", CustodyPaper.HoldSecs, r.HoldSeconds, "s")
	c.Add("INRPP drops", 0, float64(r.INRPP.Dropped), "chunks")
	t := c.Table()
	t.AddRow("INRPP delivered", "", report.F3(float64(r.INRPP.Delivered)), "", "chunks")
	t.AddRow("INRPP custody peak", "", r.INRPP.CustodyPeak.String(), "", "")
	t.AddRow("INRPP mean residency", "", report.F3(r.INRPP.MeanResidencyS), "", "s")
	t.AddRow("INRPP back-pressure msgs", "", report.F3(float64(r.INRPP.Backpressure)), "", "")
	t.AddRow("AIMD delivered", "", report.F3(float64(r.AIMD.Delivered)), "", "chunks")
	t.AddRow("AIMD drops", "", report.F3(float64(r.AIMD.Dropped)), "", "chunks")
	t.AddRow("AIMD retransmits", "", report.F3(float64(r.AIMD.Retransmits)), "", "")
	t.AddRow("ARC delivered", "", report.F3(float64(r.ARC.Delivered)), "", "chunks")
	t.AddRow("ARC drops", "", report.F3(float64(r.ARC.Dropped)), "", "chunks")
	t.AddRow("ARC re-requests", "", report.F3(float64(r.ARC.Retransmits)), "", "")
	return t
}
