package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

// DisruptionConfig parameterises the link-disruption experiment: the
// custody bottleneck chain with a churned egress link, swept over outage
// rate × transport. It produces the completion-time-vs-outage-rate
// comparison — the regime (PAPERS.md's wireless resource-pooling line)
// where in-network custody should beat end-to-end retransmission
// hardest, because a custodian holds chunks through an outage the
// end-to-end loops can only rediscover by timeout.
type DisruptionConfig struct {
	// IngressRate and EgressRate set the bottleneck chain (defaults
	// 10Gbps → 2Gbps; ingress is kept moderate so the store survives
	// long horizons without filling on its own).
	IngressRate units.BitRate
	EgressRate  units.BitRate
	// Custody is the INRPP custody budget at the router (default 10GB).
	Custody units.ByteSize
	// Buffer is the AIMD/ARC drop-tail buffer (default 25MB).
	Buffer units.ByteSize
	// ChunkSize (default 10MB).
	ChunkSize units.ByteSize
	// Chunks per transfer (default 500 = 5GB offered).
	Chunks int64
	// Horizon bounds each run (default 60s — outages stretch completion
	// times far beyond the undisrupted transfer time).
	Horizon time.Duration

	// OutageUps is the outage-rate axis: mean up-phase durations, one
	// grid column each (rate = 1/up). Default 8s, 4s, 2s, 1s.
	OutageUps []time.Duration
	// OutageDown is the mean down-phase duration (default 500ms). Every
	// outage is exponential and hard: it pauses the arc and drops
	// in-flight packets.
	OutageDown time.Duration

	// Seeds is the number of churn realizations per grid point (default
	// 3). Transports share seeds per (outage, replica), so each
	// comparison sees an identical outage trace.
	Seeds int
}

func (c *DisruptionConfig) applyDefaults() {
	if c.IngressRate == 0 {
		c.IngressRate = 10 * units.Gbps
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
		c.Chunks = 500
	}
	if c.Horizon == 0 {
		c.Horizon = 60 * time.Second
	}
	if len(c.OutageUps) == 0 {
		c.OutageUps = []time.Duration{8 * time.Second, 4 * time.Second, 2 * time.Second, time.Second}
	}
	if c.OutageDown == 0 {
		c.OutageDown = 500 * time.Millisecond
	}
	if c.Seeds == 0 {
		c.Seeds = 3
	}
}

// DisruptionRow is one (outage rate, transport) cell of the result.
type DisruptionRow struct {
	// OutageUp is the mean up-phase duration; 1/OutageUp is the outage
	// rate this row sits at.
	OutageUp  time.Duration
	Transport string

	// CompletedShare is the mean fraction of transfers that finished
	// inside the horizon; MeanCompletionS averages the completion times
	// of those that did (0 when none completed — the stall signature).
	CompletedShare  float64
	MeanCompletionS float64
	DeliveredShare  float64
	Retransmits     float64
	LostInFlight    float64
	Requeued        float64
	ArcDownS        float64
}

// Completed reports whether this cell's transfers all finished within
// the horizon on average.
func (r DisruptionRow) Completed() bool { return r.CompletedShare >= 1 }

// DisruptionResult is the experiment outcome: rows in grid order (outage
// axis outer, transport inner), ready to plot completion time against
// outage rate per transport.
type DisruptionResult struct {
	Rows []DisruptionRow
}

// Disruption runs the experiment on the sweep engine: each transport
// pushes identical transfers through the custody chain while the egress
// link churns under a seeded outage process, once per (outage rate,
// transport, seed).
func Disruption(cfg DisruptionConfig) (*DisruptionResult, error) {
	cfg.applyDefaults()
	aggs, failed, err := runExperiment(disruptionScenarios(cfg))
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("disruption %w", failed[0].Err)
	}
	return disruptionCollect(cfg, aggs)
}

// disruptionScenarios expands the outage × transport grid. Seeds derive
// from the outage axis only, so every transport replays the same churn
// trace at each (outage, replica) — the comparison isolates the
// transport. cfg must already have defaults applied.
func disruptionScenarios(cfg DisruptionConfig) []sweep.Scenario {
	ups := make([]string, len(cfg.OutageUps))
	for i, up := range cfg.OutageUps {
		ups[i] = up.String()
	}
	grid := sweep.NewGrid().
		Axis("outage_up", ups...).
		Axis("transport", "inrpp", "aimd", "arc").
		SeedAxes("outage_up")
	return grid.Expand(0, cfg.Seeds, func(pt sweep.Point, _ int, seed int64) sweep.RunFunc {
		up, err := time.ParseDuration(pt.Get("outage_up"))
		if err != nil {
			panic(fmt.Sprintf("experiments: bad outage_up %q: %v", pt.Get("outage_up"), err))
		}
		s := sweep.ChunkSpec{
			IngressRate:  cfg.IngressRate,
			EgressRate:   cfg.EgressRate,
			ChunkSize:    cfg.ChunkSize,
			Anticipation: 4096,
			Custody:      cfg.Custody,
			Buffer:       cfg.Buffer,
			Transfers:    1,
			Chunks:       cfg.Chunks,
			Horizon:      cfg.Horizon,
			Ti:           50 * time.Millisecond,
			Outage:       topo.OutageSpec{Kind: topo.OutageExp, Up: up, Down: cfg.OutageDown},
			Transport:    sweep.MustParseTransport(pt.Get("transport")),
		}
		return s.Run(seed)
	})
}

// disruptionCollect folds per-point aggregates into result rows.
func disruptionCollect(cfg DisruptionConfig, aggs []sweep.Aggregate) (*DisruptionResult, error) {
	res := &DisruptionResult{}
	for _, a := range aggs {
		up, err := time.ParseDuration(a.Point.Get("outage_up"))
		if err != nil {
			return nil, fmt.Errorf("experiments: bad outage_up in aggregate: %w", err)
		}
		row := DisruptionRow{
			OutageUp:       up,
			Transport:      a.Point.Get("transport"),
			DeliveredShare: a.Mean("delivered_share"),
			Retransmits:    a.Mean("retransmits"),
			LostInFlight:   a.Mean("lost_inflight"),
			Requeued:       a.Mean("requeued"),
			ArcDownS:       a.Mean("arc_down_s"),
		}
		if a.Replicas > 0 {
			row.CompletedShare = a.Mean("completed")
		}
		// Pool completion times over the replicas that finished; a cell
		// where nothing completed keeps 0 and reads as a stall.
		if xs := a.Samples["completion_s"]; len(xs) > 0 {
			var sum float64
			for _, x := range xs {
				sum += x
			}
			row.MeanCompletionS = sum / float64(len(xs))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// DisruptionReport renders the completion-time-vs-outage-rate figure as
// a table: one block per outage rate, one row per transport.
func DisruptionReport(r *DisruptionResult) *report.Table {
	t := report.New("link disruption — completion time vs outage rate",
		"outage", "transport", "completed", "mean fct (s)", "delivered", "lost in-flight", "requeued")
	for _, row := range r.Rows {
		fct := "stalled"
		if row.MeanCompletionS > 0 {
			fct = report.F3(row.MeanCompletionS)
		}
		t.AddRow(
			fmt.Sprintf("up=%s", row.OutageUp),
			row.Transport,
			report.F3(row.CompletedShare),
			fct,
			report.F3(row.DeliveredShare),
			report.F3(row.LostInFlight),
			report.F3(row.Requeued),
		)
	}
	return t
}
