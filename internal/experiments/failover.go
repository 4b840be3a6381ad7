package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/chunknet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

// FailoverProfile is one failure regime of the failover experiment: a
// detour of a given capacity beside the bottleneck, plus the failure
// process (stochastic churn, scheduled maintenance, or both) that takes
// the bottleneck down. The two default profiles bracket the recovery
// frontier: "blackout" (permanent failure, full-rate detour) is the
// regime where rerouting saves the transfer, "flutter" (rapid hard
// churn, thin detour) the regime where custody-and-wait wins because
// rerouting keeps committing chunks to a path that can't carry them.
type FailoverProfile struct {
	Name        string
	DetourRate  units.BitRate
	Outage      topo.OutageSpec
	Maintenance []topo.Window
}

// FailoverConfig parameterises the failover-replanning experiment: the
// custody diamond (chain plus a detour node beside the bottleneck),
// swept over failure profile × correlation × custody budget × recovery
// strategy. Strategies at one (profile, correlation) point share seeds,
// so each comparison replays the identical failure trace and the result
// isolates the recovery policy.
type FailoverConfig struct {
	// IngressRate and EgressRate set the chain links (defaults 800Mbps →
	// 1Gbps). The ingress rate is also the INRPP request pacing, and the
	// default keeps it below the bottleneck so the interface never enters
	// the congestion detour phase — only failover policy distinguishes
	// the strategies.
	IngressRate units.BitRate
	EgressRate  units.BitRate
	// Buffer is the AIMD/ARC drop-tail buffer — unused by the default
	// all-INRPP grid but kept so the spec stays fully determined.
	Buffer units.ByteSize
	// ChunkSize (default 1MB) and Chunks per transfer (default 300 =
	// 300MB offered).
	ChunkSize units.ByteSize
	Chunks    int64
	// Horizon bounds each run (default 15s — long enough for
	// custody-and-wait to ride out flutter, short enough that a transfer
	// trapped on the thin detour cannot finish).
	Horizon time.Duration

	// Custodies is the custody-budget axis (default 32MB, 1GB: one
	// budget back-pressure saturates mid-run, one that absorbs the whole
	// transfer).
	Custodies []units.ByteSize
	// Strategies is the recovery-strategy axis (default hold, reroute,
	// both).
	Strategies []chunknet.FailoverMode
	// Correlations is the failure-correlation axis (default false, true).
	// A correlated cell groups the bottleneck and the detour's return
	// link into one SRLG, so the escape route fails with the nominal
	// path — the regime where no recovery strategy can win.
	Correlations []bool
	// Profiles lists the failure regimes (default blackout + flutter,
	// scaled to the chain rates).
	Profiles []FailoverProfile

	// Seeds is the number of failure realizations per grid point
	// (default 1 — the default profiles are deterministic, so extra
	// seeds replay identical runs).
	Seeds int
	// Workers bounds the sweep parallelism (default GOMAXPROCS). The
	// outcome is identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, streams completed scenarios to this
	// JSONL file and restores them on rerun.
	Checkpoint string
	// Obs and Trace thread observability into every scenario.
	Obs   *obs.Registry
	Trace *obs.Trace
}

func (c *FailoverConfig) applyDefaults() {
	if c.IngressRate == 0 {
		c.IngressRate = 800 * units.Mbps
	}
	if c.EgressRate == 0 {
		c.EgressRate = units.Gbps
	}
	if c.Buffer == 0 {
		c.Buffer = 25 * units.MB
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = units.MB
	}
	if c.Chunks == 0 {
		c.Chunks = 300
	}
	if c.Horizon == 0 {
		c.Horizon = 15 * time.Second
	}
	if len(c.Custodies) == 0 {
		c.Custodies = []units.ByteSize{32 * units.MB, units.GB}
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []chunknet.FailoverMode{
			chunknet.FailoverHold, chunknet.FailoverReroute, chunknet.FailoverBoth,
		}
	}
	if len(c.Correlations) == 0 {
		c.Correlations = []bool{false, true}
	}
	if len(c.Profiles) == 0 {
		c.Profiles = []FailoverProfile{
			{
				// The bottleneck dies at 1s and stays down past any
				// horizon; the detour carries the full chain rate.
				Name:       "blackout",
				DetourRate: c.EgressRate,
				Maintenance: []topo.Window{
					{Start: time.Second, End: 10 * time.Minute},
				},
			},
			{
				// Rapid hard flutter (37.5% duty cycle) with only a
				// twentieth-rate detour: riding the duty cycle sustains
				// 3×EgressRate/8, the detour only EgressRate/20.
				Name:       "flutter",
				DetourRate: c.EgressRate / 20,
				Outage: topo.OutageSpec{
					Kind: topo.OutageFixed,
					Up:   300 * time.Millisecond,
					Down: 500 * time.Millisecond,
				},
			},
		}
	}
	if c.Seeds == 0 {
		c.Seeds = 1
	}
}

// FailoverRow is one (profile, correlation, custody, strategy) cell of
// the result.
type FailoverRow struct {
	Profile    string
	Correlated bool
	Custody    units.ByteSize
	Strategy   chunknet.FailoverMode

	// CompletedShare is the mean fraction of transfers that finished
	// inside the horizon; MeanCompletionS averages the completion times
	// of those that did (0 when none completed — the stall signature).
	CompletedShare  float64
	MeanCompletionS float64
	DeliveredShare  float64
	DetourFailovers float64
	Evacuated       float64
	CustodyPeak     float64
	ArcDownS        float64
}

// Completed reports whether this cell's transfers all finished within
// the horizon on average.
func (r FailoverRow) Completed() bool { return r.CompletedShare >= 1 }

// FailoverResult is the experiment outcome: rows in grid order (profile
// outermost, then correlation, custody, strategy), ready to read as the
// recovery-strategy frontier.
type FailoverResult struct {
	Rows []FailoverRow
}

// Row returns the cell at the given coordinates, or false when that
// point was not part of the run (an axis value outside the config).
func (r *FailoverResult) Row(profile string, correlated bool, custody units.ByteSize, strategy chunknet.FailoverMode) (FailoverRow, bool) {
	for _, row := range r.Rows {
		if row.Profile == profile && row.Correlated == correlated &&
			row.Custody == custody && row.Strategy == strategy {
			return row, true
		}
	}
	return FailoverRow{}, false
}

// Failover runs the failover-replanning experiment on the sweep engine:
// every recovery strategy pushes an identical transfer through the
// custody diamond while the bottleneck fails under each profile's seeded
// process, once per (profile, correlation, custody, strategy, seed).
// With cfg.Checkpoint set, completed scenarios stream to disk and a
// rerun resumes instead of restarting.
func Failover(cfg FailoverConfig) (*FailoverResult, error) {
	cfg.applyDefaults()
	aggs, failed, err := runExperiment(cfg.Workers, cfg.Obs, cfg.Checkpoint, failoverLabel(cfg), failoverScenarios(cfg))
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("failover %w", failed[0].Err)
	}
	return failoverCollect(cfg, aggs)
}

// failoverScenarios expands the profile × correlation × custody ×
// strategy grid. Seeds derive from the profile and correlation axes
// only, so every (custody, strategy) combination replays the same
// failure trace at each (profile, correlation, replica) — the comparison
// isolates the recovery policy. cfg must already have defaults applied.
func failoverScenarios(cfg FailoverConfig) []sweep.Scenario {
	profiles := map[string]FailoverProfile{}
	names := make([]string, len(cfg.Profiles))
	for i, p := range cfg.Profiles {
		names[i] = p.Name
		profiles[p.Name] = p
	}
	correlateds := make([]string, len(cfg.Correlations))
	for i, c := range cfg.Correlations {
		correlateds[i] = strconv.FormatBool(c)
	}
	custodies := make([]string, len(cfg.Custodies))
	for i, c := range cfg.Custodies {
		custodies[i] = c.String()
	}
	strategies := make([]string, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		strategies[i] = s.String()
	}
	grid := sweep.NewGrid().
		Axis("profile", names...).
		Axis("correlated", correlateds...).
		Axis("custody", custodies...).
		Axis("strategy", strategies...).
		SeedAxes("profile", "correlated")
	return grid.Expand(0, cfg.Seeds, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		prof := profiles[pt.Get("profile")]
		correlated, err := strconv.ParseBool(pt.Get("correlated"))
		if err != nil {
			panic(fmt.Sprintf("experiments: bad correlated %q: %v", pt.Get("correlated"), err))
		}
		custody, err := units.ParseByteSize(pt.Get("custody"))
		if err != nil {
			panic(fmt.Sprintf("experiments: bad custody %q: %v", pt.Get("custody"), err))
		}
		strategy, err := chunknet.ParseFailoverMode(pt.Get("strategy"))
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		s := sweep.ChunkSpec{
			Transport:    chunknet.INRPP,
			IngressRate:  cfg.IngressRate,
			EgressRate:   cfg.EgressRate,
			ChunkSize:    cfg.ChunkSize,
			Anticipation: 4096,
			Custody:      custody,
			Buffer:       cfg.Buffer,
			Transfers:    1,
			Chunks:       cfg.Chunks,
			Horizon:      cfg.Horizon,
			Ti:           50 * time.Millisecond,
			Outage:       prof.Outage,
			Maintenance:  prof.Maintenance,
			DetourRate:   prof.DetourRate,
			Failover:     strategy,
			Correlated:   correlated,
			Obs:          cfg.Obs,
			Trace:        cfg.Trace,
			TraceLabel:   sweep.ScenarioName(pt, replica),
		}
		return s.Run(seed)
	})
}

// failoverLabel derives the checkpoint config label: every non-axis
// parameter that changes the physics of the failing diamond, including
// each profile's failure process.
func failoverLabel(cfg FailoverConfig) string {
	label := fmt.Sprintf("failover ingress=%s egress=%s chunksize=%s chunks=%d horizon=%s seeds=%d",
		cfg.IngressRate, cfg.EgressRate, cfg.ChunkSize, cfg.Chunks, cfg.Horizon, cfg.Seeds)
	for _, p := range cfg.Profiles {
		label += fmt.Sprintf(" %s[detour=%s kind=%s up=%s down=%s maint=%d]",
			p.Name, p.DetourRate, p.Outage.Kind, p.Outage.Up, p.Outage.Down, len(p.Maintenance))
	}
	return label
}

// failoverCollect folds per-point aggregates into result rows.
func failoverCollect(cfg FailoverConfig, aggs []sweep.Aggregate) (*FailoverResult, error) {
	res := &FailoverResult{}
	for _, a := range aggs {
		correlated, err := strconv.ParseBool(a.Point.Get("correlated"))
		if err != nil {
			return nil, fmt.Errorf("experiments: bad correlated in aggregate: %w", err)
		}
		custody, err := units.ParseByteSize(a.Point.Get("custody"))
		if err != nil {
			return nil, fmt.Errorf("experiments: bad custody in aggregate: %w", err)
		}
		strategy, err := chunknet.ParseFailoverMode(a.Point.Get("strategy"))
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		row := FailoverRow{
			Profile:         a.Point.Get("profile"),
			Correlated:      correlated,
			Custody:         custody,
			Strategy:        strategy,
			DeliveredShare:  a.Mean("delivered_share"),
			DetourFailovers: a.Mean("detour_failovers"),
			Evacuated:       a.Mean("evacuated"),
			CustodyPeak:     a.Mean("custody_peak_bytes"),
			ArcDownS:        a.Mean("arc_down_s"),
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

// FailoverReport renders the recovery-strategy frontier as a table: one
// block per (profile, correlation), one row per (custody, strategy).
func FailoverReport(r *FailoverResult) *report.Table {
	t := report.New("failover replanning — recovery strategy frontier",
		"profile", "correlated", "custody", "strategy", "completed", "mean fct (s)", "delivered", "failovers", "evacuated")
	for _, row := range r.Rows {
		fct := "stalled"
		if row.MeanCompletionS > 0 {
			fct = report.F3(row.MeanCompletionS)
		}
		t.AddRow(
			row.Profile,
			strconv.FormatBool(row.Correlated),
			row.Custody.String(),
			row.Strategy.String(),
			report.F3(row.CompletedShare),
			fct,
			report.F3(row.DeliveredShare),
			report.F3(row.DetourFailovers),
			report.F3(row.Evacuated),
		)
	}
	return t
}
