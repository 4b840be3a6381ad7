package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/chunknet"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// ChunkSpec describes one chunk-level simulation scenario on the custody
// bottleneck chain: src →(ingress)→ router →(egress)→ receiver, the
// topology of the §3.3 custody/back-pressure experiment. It is the
// chunknet analogue of FlowSpec — build the spec (typically varying
// Transport, Anticipation, Custody and Transfers along grid axes), then
// call Run for a sweep scenario body or Simulate for a one-off run with
// the full chunknet.Report.
type ChunkSpec struct {
	// Transport selects the protocol stack (INRPP, AIMD or ARC).
	Transport chunknet.Transport
	// IngressRate and EgressRate set the bottleneck chain's link rates.
	// Defaults: 40Gbps → 2Gbps, the paper's §3.3 sizing example.
	IngressRate units.BitRate
	EgressRate  units.BitRate
	// ChunkSize is the data chunk size (default 10MB — coarse, to keep
	// paper-scale runs fast).
	ChunkSize units.ByteSize
	// Anticipation is the INRPP Ac window in chunks (default 4096).
	Anticipation int64
	// Custody is the INRPP custody budget at the router (default 10GB).
	// AIMD and ARC never get custody: their store is Buffer alone.
	Custody units.ByteSize
	// Buffer is the drop-tail queue budget for AIMD/ARC (default 25MB, a
	// BDP-scale buffer). INRPP keeps the chunknet default queue and adds
	// Custody on top, matching the original custody experiment.
	Buffer units.ByteSize
	// Transfers is the number of concurrent transfers pushed through the
	// chain — the load axis (default 1).
	Transfers int
	// Chunks per transfer (default 2000 = 20GB offered at the defaults).
	Chunks int64
	// StartSpread jitters the start times of transfers beyond the first
	// uniformly over [0, StartSpread), from the scenario seed (default
	// 100ms). The first transfer always starts at 0, so single-transfer
	// scenarios are seed-independent.
	StartSpread time.Duration
	// Horizon bounds each run's virtual time (default 5s).
	Horizon time.Duration
	// Ti is the INRPP estimator interval (default 50ms at this scale).
	Ti time.Duration
	// Outage, when enabled, applies a churn process to the egress
	// bottleneck link — the disruption axis. The scenario seed drives
	// the churn realization, so transports at the same seed see
	// identical outage traces and the comparison isolates the transport.
	Outage topo.OutageSpec
	// Maintenance lists scheduled hard-down windows for the egress link —
	// the calendar axis. Windows compose with Outage churn on the same
	// link and are exact: they consume no randomness.
	Maintenance []topo.Window
	// Loss is the egress link's per-packet random loss probability — the
	// lossy-arc axis, continuously exercising NACK/resend recovery.
	Loss float64
	// DetourRate, when positive, adds a detour node beside the bottleneck
	// (router → detour → receiver, both links at DetourRate) — the
	// alternative path failover reroutes over.
	DetourRate units.BitRate
	// Failover selects what INRPP routers do with traffic whose nominal
	// arc is hard-down: hold in custody (default), reroute around it, or
	// both (see chunknet.FailoverMode).
	Failover chunknet.FailoverMode
	// Correlated groups the egress link and the detour's return link into
	// one shared-risk link group carrying Outage and Maintenance, so the
	// nominal path and its escape route fail together. Requires
	// DetourRate > 0 and at least one of Outage or Maintenance.
	Correlated bool

	// Obs, Trace and TraceLabel thread observability into the simulator
	// (see chunknet.Config). All optional; scenarios expanded from one
	// grid typically share a single registry and trace, with TraceLabel
	// set to the scenario name. Metrics never change simulation results.
	Obs        *obs.Registry
	Trace      *obs.Trace
	TraceLabel string
}

func (s *ChunkSpec) applyDefaults() {
	if s.IngressRate == 0 {
		s.IngressRate = 40 * units.Gbps
	}
	if s.EgressRate == 0 {
		s.EgressRate = 2 * units.Gbps
	}
	if s.ChunkSize == 0 {
		s.ChunkSize = 10 * units.MB
	}
	if s.Anticipation == 0 {
		s.Anticipation = 4096
	}
	if s.Custody == 0 {
		s.Custody = 10 * units.GB
	}
	if s.Buffer == 0 {
		s.Buffer = 25 * units.MB
	}
	if s.Transfers == 0 {
		s.Transfers = 1
	}
	if s.Chunks == 0 {
		s.Chunks = 2000
	}
	if s.StartSpread == 0 {
		s.StartSpread = 100 * time.Millisecond
	}
	if s.Horizon == 0 {
		s.Horizon = 5 * time.Second
	}
	if s.Ti == 0 {
		s.Ti = 50 * time.Millisecond
	}
}

// Graph builds the spec's bottleneck chain. An enabled Outage (and any
// Maintenance windows) disrupts the egress link: the bottleneck fails,
// so ingress keeps filling the router's store — the regime where custody
// either holds or drops. A positive DetourRate adds the failover diamond
// (router → detour → receiver), and Correlated binds the egress and the
// detour's return link into one SRLG so they fail together.
func (s ChunkSpec) Graph() *topo.Graph {
	g := topo.New("custody-chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, s.IngressRate, time.Millisecond)
	egress := g.MustAddLink(1, 2, s.EgressRate, time.Millisecond)
	detourBack := topo.LinkID(-1)
	if s.DetourRate > 0 {
		d := g.AddNode("detour")
		g.MustAddLink(1, d, s.DetourRate, time.Millisecond)
		detourBack = g.MustAddLink(d, 2, s.DetourRate, time.Millisecond)
	}
	cal := topo.CalendarSpec{Windows: s.Maintenance}
	switch {
	case s.Correlated && detourBack >= 0 && (s.Outage.Enabled() || cal.Enabled()):
		g.MustAddSRLG(topo.SRLG{
			Name:     "conduit",
			Links:    []topo.LinkID{egress, detourBack},
			Outage:   s.Outage,
			Calendar: cal,
		})
	default:
		if s.Outage.Enabled() {
			g.SetLinkOutage(egress, s.Outage)
		}
		if cal.Enabled() {
			g.SetLinkCalendar(egress, cal)
		}
	}
	if s.Loss > 0 {
		g.SetLinkLoss(egress, s.Loss)
	}
	return g
}

// Validate rejects a spec no run can use: a negative rate, size, count or
// duration, a loss probability outside [0,1], an invalid outage process or
// maintenance calendar, failover or correlation without the detour path
// they act on, and correlation without a failure process to share.
// Simulate calls it, so every caller meets the same boundary.
func (s ChunkSpec) Validate() error {
	if err := firstNegative(
		nonNegative{"IngressRate", float64(s.IngressRate)},
		nonNegative{"EgressRate", float64(s.EgressRate)},
		nonNegative{"ChunkSize", float64(s.ChunkSize)},
		nonNegative{"Anticipation", float64(s.Anticipation)},
		nonNegative{"Custody", float64(s.Custody)},
		nonNegative{"Buffer", float64(s.Buffer)},
		nonNegative{"Transfers", float64(s.Transfers)},
		nonNegative{"Chunks", float64(s.Chunks)},
		nonNegative{"StartSpread", float64(s.StartSpread)},
		nonNegative{"Horizon", float64(s.Horizon)},
		nonNegative{"Ti", float64(s.Ti)},
		nonNegative{"Outage.Up", float64(s.Outage.Up)},
		nonNegative{"Outage.Down", float64(s.Outage.Down)},
		nonNegative{"Outage.DownRate", float64(s.Outage.DownRate)},
		nonNegative{"DetourRate", float64(s.DetourRate)},
	); err != nil {
		return err
	}
	if err := topo.ValidateLossProb(s.Loss); err != nil {
		return &FieldError{Field: "Loss", Reason: err.Error()}
	}
	if err := s.Outage.Validate(); err != nil {
		return &FieldError{Field: "Outage", Reason: err.Error()}
	}
	cal := topo.CalendarSpec{Windows: s.Maintenance}
	if err := cal.Validate(); err != nil {
		return &FieldError{Field: "Maintenance", Reason: err.Error()}
	}
	if s.Failover != chunknet.FailoverHold && s.DetourRate == 0 {
		return &FieldError{Field: "Failover", Reason: s.Failover.String() + " needs a detour path: set DetourRate"}
	}
	if s.Correlated && s.DetourRate == 0 {
		return &FieldError{Field: "Correlated", Reason: "groups the egress with the detour-return link: set DetourRate"}
	}
	if s.Correlated && !s.Outage.Enabled() && !cal.Enabled() {
		return &FieldError{Field: "Correlated", Reason: "needs a failure process: set Outage and/or Maintenance"}
	}
	return nil
}

// jitterRands recycles Simulate's start-jitter streams across scenarios:
// a math/rand source is 4.9 KB, and Seed restarts exactly the stream
// rand.New(rand.NewSource(seed)) would give.
var jitterRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Simulate validates the spec, runs it once with the given seed and
// returns the full chunknet report. The seed only drives transfer start
// jitter, so two transports at the same seed see identical offered load.
func (s ChunkSpec) Simulate(seed int64) (*chunknet.Report, error) {
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := chunknet.Config{
		Graph:        s.Graph(),
		Transport:    s.Transport,
		ChunkSize:    s.ChunkSize,
		Anticipation: s.Anticipation,
		Ti:           s.Ti,
		// The scenario seed drives the churn realization too (+1 keeps
		// seed 0 off the chunknet default); SeedAxes excludes transport,
		// so transports at one grid point replay the same outage trace.
		ChurnSeed:  seed + 1,
		Failover:   s.Failover,
		Obs:        s.Obs,
		Trace:      s.Trace,
		TraceLabel: s.TraceLabel,
	}
	if s.Transport == chunknet.INRPP {
		cfg.CustodyBytes = s.Custody
		cfg.InitialRequestRate = s.IngressRate
	} else {
		cfg.QueueBytes = s.Buffer
	}
	sim, err := chunknet.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := jitterRands.Get().(*rand.Rand)
	defer jitterRands.Put(rng)
	rng.Seed(seed)
	for i := 0; i < s.Transfers; i++ {
		var start time.Duration
		if i > 0 {
			start = time.Duration(rng.Int63n(int64(s.StartSpread)))
		}
		if err := sim.AddTransfer(chunknet.Transfer{
			ID: i + 1, Src: 0, Dst: 2, Chunks: s.Chunks, Start: start,
		}); err != nil {
			return nil, err
		}
	}
	return sim.Run(s.Horizon), nil
}

// Run returns a RunFunc executing the spec with the given seed, for use
// as a Scenario body. Defaults are resolved once here, so Simulate and
// ChunkMetrics see the same effective spec.
func (s ChunkSpec) Run(seed int64) RunFunc {
	s.applyDefaults()
	return func(ctx context.Context) (Metrics, error) {
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		rep, err := s.Simulate(seed)
		if err != nil {
			return Metrics{}, err
		}
		return ChunkMetrics(rep, s), nil
	}
}

// ParseTransport maps a transport-axis value to its chunknet transport,
// case-insensitively — the one decoder for every sweep with a transport
// axis.
func ParseTransport(s string) (chunknet.Transport, error) {
	switch strings.ToLower(s) {
	case "inrpp":
		return chunknet.INRPP, nil
	case "aimd":
		return chunknet.AIMD, nil
	case "arc":
		return chunknet.ARC, nil
	}
	return 0, fmt.Errorf("sweep: unknown transport %q (known: inrpp, aimd, arc)", s)
}

// MustParseTransport is ParseTransport for grid-axis values already
// validated at grid construction.
func MustParseTransport(s string) chunknet.Transport {
	t, err := ParseTransport(s)
	if err != nil {
		panic(err)
	}
	return t
}

// ChunkMetrics converts a chunknet report into sweep metrics. Scalars
// cover the custody experiment's headline numbers; the "completion_s"
// sample set pools per-transfer completion times for CDF summaries.
// Custody and back-pressure metrics are only emitted under INRPP, where
// they exist.
func ChunkMetrics(rep *chunknet.Report, spec ChunkSpec) Metrics {
	m := NewMetrics()
	var delivered int64
	for _, n := range rep.DeliveredPerFlow {
		delivered += n
	}
	offered := int64(spec.Transfers) * spec.Chunks
	m.Set("delivered", float64(delivered))
	if offered > 0 {
		m.Set("delivered_share", float64(delivered)/float64(offered))
	}
	m.Set("dropped", float64(rep.ChunksDropped))
	m.Set("retransmits", float64(rep.Retransmits))
	m.Set("completed", float64(len(rep.Completions)))
	m.Set("goodput_gbps",
		float64(delivered)*spec.ChunkSize.Bits()/rep.Duration.Seconds()/1e9)
	// Iterate IDs in order: ranging over the map would record samples in
	// nondeterministic order and break byte-identical checkpoints.
	for id := 1; id <= spec.Transfers; id++ {
		if fct, ok := rep.Completions[id]; ok {
			m.AddSamples("completion_s", fct.Seconds())
		}
	}
	if rep.Transport == chunknet.INRPP {
		m.Set("custody_peak_bytes", float64(rep.CustodyPeak))
		m.Set("residency_mean_s", rep.CustodyResidency.Mean())
		m.Set("backpressure", float64(rep.BackpressureOn))
		m.Set("closed_loop", float64(rep.ClosedLoopEntries))
		m.Set("detoured", float64(rep.ChunksDetoured))
	}
	// Failure metrics exist only on scenarios whose spec can move them,
	// so failure-free sweeps keep their exact metric set (and golden
	// bytes).
	if spec.Outage.Enabled() || len(spec.Maintenance) > 0 {
		m.Set("arc_down_transitions", float64(rep.ArcDownTransitions))
		m.Set("arc_down_s", rep.ArcDownSeconds)
		m.Set("lost_inflight", float64(rep.ChunksLostInFlight))
		m.Set("requeued", float64(rep.ChunksRequeued))
	}
	if spec.Correlated {
		m.Set("srlg_down_transitions", float64(rep.SRLGDownTransitions))
	}
	if spec.Loss > 0 {
		m.Set("pkts_lost_random", float64(rep.PktsLostRandom))
	}
	if spec.Failover != chunknet.FailoverHold {
		m.Set("detour_failovers", float64(rep.DetourFailovers))
		m.Set("evacuated", float64(rep.ChunksEvacuated))
	}
	return m
}
