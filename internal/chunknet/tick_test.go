package chunknet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// tickRun runs cfg with the given transfers to horizon under a registry
// and returns the report and the DES events fired, the custody
// sampler's included.
func tickRun(t *testing.T, cfg Config, horizon time.Duration, trs ...Transfer) (*Report, int64) {
	t.Helper()
	reg := obs.New("tick-test")
	cfg.Obs = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if err := s.AddTransfer(tr); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(horizon)
	return rep, reg.Counter("des_events_fired").Value()
}

// TestDrainedRunStopsTicking: once every transfer is done and no packet
// is left, the estimator ticks stop. A run that completes early gives
// the same Report at a short and at a ten times longer horizon, apart
// from Duration, and fires the same events.
func TestDrainedRunStopsTicking(t *testing.T) {
	diamond, _ := failureDiamond(5 * units.Mbps)
	cases := []struct {
		name    string
		cfg     Config
		horizon time.Duration
		trs     []Transfer
	}{
		{"line", Config{Graph: topo.Line(3), Transport: INRPP, ChunkSize: 10 * units.KB,
			Anticipation: 8, CustodyBytes: 10 * units.MB}, time.Second,
			[]Transfer{{ID: 1, Src: 0, Dst: 2, Chunks: 200}}},
		{"fig3-detour", detourConfig(topo.Fig3()), 3 * time.Second,
			[]Transfer{{ID: 1, Src: 0, Dst: 2, Chunks: 100}}},
		{"diamond-two-flows", churnConfig(diamond, INRPP, 1), 3 * time.Second,
			[]Transfer{{ID: 1, Src: 0, Dst: 2, Chunks: 60},
				{ID: 2, Src: 0, Dst: 2, Chunks: 60, Start: 7 * time.Millisecond}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			short, shortFired := tickRun(t, c.cfg, c.horizon, c.trs...)
			long, longFired := tickRun(t, c.cfg, 10*c.horizon, c.trs...)
			if len(short.Completions) != len(c.trs) {
				t.Fatalf("%d of %d transfers completed by %v", len(short.Completions), len(c.trs), c.horizon)
			}
			short.Duration, long.Duration = 0, 0
			if !reflect.DeepEqual(short, long) {
				t.Errorf("reports differ:\n%v: %+v\n%v: %+v", c.horizon, short, 10*c.horizon, long)
			}
			if shortFired != longFired {
				t.Errorf("des_events_fired: %d at %v, %d at %v", shortFired, c.horizon, longFired, 10*c.horizon)
			}
		})
	}
}

// TestUndrainedRunTicksToHorizon: a transfer that cannot finish by the
// horizon (here: it starts after it) keeps the estimator ticking, and
// the custody sampler sampling, every Ti until the horizon.
func TestUndrainedRunTicksToHorizon(t *testing.T) {
	cfg := Config{Graph: topo.Line(3), Transport: INRPP, ChunkSize: 10 * units.KB, Ti: 10 * time.Millisecond}
	late := Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 10, Start: 5 * time.Second}
	for _, horizon := range []time.Duration{time.Second, 2 * time.Second} {
		rep, fired := tickRun(t, cfg, horizon, late)
		if want := 2 * int64(horizon/cfg.Ti); fired != want {
			t.Errorf("horizon %v: %d events fired, want %d ticks and samples", horizon, fired, want)
		}
		if len(rep.Completions) != 0 {
			t.Errorf("horizon %v: a transfer starting at 5s completed", horizon)
		}
	}
}

// BenchmarkTickEstimators times the estimator ticks over every router,
// ticksPerOp of them per op (ten seconds at the default Ti), so that one
// iteration, as scripts/bench.sh runs it, is long enough to time. Before
// each tick every interface is handed requests for twice its link rate
// over Ti, so each one is congested and consults the planner: the tick's
// most expensive case, on the failover diamond and on Exodus.
func BenchmarkTickEstimators(b *testing.B) {
	const ticksPerOp = 1000
	diamond, _ := failureDiamond(5 * units.Mbps)
	for _, bc := range []struct {
		name string
		g    *topo.Graph
	}{
		{"diamond", diamond},
		{"exodus", topo.MustBuildISP(topo.Exodus)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Config{Graph: bc.g, Transport: INRPP})
			if err != nil {
				b.Fatal(err)
			}
			defer s.release()
			// reqs[node][iface] is the request count that makes iface's
			// anticipated rate twice its link rate.
			reqs := make([][]int, len(s.nodes))
			for n, ns := range s.nodes {
				for _, idx := range ns.arcIdx {
					bits := 2 * float64(s.arcs[idx].baseRate) * s.cfg.Ti.Seconds()
					reqs[n] = append(reqs[n], int(bits/s.cfg.ChunkSize.Bits())+1)
				}
			}
			tick := func() {
				for n, ns := range s.nodes {
					for iface, c := range reqs[n] {
						ns.est.RecordRequest(core.IfaceID(iface), c)
					}
				}
				s.tickEstimators()
			}
			// The smoothed anticipated rates pass the link rate on the
			// third tick; warm up past it, so the planner's candidate
			// sets are built outside the timing.
			for i := 0; i < 10; i++ {
				tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N*ticksPerOp; i++ {
				tick()
			}
		})
	}
}
