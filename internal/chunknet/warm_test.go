package chunknet

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// warmHeavy builds the run that leaves the most behind for the next Sim:
// INRPP with custody, random loss on both egress paths, exponential churn
// on the egress, an SRLG and a maintenance window, reroute failover, and
// a detour the congested egress spills into.
func warmHeavy() *Sim {
	g, egress := failureDiamond(10 * units.Mbps)
	g.SetLinkLoss(0, 0.02)
	g.SetLinkLoss(egress, 0.01)
	g.SetLinkOutage(egress, topo.OutageSpec{Kind: topo.OutageExp, Up: 400 * time.Millisecond, Down: 100 * time.Millisecond})
	g.SetLinkCalendar(3, topo.CalendarSpec{Windows: []topo.Window{{Start: time.Second, End: 1500 * time.Millisecond}}})
	g.MustAddSRLG(topo.SRLG{
		Name:   "conduit",
		Links:  []topo.LinkID{2, 3},
		Outage: topo.OutageSpec{Kind: topo.OutageExp, Up: 700 * time.Millisecond, Down: 50 * time.Millisecond},
	})
	cfg := churnConfig(g, INRPP, 3)
	cfg.Failover = FailoverReroute
	var trs []Transfer
	for id := 1; id <= 4; id++ {
		trs = append(trs, Transfer{ID: id, Src: 0, Dst: 2, Chunks: 300, Start: time.Duration(id) * 5 * time.Millisecond})
	}
	return mustSim(cfg, trs...)
}

// warmSmall is the run whose report must not depend on what ran before
// it: small, but lossy and churned, so it draws from recycled streams. It
// runs past the heavy run's horizon, where any event the heavy run left
// pending would fire if the DES kept it.
func warmSmall() *Sim {
	g, egress := failureDiamond(5 * units.Mbps)
	g.SetLinkLoss(0, 0.03)
	g.SetLinkOutage(egress, topo.OutageSpec{Kind: topo.OutageExp, Up: 200 * time.Millisecond, Down: 50 * time.Millisecond})
	cfg := churnConfig(g, INRPP, 9)
	cfg.Failover = FailoverReroute
	return mustSim(cfg, Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 80})
}

// mustSim builds a Sim from a fixed test setup, where an error is a bug.
// It panics rather than calling t.Fatal, which the goroutines of the
// concurrent test may not.
func mustSim(cfg Config, trs ...Transfer) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	for _, tr := range trs {
		if err := s.AddTransfer(tr); err != nil {
			panic(err)
		}
	}
	return s
}

// warmRounds runs heavy then small n times on the calling goroutine,
// stopping at the first small report that differs from want or the
// first warm small Sim that built an arc afresh instead of reusing one
// of the heavy Sim's. It returns how many small Sims took over the heavy
// Sim's buffers: a sync.Pool may drop an item (a quarter of them under
// -race) or hand it to another P, so a round can also run cold.
func warmRounds(t *testing.T, want *Report, n int) int {
	warm := 0
	for i := 0; i < n; i++ {
		heavy := warmHeavy()
		bufs := heavy.warm
		heavyArcs := slices.Clone(heavy.arcs)
		rep := heavy.Run(2 * time.Second)
		if rep.PktsLostRandom == 0 || rep.ArcDownTransitions == 0 || rep.SRLGDownTransitions == 0 ||
			rep.DetourFailovers == 0 || rep.ChunksDetoured == 0 {
			t.Errorf("heavy run left a mechanism idle: %+v", rep)
			return warm
		}
		small := warmSmall()
		if small.warm == bufs {
			warm++
			// The small run's arcs are the heavy run's arc states,
			// zeroed and filled again.
			for _, a := range small.arcs {
				if a != nil && !slices.Contains(heavyArcs, a) {
					t.Errorf("round %d: arc %d>%d was made afresh on warm buffers", i, a.from, a.to)
					return warm
				}
			}
		}
		if got := small.Run(3 * time.Second); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: small run after a heavy one diverged:\ncold: %+v\nwarm: %+v", i, want, got)
			return warm
		}
	}
	return warm
}

// coldSmall runs warmSmall with the pool emptied first: two collections
// clear a sync.Pool.
func coldSmall(t *testing.T) *Report {
	runtime.GC()
	runtime.GC()
	rep := warmSmall().Run(3 * time.Second)
	if rep.PktsLostRandom == 0 || rep.ArcDownTransitions == 0 {
		t.Fatalf("small run draws from no stream: %+v", rep)
	}
	return rep
}

// TestWarmRunMatchesFresh: a Sim built from the buffers a heavy run
// handed on reports exactly what the same Sim reports cold.
func TestWarmRunMatchesFresh(t *testing.T) {
	want := coldSmall(t)
	if warm := warmRounds(t, want, 8); warm == 0 && !t.Failed() {
		t.Error("no small run took over the heavy run's buffers; the test exercised nothing")
	}
}

// TestWarmRunMatchesFreshConcurrent is the same check with four
// goroutines passing buffers through the shared pool at once (run it
// under -race).
func TestWarmRunMatchesFreshConcurrent(t *testing.T) {
	want := coldSmall(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmRounds(t, want, 3)
		}()
	}
	wg.Wait()
}

// TestReleasedSimUnusable: Run hands the buffers on and leaves the Sim
// without them, so nothing it still holds can reach another run. The
// arc states it hands on are zeroed but for their bound callbacks, so
// they keep nothing of the run alive either.
func TestReleasedSimUnusable(t *testing.T) {
	s := warmSmall()
	arcs := slices.Clone(s.arcs)
	s.Run(time.Second)
	if s.des != nil || s.warm != nil || s.pktFree != nil || s.arcs != nil {
		t.Fatal("a finished Sim still holds its DES, pool set, packet list or arcs")
	}
	for i, a := range arcs {
		if a == nil {
			continue
		}
		if a.txDoneFn == nil || a.arriveFn == nil {
			t.Fatalf("handed-on arc %d lost a bound callback", i)
		}
		rest := *a
		rest.txDoneFn, rest.arriveFn, rest.churnFn = nil, nil, nil
		if !reflect.ValueOf(rest).IsZero() {
			t.Fatalf("handed-on arc %d still holds state of its run: %+v", i, rest)
		}
	}
}
