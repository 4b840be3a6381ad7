package chunknet

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// The INRPP fixture pins full reports of runs that stress the receiver's
// request loop: interval below and above the arc delay, request lattices
// that land exactly on delivery times, constructed runs whose loop runs
// tie with deliveries or with each other, NACK re-arms under outages,
// churn under every failover mode, the Fig 3 detour and small-custody
// back-pressure. It was first captured from a polling request loop,
// which re-armed itself every interval, and recaptured under the stated
// order (doc.go): at one instant the loop runs fire after every other
// event, in AddTransfer order.
//
// Regenerate (only when an intentional physics change lands) with:
//
//	go test ./internal/chunknet -run TestINRPPFixture -update-fixture
var updateFixture = flag.Bool("update-fixture", false, "rewrite the INRPP report fixture")

// fixtureCase is one pinned run: build returns a Sim with its transfers
// added, run until horizon.
type fixtureCase struct {
	name    string
	horizon time.Duration
	build   func(t *testing.T) *Sim
}

// newFixtureSim builds a Sim over cfg and adds trs.
func newFixtureSim(t *testing.T, cfg Config, trs ...Transfer) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		if err := s.AddTransfer(tr); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// fixtureFanin is a toy of the custody-fanin benchmark: transfers from
// eight leaves through a hub onto one 2 Gbps sink link, every arc with
// the given delay, starts a millisecond apart jittered by seed.
func fixtureFanin(t *testing.T, delay time.Duration, rate units.BitRate, custody units.ByteSize, transfers int, chunks int64, seed int64) *Sim {
	const leaves = 8
	g := topo.New("fanin")
	g.AddNodes(leaves + 2)
	hub, sink := topo.NodeID(leaves), topo.NodeID(leaves+1)
	for l := 0; l < leaves; l++ {
		g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, delay)
	}
	g.MustAddLink(hub, sink, 2*units.Gbps, delay)
	rng := rand.New(rand.NewSource(seed))
	trs := make([]Transfer, transfers)
	for i := range trs {
		trs[i] = Transfer{
			ID: i + 1, Src: topo.NodeID(i % leaves), Dst: sink, Chunks: chunks,
			Start: time.Duration(i)*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond))),
		}
	}
	return newFixtureSim(t, Config{
		Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 64,
		CustodyBytes: custody, InitialRequestRate: rate, Ti: 10 * time.Millisecond,
	}, trs...)
}

// fixtureLattice puts request lattices on delivery times: 10 KB chunks
// at 1 Gbps make the initial request interval exactly 80 µs, every link
// has the given rate and delay, and transfers start on multiples of
// 80 µs, so ticks, serialisations, arrivals and estimator ticks (10 ms,
// 125 intervals) keep landing on the same instants.
func fixtureLattice(t *testing.T, rate units.BitRate, delay time.Duration, transfers int) *Sim {
	g := topo.New("lattice")
	g.AddNodes(4)
	g.MustAddLink(0, 2, rate, delay)
	g.MustAddLink(1, 2, rate, delay)
	g.MustAddLink(2, 3, rate, delay)
	trs := make([]Transfer, transfers)
	for i := range trs {
		trs[i] = Transfer{
			ID: i + 1, Src: topo.NodeID(i % 2), Dst: 3, Chunks: 200,
			Start: time.Duration(i) * 80 * time.Microsecond,
		}
	}
	return newFixtureSim(t, Config{
		Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 16,
		CustodyBytes: 10 * units.MB, InitialRequestRate: units.Gbps,
	}, trs...)
}

// fixtureDiamond is the failover diamond with exponential churn on the
// egress, a lossy ingress and two transfers from the same source.
func fixtureDiamond(t *testing.T, mode FailoverMode, loss float64) *Sim {
	g, egress := failureDiamond(5 * units.Mbps)
	g.SetLinkOutage(egress, topo.OutageSpec{Kind: topo.OutageExp, Up: 150 * time.Millisecond, Down: 30 * time.Millisecond})
	g.SetLinkLoss(0, loss)
	cfg := churnConfig(g, INRPP, 3)
	cfg.Failover = mode
	cfg.CustodyBytes = 2 * units.MB
	return newFixtureSim(t, cfg,
		Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 150},
		Transfer{ID: 2, Src: 0, Dst: 2, Chunks: 150, Start: 7 * time.Millisecond})
}

// fixtureTieLine is a single transfer over a line of equal links, built
// so that a loop run and a delivery tie:
// every serialisation and delay is a whole number of nanoseconds, and
// the initial request interval (chunk at initial rate) is a round
// 80 µs. down, when non-zero, takes the last link down from 5 ms for
// that long, so the receiver stalls into NACKs.
func fixtureTieLine(t *testing.T, hops int, rate units.BitRate, delay time.Duration,
	chunk units.ByteSize, initial units.BitRate, ac, chunks int64, down time.Duration) *Sim {
	g := topo.New("tie-line")
	g.AddNodes(hops + 1)
	for i := 0; i < hops; i++ {
		g.MustAddLink(topo.NodeID(i), topo.NodeID(i+1), rate, delay)
	}
	if down > 0 {
		g.SetLinkOutage(topo.LinkID(hops-1), topo.OutageSpec{Kind: topo.OutageFixed, Up: 5 * time.Millisecond, Down: down})
	}
	return newFixtureSim(t, Config{
		Graph: g, Transport: INRPP, ChunkSize: chunk, Anticipation: ac,
		CustodyBytes: 10 * units.MB, InitialRequestRate: initial,
	}, Transfer{ID: 1, Src: 0, Dst: topo.NodeID(hops), Chunks: chunks})
}

func fixtureCases() []fixtureCase {
	cases := []fixtureCase{
		{"fanin/interval-below-delay", 3 * time.Second, func(t *testing.T) *Sim {
			return fixtureFanin(t, time.Millisecond, units.Gbps, 100*units.MB, 16, 150, 1)
		}},
		{"fanin/interval-above-delay", 3 * time.Second, func(t *testing.T) *Sim {
			return fixtureFanin(t, 20*time.Microsecond, 10*units.Mbps, 100*units.MB, 16, 150, 2)
		}},
		{"fanin/small-custody", 3 * time.Second, func(t *testing.T) *Sim {
			return fixtureFanin(t, time.Millisecond, units.Gbps, 2*units.MB, 24, 150, 3)
		}},
	}
	// Lattice ties: the delay equal to the 80 µs interval, below and
	// above it, and serialisation times equal to it (1 Gbps) or far
	// below it (10 Gbps).
	for _, lt := range []struct {
		rate  units.BitRate
		delay time.Duration
	}{
		{units.Gbps, 80 * time.Microsecond},
		{10 * units.Gbps, 80 * time.Microsecond},
		{units.Gbps, 40 * time.Microsecond},
		{units.Gbps, 160 * time.Microsecond},
		{500 * units.Mbps, 80 * time.Microsecond},
	} {
		lt := lt
		cases = append(cases, fixtureCase{
			fmt.Sprintf("lattice/%v-%v", lt.rate, lt.delay), 2 * time.Second,
			func(t *testing.T) *Sim { return fixtureLattice(t, lt.rate, lt.delay, 4) },
		})
	}
	// Single-transfer ties of a loop run and a delivery; the run goes
	// after the delivery. With 10 KB chunks the interval stays 80 µs
	// until the second delivery.
	for _, tc := range []struct {
		name  string
		hops  int
		delay time.Duration
		ac    int64
	}{
		// A second delivery lands on the woken run's lattice point, with
		// the delay below the interval ...
		{"tie/second-delivery-3hop", 3, 47960 * time.Nanosecond, 1},
		{"tie/second-delivery-2hop", 2, 73960 * time.Nanosecond, 1},
		{"tie/second-delivery-ac2", 3, 59960 * time.Nanosecond, 2},
		// ... and with the delay above it.
		{"tie/second-delivery-arrival-first", 2, 93960 * time.Nanosecond, 1},
		// A delivery lands on a later lattice point of a parked loop,
		// with the delay below and above the interval.
		{"tie/on-point", 2, 75960 * time.Nanosecond, 1},
		{"tie/on-point-arrival-first", 1, 155960 * time.Nanosecond, 1},
		// A delivery lands on the parked lattice's first point.
		{"tie/first-point", 1, 115960 * time.Nanosecond, 1},
		{"tie/first-point-ac2", 2, 75960 * time.Nanosecond, 2},
	} {
		tc := tc
		cases = append(cases, fixtureCase{tc.name, 20 * time.Millisecond, func(t *testing.T) *Sim {
			return fixtureTieLine(t, tc.hops, 10*units.Gbps, tc.delay, 10*units.KB, units.Gbps, tc.ac, 30, 0)
		}})
	}
	cases = append(cases,
		// Delay equal to the interval, serialisation shorter and longer. A
		// 9,900 B chunk plus a 100 B request take 80 µs at 1 Gbps, a
		// 19,900 B one 160 µs, so the first delivery lands on a lattice
		// point of the loop parked at 160 µs.
		fixtureCase{"tie/equal-delay-short-tx", 20 * time.Millisecond, func(t *testing.T) *Sim {
			return fixtureTieLine(t, 2, units.Gbps, 80*time.Microsecond, 9900*units.Byte, 990*units.Mbps, 1, 30, 0)
		}},
		fixtureCase{"tie/equal-delay-long-tx", 20 * time.Millisecond, func(t *testing.T) *Sim {
			return fixtureTieLine(t, 1, units.Gbps, 80*time.Microsecond, 19900*units.Byte, 1990*units.Mbps, 1, 30, 0)
		}},
	)
	// Transfers started together tick on one lattice until data
	// arrives, and keep meeting there once woken: their requests leave
	// in AddTransfer order.
	cases = append(cases, fixtureCase{"tie/started-together", 1231 * time.Millisecond, func(t *testing.T) *Sim {
		g := topo.New("chain")
		g.AddNodes(3)
		g.MustAddLink(0, 1, 2*units.Gbps, time.Millisecond)
		g.MustAddLink(1, 2, units.Gbps, 100*time.Microsecond)
		var trs []Transfer
		for i, tr := range []struct {
			chunks int64
			start  time.Duration
		}{{43, 0}, {130, 3759078}, {95, 720 * time.Microsecond}, {131, 960 * time.Microsecond}, {146, 1519983}, {34, 0}} {
			trs = append(trs, Transfer{ID: i + 1, Src: 0, Dst: 2, Chunks: tr.chunks, Start: tr.start})
		}
		return newFixtureSim(t, Config{
			Graph: g, Transport: INRPP, ChunkSize: units.KB, Anticipation: 1,
			CustodyBytes: 2 * units.MB, InitialRequestRate: 10 * units.Gbps, Ti: 800 * time.Microsecond,
		}, trs...)
	}})
	// Requests of different transfers at one instant, to one receiver:
	// the fan-in of BenchmarkChunknetFanIn, whose transfers start on
	// whole milliseconds so the 800 µs initial lattices of every fourth
	// one coincide, and twelve transfers started within 120 µs of each
	// other on one path.
	cases = append(cases,
		fixtureCase{"fanin/whole-ms-starts", 3 * time.Second, func(t *testing.T) *Sim {
			const leaves = 8
			g := topo.New("fanin")
			g.AddNodes(leaves + 2)
			hub, sink := topo.NodeID(leaves), topo.NodeID(leaves+1)
			for l := 0; l < leaves; l++ {
				g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, time.Millisecond)
			}
			g.MustAddLink(hub, sink, 2*units.Gbps, time.Millisecond)
			trs := make([]Transfer, 64)
			for i := range trs {
				trs[i] = Transfer{ID: i + 1, Src: topo.NodeID(i % leaves), Dst: sink, Chunks: 300,
					Start: time.Duration(i) * time.Millisecond}
			}
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 100 * units.KB, Anticipation: 64,
				CustodyBytes: 200 * units.MB, InitialRequestRate: units.Gbps, Ti: 10 * time.Millisecond,
			}, trs...)
		}},
		fixtureCase{"tie/started-within-120us", 1500 * time.Millisecond, func(t *testing.T) *Sim {
			g := topo.New("chain")
			g.AddNodes(3)
			g.MustAddLink(0, 1, 20*units.Gbps, 40*time.Microsecond)
			g.MustAddLink(1, 2, 2*units.Gbps, 160*time.Microsecond)
			var trs []Transfer
			for i, tr := range []struct {
				chunks int64
				start  time.Duration
			}{{196, 1}, {232, 2}, {151, 1}, {179, 1}, {243, 1}, {121, 1}, {225, 1}, {125, 0}, {245, 1}, {181, 1}, {171, 2}, {179, 3}} {
				trs = append(trs, Transfer{ID: i + 1, Src: 0, Dst: 2, Chunks: tr.chunks, Start: tr.start * 40 * time.Microsecond})
			}
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 8,
				CustodyBytes: 10 * units.MB, InitialRequestRate: units.Gbps, Ti: 800 * time.Microsecond,
			}, trs...)
		}},
		// Loops in step for a long time: ten transfers, five started
		// together, at 100 KB chunks, and twelve started within 120 µs
		// on a diamond.
		fixtureCase{"tie/in-step-chain", 2792 * time.Millisecond, func(t *testing.T) *Sim {
			g := topo.New("chain")
			g.AddNodes(3)
			g.MustAddLink(0, 1, 10*units.Gbps, time.Millisecond)
			g.MustAddLink(1, 2, units.Gbps, 8*time.Microsecond)
			var trs []Transfer
			for i, tr := range []struct {
				chunks int64
				start  time.Duration
			}{{96, 0}, {133, 320 * time.Microsecond}, {196, 0}, {178, 3048387}, {24, 1200 * time.Microsecond},
				{29, 560 * time.Microsecond}, {66, 560 * time.Microsecond}, {73, 0}, {47, 0}, {163, 0}} {
				trs = append(trs, Transfer{ID: i + 1, Src: 0, Dst: 2, Chunks: tr.chunks, Start: tr.start})
			}
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 100 * units.KB, Anticipation: 4,
				QueueBytes: 100 * units.KB, CustodyBytes: 2 * units.MB, InitialRequestRate: 100 * units.Mbps,
				Ti: 800 * time.Microsecond, Failover: FailoverReroute, ChurnSeed: 4,
			}, trs...)
		}},
		fixtureCase{"tie/in-step-diamond", 1275 * time.Millisecond, func(t *testing.T) *Sim {
			g := topo.New("diamond")
			g.AddNodes(4)
			g.MustAddLink(0, 1, 4*units.Gbps, 120*time.Microsecond)
			g.MustAddLink(1, 2, 2*units.Gbps, 40*time.Microsecond)
			g.MustAddLink(1, 3, 20*units.Gbps, 40*time.Microsecond)
			g.MustAddLink(3, 2, units.Gbps, 240*time.Microsecond)
			var trs []Transfer
			for i, tr := range []struct {
				chunks int64
				start  time.Duration
			}{{76, 0}, {170, 0}, {191, 2}, {80, 1}, {69, 1}, {236, 0}, {220, 3}, {112, 3}, {113, 0}, {90, 2}, {57, 3}, {77, 0}} {
				trs = append(trs, Transfer{ID: i + 1, Src: 0, Dst: 2, Chunks: tr.chunks, Start: tr.start * 40 * time.Microsecond})
			}
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 2,
				CustodyBytes: 10 * units.MB, InitialRequestRate: units.Gbps, Failover: FailoverBoth,
			}, trs...)
		}},
		// Loops in step though some started apart: a fan-in from four
		// leaves, eight of ten transfers at zero.
		fixtureCase{"tie/in-step-fanin", 1949 * time.Millisecond, func(t *testing.T) *Sim {
			g := topo.New("fanin")
			g.AddNodes(6)
			g.MustAddLink(0, 4, 100*units.Mbps, 80*time.Microsecond)
			maint := g.MustAddLink(1, 4, 2*units.Gbps, time.Millisecond)
			g.MustAddLink(2, 4, 100*units.Mbps, 8*time.Microsecond)
			g.MustAddLink(3, 4, 2*units.Gbps, 100*time.Microsecond)
			g.MustAddLink(4, 5, units.Gbps, 80*time.Microsecond)
			g.SetLinkCalendar(maint, topo.CalendarSpec{Windows: []topo.Window{{Start: 200 * time.Millisecond, End: 400 * time.Millisecond}}})
			var trs []Transfer
			for i, tr := range []struct {
				src    topo.NodeID
				chunks int64
				start  time.Duration
			}{{3, 41, 0}, {3, 185, 400 * time.Microsecond}, {3, 150, 0}, {1, 161, 0}, {0, 101, 4671312},
				{1, 58, 0}, {2, 208, 0}, {1, 66, 0}, {2, 150, 0}, {1, 22, 1440 * time.Microsecond}} {
				trs = append(trs, Transfer{ID: i + 1, Src: tr.src, Dst: 5, Chunks: tr.chunks, Start: tr.start})
			}
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 1,
				InitialRequestRate: 500 * units.Mbps, Failover: FailoverBoth, ChurnSeed: 4,
			}, trs...)
		}},
	)
	// Stalls: the outage ends so that the first chunk after it lands
	// exactly on the NACK's lattice point (305.04 ms), on the lattice
	// point one interval before it, and on neither.
	for _, down := range []time.Duration{299760 * time.Microsecond, 299680 * time.Microsecond, 299840 * time.Microsecond} {
		down := down
		cases = append(cases, fixtureCase{fmt.Sprintf("tie/nack-outage-%v", down), 2 * time.Second, func(t *testing.T) *Sim {
			return fixtureTieLine(t, 1, units.Gbps, 200*time.Microsecond, 10*units.KB, units.Gbps, 8, 200, down)
		}})
	}
	cases = append(cases,
		fixtureCase{"nack-rearm-outage", 60 * time.Second, func(t *testing.T) *Sim {
			outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 300 * time.Millisecond, Down: 150 * time.Millisecond}
			return newFixtureSim(t, churnConfig(churnChain(outage), INRPP, 2), Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 300})
		}},
		fixtureCase{"loss-nack", 30 * time.Second, func(t *testing.T) *Sim {
			g := churnChain(topo.OutageSpec{})
			g.SetLinkLoss(1, 0.05)
			return newFixtureSim(t, churnConfig(g, INRPP, 1), Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 300})
		}},
	)
	for _, mode := range []FailoverMode{FailoverHold, FailoverReroute, FailoverBoth} {
		mode := mode
		cases = append(cases, fixtureCase{"churn/" + mode.String(), 4 * time.Second, func(t *testing.T) *Sim {
			return fixtureDiamond(t, mode, 0.02)
		}})
	}
	cases = append(cases,
		fixtureCase{"fig3-detour", 20 * time.Second, func(t *testing.T) *Sim {
			return newFixtureSim(t, Config{
				Graph: topo.Fig3(), Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 64,
				CustodyBytes: 50 * units.MB, InitialRequestRate: 10 * units.Mbps, Ti: 5 * time.Millisecond,
			}, Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 800})
		}},
		fixtureCase{"backpressure-closed-loop", 4 * time.Second, func(t *testing.T) *Sim {
			g := topo.New("chain")
			g.AddNodes(3)
			g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
			g.MustAddLink(1, 2, 5*units.Mbps, time.Millisecond)
			return newFixtureSim(t, Config{
				Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 256,
				QueueBytes: 200 * units.KB, CustodyBytes: 800 * units.KB,
				InitialRequestRate: 100 * units.Mbps, Ti: 5 * time.Millisecond,
			}, Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 1500})
		}},
	)
	return cases
}

// formatReport renders every field of a report on one line, maps in key
// order.
func formatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprint(&b, r.Transport, r.Duration, " sent=", r.ChunksSent, " delivered=", r.ChunksDelivered,
		" dropped=", r.ChunksDropped, " detoured=", r.ChunksDetoured, " retx=", r.Retransmits,
		" down=", r.ArcDownTransitions, "/", r.ArcDownSeconds, " requeued=", r.ChunksRequeued,
		" lost=", r.ChunksLostInFlight, " srlg=", r.SRLGDownTransitions, " random=", r.PktsLostRandom,
		" failovers=", r.DetourFailovers, " evacuated=", r.ChunksEvacuated,
		" peak=", int64(r.CustodyPeak), " residency=", r.CustodyResidency.Mean(), "/", r.CustodyResidency.N(),
		" bp=", r.BackpressureOn, " closed=", r.ClosedLoopEntries)
	ids := make([]int, 0, len(r.DeliveredPerFlow))
	for id := range r.DeliveredPerFlow {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, " %d:%d", id, r.DeliveredPerFlow[id])
		if d, ok := r.Completions[id]; ok {
			fmt.Fprintf(&b, "@%v", d)
		}
	}
	return b.String()
}

// TestINRPPFixture runs every fixture case and compares the rendered
// reports with testdata/inrpp_fixture.txt byte for byte.
func TestINRPPFixture(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range fixtureCases() {
		rep := c.build(t).Run(c.horizon)
		fmt.Fprintf(&buf, "%s: %s\n", c.name, formatReport(rep))
	}
	path := filepath.Join("testdata", "inrpp_fixture.txt")
	if *updateFixture {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := strings.Split(buf.String(), "\n")
		for i, w := range strings.Split(string(want), "\n") {
			if i >= len(got) || got[i] != w {
				g := ""
				if i < len(got) {
					g = got[i]
				}
				t.Errorf("fixture line %d differs:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
