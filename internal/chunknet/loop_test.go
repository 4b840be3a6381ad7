package chunknet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestConfigValidation: New rejects every out-of-range field with an
// error that names it, instead of panicking deep inside the build or
// running to the horizon without delivering anything.
func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		field string
		edit  func(*Config)
	}{
		{"Transport", func(c *Config) { c.Transport = Transport(7) }},
		{"Transport", func(c *Config) { c.Transport = Transport(-1) }},
		{"failover", func(c *Config) { c.Failover = FailoverMode(-1) }},
		{"ChunkSize", func(c *Config) { c.ChunkSize = -units.KB }},
		{"Anticipation", func(c *Config) { c.Anticipation = -3 }},
		{"InitialRequestRate", func(c *Config) { c.InitialRequestRate = -units.Mbps }},
		{"QueueBytes", func(c *Config) { c.QueueBytes = -1 }},
		{"CustodyBytes", func(c *Config) { c.CustodyBytes = -units.MB }},
		{"Ti", func(c *Config) { c.Ti = -time.Millisecond }},
		{"MinRTO", func(c *Config) { c.MinRTO = -time.Millisecond }},
	} {
		cfg := Config{Graph: topo.Line(3), Transport: INRPP}
		c.edit(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("New accepted a bad %s", c.field)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error %q does not name %s", err, c.field)
		}
	}
	// Zero values select the defaults and stay valid.
	if _, err := New(Config{Graph: topo.Line(3), Transport: ARC}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestLoopLattice pins the parked request loop's lattice arithmetic: the
// loop parked at t with interval I idles on t+kI, a wake goes to the
// first point at or after the delivery, and the NACK goes out on the
// first point strictly past the stall deadline.
func TestLoopLattice(t *testing.T) {
	const t0, ivl = 5 * time.Millisecond, 80 * time.Microsecond
	for _, c := range []struct {
		name string
		now  time.Duration
		at   time.Duration
	}{
		{"same instant as the park", t0, t0 + ivl},
		{"inside the first interval", t0 + 1, t0 + ivl},
		{"on the first point", t0 + ivl, t0 + ivl},
		{"after 3 idle intervals", t0 + 3*ivl + 7*time.Microsecond, t0 + 4*ivl},
		{"on a later point", t0 + 7*ivl, t0 + 7*ivl},
		{"one ns past a point", t0 + 7*ivl + 1, t0 + 8*ivl},
	} {
		if at := nextLattice(t0, ivl, c.now); at != c.at {
			t.Errorf("%s: nextLattice = %v, want %v", c.name, at, c.at)
		}
	}
	for _, c := range []struct {
		name string
		due  time.Duration
		want time.Duration
	}{
		{"deadline already passed", t0 - time.Millisecond, t0 + ivl},
		{"deadline at the park", t0, t0 + ivl},
		{"deadline inside an interval", t0 + 2*ivl + 1, t0 + 3*ivl},
		// now-lastData > nackStall is strict: a run on the deadline
		// itself still idles.
		{"deadline on a lattice point", t0 + 3750*ivl, t0 + 3751*ivl},
	} {
		if got := nackLattice(t0, ivl, c.due); got != c.want {
			t.Errorf("%s: nackLattice = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestParkedLoopFiresNoIdleTicks: a receiver whose Ac window is full
// schedules nothing until data arrives. Over a 200 ms one-way path at the
// 10 µs interval floor, a polling loop would tick 40,000 times before
// the first chunk returned; the parked loop fires one run per request,
// plus the stall NACK's run.
func TestParkedLoopFiresNoIdleTicks(t *testing.T) {
	g := topo.New("long")
	g.AddNodes(2)
	g.MustAddLink(0, 1, units.Gbps, 200*time.Millisecond)
	reg := obs.New("parked-loop")
	s, err := New(Config{
		Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: 8,
		InitialRequestRate: 10 * units.Gbps, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 1, Chunks: 100}); err != nil {
		t.Fatal(err)
	}
	s.Run(399 * time.Millisecond) // the first chunk arrives at 400 ms
	if fired := reg.Counter("des_events_fired").Value(); fired > 200 {
		t.Errorf("%d DES events before the first delivery; the idle loop is polling", fired)
	}
}

// TestRequestLoopOrder checks the model's equal-time order on random
// configurations built to tie: line, diamond, star and fan-in shapes
// with round-number rates, delays and starts, and transfers between
// random node pairs, so receivers also send. At one instant every other
// event fires before the request-loop runs, so no chunk of a transfer
// is delivered at an instant at which its loop has already run, and the
// runs of one receiver fire once each, in AddTransfer order.
func TestRequestLoopOrder(t *testing.T) {
	const us = time.Microsecond
	rates := []units.BitRate{100 * units.Mbps, 500 * units.Mbps, units.Gbps, 2 * units.Gbps, 10 * units.Gbps}
	delays := []time.Duration{8 * us, 20 * us, 40 * us, 80 * us, 100 * us, 160 * us}
	rng := rand.New(rand.NewSource(1))
	pick := func(n int) int { return rng.Intn(n) }
	for i := 0; i < 1000; i++ {
		g := topo.New("order")
		link := func(a, b int) {
			g.MustAddLink(topo.NodeID(a), topo.NodeID(b), rates[pick(len(rates))], delays[pick(len(delays))])
		}
		var shape string
		switch pick(4) {
		case 0:
			shape = "line"
			g.AddNodes(3 + pick(3))
			for n := 1; n < g.NumNodes(); n++ {
				link(n-1, n)
			}
		case 1:
			shape = "diamond"
			g.AddNodes(4)
			link(0, 1)
			link(0, 2)
			link(1, 3)
			link(2, 3)
		case 2:
			shape = "star"
			g.AddNodes(4 + pick(3))
			for n := 1; n < g.NumNodes(); n++ {
				link(0, n)
			}
		default:
			shape = "fanin"
			leaves := 3 + pick(3)
			g.AddNodes(leaves + 2)
			for l := 0; l < leaves; l++ {
				link(l, leaves)
			}
			link(leaves, leaves+1)
		}
		trs := make([]Transfer, 2+pick(7))
		for j := range trs {
			src := pick(g.NumNodes())
			dst := (src + 1 + pick(g.NumNodes()-1)) % g.NumNodes()
			trs[j] = Transfer{ID: j + 1, Src: topo.NodeID(src), Dst: topo.NodeID(dst),
				Chunks: int64(10 + pick(40)), Start: time.Duration(pick(8)) * 40 * us}
		}
		name := fmt.Sprintf("config %d (%s)", i, shape)
		s := newFixtureSim(t, Config{
			Graph: g, Transport: INRPP, ChunkSize: 10 * units.KB, Anticipation: int64(1 << pick(4)),
			CustodyBytes: 10 * units.MB, InitialRequestRate: rates[1+pick(3)],
		}, trs...)
		var faults []string
		type run struct {
			at   time.Duration
			rank int
		}
		last := map[topo.NodeID]run{}
		for rank, f := range s.flows {
			rank, f, loop := rank, f, f.loopFn
			f.loopFn = func() {
				now := s.des.Now()
				if r, ok := last[f.tr.Dst]; ok && r.at == now && r.rank >= rank {
					faults = append(faults, fmt.Sprintf("at %v, receiver %d runs transfer %d after transfer %d",
						now, f.tr.Dst, f.tr.ID, s.flows[r.rank].tr.ID))
				}
				last[f.tr.Dst] = run{now, rank}
				loop()
				n := f.win.Count()
				// This check fires after every event pending at now.
				s.des.At(now, func() {
					if f.win.Count() != n {
						faults = append(faults, fmt.Sprintf("at %v, transfer %d gets a chunk after its loop ran",
							now, f.tr.ID))
					}
				})
			}
		}
		s.Run(200 * time.Millisecond)
		if len(faults) > 0 {
			t.Errorf("%s: %d order faults, first: %s", name, len(faults), faults[0])
		}
	}
}
