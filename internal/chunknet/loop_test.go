package chunknet

import (
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
		name    string
		now     time.Duration
		at      time.Duration
		onPoint bool
	}{
		{"same instant as the park", t0, t0 + ivl, false},
		{"inside the first interval", t0 + 1, t0 + ivl, false},
		{"on the first point", t0 + ivl, t0 + ivl, true},
		{"after 3 idle intervals", t0 + 3*ivl + 7*time.Microsecond, t0 + 4*ivl, false},
		{"on a later point", t0 + 7*ivl, t0 + 7*ivl, true},
		{"one ns past a point", t0 + 7*ivl + 1, t0 + 8*ivl, false},
	} {
		at, on := nextLattice(t0, ivl, c.now)
		if at != c.at || on != c.onPoint {
			t.Errorf("%s: nextLattice = %v, %v; want %v, %v", c.name, at, on, c.at, c.onPoint)
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

// TestTickBeforeArrival pins the equal-time tie rule between a polling
// run on a lattice point and a data arrival at the same instant: the
// event whose key was taken earlier fires first.
func TestTickBeforeArrival(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		name                string
		interval, delay, tx time.Duration
		tickFirst           bool
	}{
		// The run's key was taken at now-I, the arrival's at now-d.
		{"interval below delay", 80 * us, 1000 * us, 8 * us, false},
		{"interval above delay", 80 * us, 20 * us, 8 * us, true},
		// I == d: the run before took its key at now-2I, the serializer
		// its completion key at now-d-tx.
		{"equal, serialisation shorter", 80 * us, 80 * us, 8 * us, true},
		{"equal, serialisation longer", 80 * us, 80 * us, 160 * us, false},
		{"equal, serialisation equal", 80 * us, 80 * us, 80 * us, true},
	} {
		if got := tickBeforeArrival(c.interval, c.delay, c.tx); got != c.tickFirst {
			t.Errorf("%s: tickBeforeArrival = %v, want %v", c.name, got, c.tickFirst)
		}
	}
}

// TestParkedLoopFiresNoIdleTicks: a receiver whose Ac window is full
// schedules nothing until data arrives. Over a 200 ms one-way path at the
// 10 µs interval floor, a polling loop would tick 40,000 times before
// the first chunk returned; the parked loop fires one run per request,
// plus the stall NACK and its lead-in run.
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

// TestLoopBefore pins the order loopBefore gives two loops' runs at one
// instant: the run whose predecessor took its key earlier fires first,
// equal predecessors are ordered one step further back, and first runs,
// keyed before any event, fire first and in AddTransfer order.
func TestLoopBefore(t *testing.T) {
	const us = time.Microsecond
	type run struct{ at, ivl time.Duration }
	loop := func(order int32, runs ...run) *loopState {
		l := &loopState{order: order}
		for _, r := range runs {
			l.noteRun(r.at, r.ivl)
		}
		return l
	}
	// many has more stretches than a loop keeps: each run sets a new
	// interval. It returns the loop and the instant of its next run.
	many := func(order int32) (*loopState, time.Duration) {
		l, at := &loopState{order: order}, time.Duration(0)
		for i := 1; i <= loopSegs+2; i++ {
			ivl := time.Duration(i) * 10 * us
			l.noteRun(at, ivl)
			at += ivl
		}
		return l, at
	}
	deepA, next := many(0)
	deepB, _ := many(1)
	for _, c := range []struct {
		name       string
		a, b       *loopState
		at         time.Duration
		before, ok bool
	}{
		{"longer interval took its key first", loop(1, run{0, 100 * us}), loop(0, run{0, 50 * us}), 100 * us, true, true},
		{"started together, AddTransfer order", loop(0, run{0, 80 * us}), loop(1, run{0, 80 * us}), 800 * us, true, true},
		{"started together, AddTransfer order reversed", loop(1, run{0, 80 * us}), loop(0, run{0, 80 * us}), 800 * us, false, true},
		{"a first run beats an older loop", loop(0, run{0, 80 * us}), loop(1, run{160 * us, 80 * us}), 800 * us, false, true},
		{"equal stretches walk back to the start", loop(1, run{0, 80 * us}, run{400 * us, 100 * us}),
			loop(0, run{0, 80 * us}, run{400 * us, 100 * us}), 900 * us, false, true},
		{"in step beyond the kept stretches", deepA, deepB, next, false, false},
	} {
		before, ok := loopBefore(c.a, c.b, c.at)
		if before != c.before || ok != c.ok {
			t.Errorf("%s: loopBefore = %v, %v; want %v, %v", c.name, before, ok, c.before, c.ok)
		}
	}
	// Loops in step over all their kept stretches most likely started
	// together: they fall back to AddTransfer order.
	if !pollsBefore(deepA, deepB, next) || pollsBefore(deepB, deepA, next) {
		t.Error("loops in step beyond their kept stretches are not in AddTransfer order")
	}
}
