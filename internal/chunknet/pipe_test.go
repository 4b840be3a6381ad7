package chunknet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// TestPipeBounded pins the propagation pipe's memory to what is actually
// in flight: on a saturated 64-transfer fan-in the bottleneck arc is never
// idle, so a pipe that only resets when it drains would grow its backing
// array by one slot per packet sent. Every arc's cap(pipe) must stay
// within a small multiple of its peak in-flight count, under both the
// custody transport and drop-tail AIMD.
func TestPipeBounded(t *testing.T) {
	const leaves, transfers = 8, 64
	for _, tr := range []Transport{INRPP, AIMD} {
		g := topo.New("fanin")
		g.AddNodes(leaves + 2)
		hub, sink := topo.NodeID(leaves), topo.NodeID(leaves+1)
		for l := 0; l < leaves; l++ {
			g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, time.Millisecond)
		}
		g.MustAddLink(hub, sink, 2*units.Gbps, time.Millisecond)
		cfg := Config{Graph: g, Transport: tr, ChunkSize: 10 * units.KB, Anticipation: 64}
		if tr == INRPP {
			cfg.CustodyBytes = 200 * units.MB
			cfg.InitialRequestRate = units.Gbps
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const chunks = 400
		for i := 0; i < transfers; i++ {
			if err := s.AddTransfer(Transfer{
				ID: i + 1, Src: topo.NodeID(i % leaves), Dst: sink,
				Chunks: chunks, Start: time.Duration(i) * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		// The pipe only grows in txDone, so sampling there sees the peak
		// in-flight count and the peak backing array. Run hands the array
		// on when it returns, so its capacity must be read here, not after.
		// A warm Sim may start with a larger array left by an earlier run;
		// only an array this run grew counts against the bound. Run also
		// hands the arc states on, zeroed, so each arc's ends are noted
		// here and its own txDone is bound again before a later Sim can
		// reuse it.
		arcs := slices.Clone(s.arcs)
		ends := make([]string, len(s.arcs))
		bottleneck := -1
		peak := make([]int, len(s.arcs))
		peakCap := make([]int, len(s.arcs))
		sent := make([]int, len(s.arcs))
		grown := make([]bool, len(s.arcs))
		for i, a := range s.arcs {
			if a == nil {
				continue
			}
			i, a := i, a
			ends[i] = fmt.Sprintf("%d>%d", a.from, a.to)
			if a.from == hub && a.to == sink {
				bottleneck = i
			}
			peakCap[i] = cap(a.pipe)
			a.txDoneFn = func() {
				a.txDone()
				sent[i]++
				if n := len(a.pipe) - a.pipeHead; n > peak[i] {
					peak[i] = n
				}
				if c := cap(a.pipe); c > peakCap[i] {
					peakCap[i] = c
					grown[i] = true
				}
			}
		}
		rep := s.Run(10 * time.Second)
		for _, a := range arcs {
			if a != nil {
				a.txDoneFn = a.txDone
			}
		}
		if len(rep.Completions) != transfers {
			t.Fatalf("%v: %d of %d transfers completed", tr, len(rep.Completions), transfers)
		}
		for i, a := range arcs {
			if a == nil {
				continue
			}
			if c := peakCap[i]; grown[i] && c > 4*peak[i]+256 {
				t.Errorf("%v arc %s: peak cap(pipe) = %d over %d packets, peak in flight %d",
					tr, ends[i], c, sent[i], peak[i])
			}
		}
		// The check only means something if the bottleneck carried far
		// more packets than the bound allows slots.
		if bottleneck < 0 {
			t.Fatalf("%v: no %d>%d arc", tr, hub, sink)
		}
		if n := sent[bottleneck]; n < transfers*chunks {
			t.Fatalf("%v: bottleneck sent %d packets, want at least %d", tr, n, transfers*chunks)
		}
	}
}
