package chunknet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// TestBackpressureReleaseDeterministic is the regression test for the
// back-pressure release order: 64 transfers fan in from eight leaves
// through a hub onto one 2 Gbps bottleneck, with 100 MB of custody.
// At 400 chunks per transfer the hub's store already crosses its high
// watermark and notifies several upstream leaves. The release must send its back-pressure-off packets
// in a fixed order, so repeated runs on identical inputs must give
// identical reports.
func TestBackpressureReleaseDeterministic(t *testing.T) {
	const (
		leaves    = 8
		transfers = 64
		runs      = 5
	)
	g := topo.New("fanin")
	g.AddNodes(leaves + 2)
	hub, sink := topo.NodeID(leaves), topo.NodeID(leaves+1)
	for l := 0; l < leaves; l++ {
		g.MustAddLink(topo.NodeID(l), hub, 10*units.Gbps, time.Millisecond)
	}
	g.MustAddLink(hub, sink, 2*units.Gbps, time.Millisecond)

	run := func() *Report {
		s, err := New(Config{
			Graph: g, Transport: INRPP,
			ChunkSize: 10 * units.KB, Anticipation: 64,
			CustodyBytes: 100 * units.MB, InitialRequestRate: units.Gbps,
			Ti: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < transfers; i++ {
			if err := s.AddTransfer(Transfer{
				ID: i + 1, Src: topo.NodeID(i % leaves), Dst: sink,
				Chunks: 400, Start: time.Duration(i) * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s.Run(12 * time.Second)
	}

	first := run()
	if first.BackpressureOn == 0 {
		t.Fatal("back-pressure never fired; the release path is not exercised")
	}
	for i := 1; i < runs; i++ {
		if rep := run(); !reflect.DeepEqual(first, rep) {
			t.Fatalf("run %d diverged from run 0 on identical inputs:\nrun 0: %+v\nrun %d: %+v", i, first, i, rep)
		}
	}
}
