// Command inrppsim runs the chunk-level INRPP (or AIMD/ARC baseline)
// simulator on a bottleneck chain or a built-in topology and prints the
// protocol-level counters: phases, detours, custody occupancy and
// back-pressure activity.
//
// Usage:
//
//	inrppsim -transport inrpp -chunks 2000 -ingress 40Gbps -egress 2Gbps \
//	         -custody 10GB -horizon 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chunknet"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	transportName := flag.String("transport", "inrpp", "transport: inrpp|aimd|arc")
	ispName := flag.String("isp", "", "run on a built-in ISP topology instead of the chain")
	chunks := flag.Int64("chunks", 2000, "chunks per transfer")
	chunkSizeStr := flag.String("chunksize", "10MB", "chunk size")
	ingressStr := flag.String("ingress", "40Gbps", "chain ingress link rate")
	egressStr := flag.String("egress", "2Gbps", "chain egress (bottleneck) link rate")
	custodyStr := flag.String("custody", "10GB", "custody budget per interface (INRPP)")
	anticipation := flag.Int64("ac", 256, "anticipation window Ac (chunks)")
	horizon := flag.Duration("horizon", 5*time.Second, "virtual time horizon")
	flag.Parse()

	transport := must(sweep.ParseTransport(*transportName))
	chunkSize := must(units.ParseByteSize(*chunkSizeStr))
	custody := must(units.ParseByteSize(*custodyStr))
	ingress := must(units.ParseBitRate(*ingressStr))
	egress := must(units.ParseBitRate(*egressStr))

	// The chain is the sweep's custody bottleneck chain, so a one-off run
	// is the topology a chunk-mode grid sweep would run.
	g := sweep.ChunkSpec{IngressRate: ingress, EgressRate: egress}.Graph()
	src, dst := topo.NodeID(0), topo.NodeID(2)
	if *ispName != "" {
		g = must(topo.BuildISP(topo.ISP(*ispName)))
		src, dst = 0, topo.NodeID(g.NumNodes()-1)
	}

	s, err := chunknet.New(chunknet.Config{
		Graph:              g,
		Transport:          transport,
		ChunkSize:          chunkSize,
		Anticipation:       *anticipation,
		CustodyBytes:       custody,
		InitialRequestRate: ingress,
		Ti:                 50 * time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	if err := s.AddTransfer(chunknet.Transfer{ID: 1, Src: src, Dst: dst, Chunks: *chunks}); err != nil {
		fatal(err)
	}
	rep := s.Run(*horizon)

	fmt.Printf("transport        %s\n", rep.Transport)
	fmt.Printf("topology         %s (%d nodes, %d links)\n", g.Name(), g.NumNodes(), g.NumLinks())
	fmt.Printf("offered          %d chunks × %v\n", *chunks, chunkSize)
	fmt.Printf("sent/delivered   %d / %d\n", rep.ChunksSent, rep.ChunksDelivered)
	fmt.Printf("dropped          %d\n", rep.ChunksDropped)
	fmt.Printf("detoured         %d\n", rep.ChunksDetoured)
	fmt.Printf("retransmits      %d\n", rep.Retransmits)
	fmt.Printf("custody peak     %v\n", rep.CustodyPeak)
	if rep.CustodyResidency.N() > 0 {
		fmt.Printf("custody residency mean %.3fs max %.3fs (%d chunks)\n",
			rep.CustodyResidency.Mean(), rep.CustodyResidency.Max(), rep.CustodyResidency.N())
	}
	fmt.Printf("back-pressure    %d notifications, %d closed-loop entries\n",
		rep.BackpressureOn, rep.ClosedLoopEntries)
	if fct, ok := rep.Completions[1]; ok {
		fmt.Printf("completion       %v\n", fct)
	} else {
		fmt.Printf("completion       not finished within %v (%d/%d chunks)\n",
			*horizon, rep.DeliveredPerFlow[1], *chunks)
	}
}

// must returns v, or exits reporting err.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inrppsim:", err)
	os.Exit(1)
}
