// Custody demonstrates the back-pressure phase (§3.3) on the sweep
// engine: a sender pushes hard into a 20× bottleneck, once per transport
// on the transport axis of a chunknet grid. With INRPP, the bottleneck
// router takes custody of the pushed surplus and explicitly slows its
// upstream — no chunk is lost. The AIMD and ARC baselines on the same
// chain overflow their drop-tail buffer and pay in retransmissions.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/chunknet"
	"repro/internal/sweep"
	"repro/internal/units"
)

func main() {
	// src --4Gbps-- router --200Mbps-- receiver, 600MB offered.
	spec := sweep.ChunkSpec{
		IngressRate:  4 * units.Gbps,
		EgressRate:   200 * units.Mbps,
		ChunkSize:    units.MB,
		Anticipation: 512,
		Custody:      units.GB,     // INRPP custody budget at the router
		Buffer:       2 * units.MB, // AIMD/ARC drop-tail buffer
		Chunks:       600,
		Horizon:      30 * time.Second,
		Ti:           20 * time.Millisecond,
	}

	fmt.Println("pushing 600MB through a 4Gbps→200Mbps bottleneck chain")
	fmt.Println()

	grid := sweep.NewGrid().Axis("transport", "inrpp", "aimd", "arc")
	scenarios := grid.Expand(1, 1,
		func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
			s := spec
			s.Transport = sweep.MustParseTransport(pt.Get("transport"))
			return s.Run(seed)
		})
	results := (&sweep.Runner{}).Run(context.Background(), scenarios)

	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		v := r.Metrics.Values
		transport := sweep.MustParseTransport(r.Point.Get("transport"))
		fmt.Printf("%s\n", transport)
		fmt.Printf("  delivered    %.0f/600 chunks\n", v["delivered"])
		fmt.Printf("  dropped      %.0f\n", v["dropped"])
		fmt.Printf("  retransmits  %.0f\n", v["retransmits"])
		if transport == chunknet.INRPP {
			fmt.Printf("  custody peak %v, mean residency %.2fs\n",
				units.ByteSize(v["custody_peak_bytes"]), v["residency_mean_s"])
			fmt.Printf("  back-pressure: %.0f notifications, %.0f closed-loop entries\n",
				v["backpressure"], v["closed_loop"])
		}
		if fct := r.Metrics.Samples["completion_s"]; len(fct) > 0 {
			fmt.Printf("  completion   %.2fs\n", fct[0])
		}
		fmt.Println()
	}
}
