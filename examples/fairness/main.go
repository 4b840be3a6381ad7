// Fairness walks through the paper's Figure 3 example: two flows on the
// 10/2/5/5 Mbps topology, allocated end-to-end (TCP-style max-min) and
// then with in-network resource pooling. It reproduces the quoted numbers:
// (8,2) Mbps with Jain 0.73 versus (5,5) Mbps with Jain 1.0.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/topo"
)

func main() {
	g := topo.Fig3()
	fmt.Println("Figure 3 topology:")
	fmt.Println("  src --10Mbps-- r --2Mbps-- dstA   (bottleneck)")
	fmt.Println("                 |    ^")
	fmt.Println("               5Mbps  | 5Mbps       (the detour via d)")
	fmt.Println("                 +-- d +")
	fmt.Println("                 +--10Mbps-- dstB")
	fmt.Printf("  (%d nodes, %d links)\n\n", g.NumNodes(), g.NumLinks())

	res, err := experiments.Fig3()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("end-to-end control (left half of Fig. 3):")
	fmt.Printf("  flow A (through bottleneck): %.1f Mbps\n", res.E2ERatesMbps[0])
	fmt.Printf("  flow B:                      %.1f Mbps\n", res.E2ERatesMbps[1])
	fmt.Printf("  Jain fairness index:         %.3f   (paper: 0.73)\n\n", res.E2EJain)

	fmt.Println("INRPP (right half of Fig. 3):")
	fmt.Printf("  flow A: %.1f Mbps (%.0f%% of its bits took the r→d→dstA detour)\n",
		res.INRPRatesMbps[0], 100*res.DetouredShare/0.5)
	fmt.Printf("  flow B: %.1f Mbps\n", res.INRPRatesMbps[1])
	fmt.Printf("  Jain fairness index: %.3f   (paper: 1.0)\n", res.INRPJain)
}
