// Detour reproduces one row of the paper's Table 1 in detail: it builds a
// synthetic ISP topology, classifies every link by its shortest
// alternative path and prints the distribution next to the paper's
// published percentages.
package main

import (
	"fmt"
	"log"

	"repro/internal/route"
	"repro/internal/topo"
)

func main() {
	const isp = topo.Sprint

	g, err := topo.BuildISP(isp)
	if err != nil {
		log.Fatal(err)
	}
	prof := route.Analyze(g)
	paper, err := topo.PaperDetourProfile(isp)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — %d nodes, %d links\n\n", isp, g.NumNodes(), g.NumLinks())
	fmt.Printf("%-9s %-8s %-8s\n", "class", "paper", "measured")
	rows := []struct {
		class route.Class
		paper float64
	}{
		{route.ClassOneHop, paper.OneHop},
		{route.ClassTwoHop, paper.TwoHop},
		{route.ClassThreePlus, paper.ThreePlus},
		{route.ClassNone, paper.None},
	}
	for _, r := range rows {
		fmt.Printf("%-9s %6.2f%%  %6.2f%%\n", r.class, 100*r.paper, 100*prof.Fraction(r.class))
	}

	// Show a few concrete detours: the planner's view of the first
	// congestible links.
	fmt.Println("\nsample detours (first 5 detourable links):")
	shown := 0
	for _, l := range g.Links() {
		if shown == 5 {
			break
		}
		subs := route.Subpaths(g, l.ID, true, 3)
		if len(subs) == 0 {
			continue
		}
		fmt.Printf("  link %d-%d:", l.A, l.B)
		for _, sp := range subs {
			fmt.Printf("  via %v (+%d hop)", sp.Path, sp.Extra)
		}
		fmt.Println()
		shown++
	}
}
