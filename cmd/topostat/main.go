// Command topostat prints per-ISP topology facts: the structural
// statistics of each graph and its detour profile, the per-link
// classification behind the paper's Table 1. It can also export a
// built-in topology as JSON.
//
// Usage:
//
//	topostat                              # all nine ISPs
//	topostat -isp "Level 3" [-links]      # one ISP, optionally per link
//	topostat -json topology.json          # a graph read from a file
//	topostat -isp "VSNL (IN)" -export vsnl.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/route"
	"repro/internal/topo"
)

func main() {
	ispName := flag.String("isp", "", "built-in ISP topology (default: all nine)")
	jsonPath := flag.String("json", "", "read the topology from this JSON file instead")
	perLink := flag.Bool("links", false, "also print the per-link detour classification")
	export := flag.String("export", "", "write the topology as JSON to this file (needs a single graph)")
	flag.Parse()

	var graphs []*topo.Graph
	switch {
	case *jsonPath != "":
		f, err := os.Open(*jsonPath)
		if err != nil {
			fatal(err)
		}
		g, err := topo.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		graphs = append(graphs, g)
	case *ispName != "":
		g, err := topo.BuildISP(topo.ISP(*ispName))
		if err != nil {
			fatal(fmt.Errorf("%w (known: %v)", err, topo.ISPs()))
		}
		graphs = append(graphs, g)
	default:
		for _, isp := range topo.ISPs() {
			graphs = append(graphs, topo.MustBuildISP(isp))
		}
	}
	if *export != "" && len(graphs) != 1 {
		fatal(fmt.Errorf("-export needs a single graph (-isp or -json)"))
	}

	for _, g := range graphs {
		describe(os.Stdout, g, *perLink)
	}
	if *export != "" {
		if err := writeJSON(*export, graphs[0]); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *export)
	}
}

// describe prints one graph's stats line and detour-profile line, then,
// with perLink, one line per link with its detour class.
func describe(w io.Writer, g *topo.Graph, perLink bool) {
	prof := route.Analyze(g)
	fmt.Fprintln(w, topo.ComputeStats(g))
	fmt.Fprintf(w, "%-14s %s\n", g.Name(), prof)
	if !perLink {
		return
	}
	for _, l := range g.Links() {
		fmt.Fprintf(w, "  link %3d  %3d-%-3d  %-8s cap=%v\n", l.ID, l.A, l.B, prof.PerLink[l.ID], l.Capacity)
	}
}

// writeJSON writes g to path. Close's error is returned, not dropped: on
// some file systems a failed write surfaces only there.
func writeJSON(path string, g *topo.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topostat:", err)
	os.Exit(1)
}
