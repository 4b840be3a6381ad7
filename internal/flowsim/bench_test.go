package flowsim

import (
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

func benchFlows(g *topo.Graph, n int) []workload.Flow {
	return workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(50, 1),
		Sizes:    workload.NewBoundedPareto(1.5, 10*units.MB, units.GB, 2),
		Matrix:   workload.NewGravity(g, 3),
		Count:    n,
	})
}

func BenchmarkProgressiveFill(b *testing.B) {
	g := topo.MustBuildISP(topo.Exodus)
	flows := benchFlows(g, 200)
	// Pre-resolve paths once; the benchmark measures the filler itself.
	nArcs := 2 * g.NumLinks()
	capacity := make([]float64, nArcs)
	for _, l := range g.Links() {
		capacity[2*int(l.ID)] = float64(l.Capacity)
		capacity[2*int(l.ID)+1] = float64(l.Capacity)
	}
	paths := make([][]int32, 0, len(flows))
	for _, f := range flows {
		p := topoPath(g, f)
		paths = append(paths, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progressiveFill(paths, capacity, nil)
	}
}

func topoPath(g *topo.Graph, f workload.Flow) []int32 {
	r := &runner{cfg: Config{Graph: g, Policy: SP}, g: g}
	r.init()
	p := r.pathFor(f)
	arcs, err := p.Arcs(g)
	if err != nil {
		panic(err)
	}
	out := make([]int32, len(arcs))
	for i, a := range arcs {
		out[i] = arcIndex(a)
	}
	return out
}

// BenchmarkFillClasses measures the weighted class-based fill on the
// same workload as BenchmarkProgressiveFill: the per-flow reference
// filler's working set collapses to one class per distinct path.
func BenchmarkFillClasses(b *testing.B) {
	g := topo.MustBuildISP(topo.Exodus)
	flows := benchFlows(g, 200)
	r := &runner{cfg: Config{Graph: g, Policy: SP}, g: g}
	r.init()
	for _, f := range flows {
		if err := r.admit(f, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.classFill(r.capBase)
	}
}

// BenchmarkFillClassesSparse measures the fill where most of the
// topology is idle: a handful of live classes on Level 3, the built-in
// ISP with the most arcs (1,092). The fill is seeded from the live arcs
// only, so its cost follows the load, not the arc count.
func BenchmarkFillClassesSparse(b *testing.B) {
	g := topo.MustBuildISP(topo.Level3)
	r := &runner{cfg: Config{Graph: g, Policy: SP}, g: g}
	r.init()
	for _, f := range benchFlows(g, 6) {
		if err := r.admit(f, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.classFill(r.capBase)
	}
}

func BenchmarkRunSP(b *testing.B) {
	g := topo.MustBuildISP(topo.Exodus)
	g.SetAllCapacities(450 * units.Mbps)
	flows := benchFlows(g, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Graph: g, Policy: SP, Flows: flows,
			Horizon: 5 * time.Second, DemandCap: 300 * units.Mbps}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunINRP(b *testing.B) {
	g := topo.MustBuildISP(topo.Exodus)
	g.SetAllCapacities(450 * units.Mbps)
	flows := benchFlows(g, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Graph: g, Policy: INRP, Flows: flows,
			Horizon: 5 * time.Second, DemandCap: 300 * units.Mbps}); err != nil {
			b.Fatal(err)
		}
	}
}
