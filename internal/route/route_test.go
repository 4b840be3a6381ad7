package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

func TestShortestPathLine(t *testing.T) {
	g := topo.Line(5)
	p := ShortestPath(g, 0, 4)
	want := Path{0, 1, 2, 3, 4}
	if !p.Equal(want) {
		t.Errorf("path = %v, want %v", p, want)
	}
	if p.Hops() != 4 {
		t.Errorf("hops = %d, want 4", p.Hops())
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := topo.New("x")
	g.AddNodes(2)
	if p := ShortestPath(g, 0, 1); p != nil {
		t.Errorf("disconnected path = %v, want nil", p)
	}
	if d := HopDistance(g, 0, 1); d != -1 {
		t.Errorf("disconnected distance = %d, want -1", d)
	}
}

func TestDijkstraWeights(t *testing.T) {
	// Weighted triangle: direct link is heavy, two-hop route is light.
	g := topo.New("w")
	g.AddNodes(3)
	g.MustAddLink(0, 2, units.Gbps, 0) // heavy
	g.MustAddLink(0, 1, units.Gbps, 0)
	g.MustAddLink(1, 2, units.Gbps, 0)
	weight := func(l topo.Link) float64 {
		if l.A == 0 && l.B == 2 {
			return 10
		}
		return 1
	}
	tree := Dijkstra(g, 0, weight, nil)
	if got := tree.PathTo(2); !got.Equal(Path{0, 1, 2}) {
		t.Errorf("weighted path = %v, want 0→1→2", got)
	}
	if tree.Dist[2] != 2 {
		t.Errorf("weighted dist = %v, want 2", tree.Dist[2])
	}
}

func TestDijkstraAvoid(t *testing.T) {
	g := topo.Ring(5)
	l, _ := g.LinkBetween(0, 1)
	p := Dijkstra(g, 0, nil, AvoidLink(l.ID)).PathTo(1)
	if p.Hops() != 4 {
		t.Errorf("avoiding direct link, hops = %d, want 4", p.Hops())
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.ErdosRenyi(4+rng.Intn(24), 0.25, seed)
		topo.Connect(g)
		src := topo.NodeID(rng.Intn(g.NumNodes()))
		tree := Dijkstra(g, src, nil, nil)
		bfs := HopDistances(g, src, nil)
		for i, d := range bfs {
			dd := tree.Dist[i]
			if d < 0 {
				if !math.IsInf(dd, 1) {
					return false
				}
				continue
			}
			if float64(d) != dd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPathHelpers(t *testing.T) {
	g := topo.Fig3()
	p := Path{0, 1, 3, 2} // src → r → d → dstA
	if !p.Valid(g) {
		t.Fatal("path should be valid")
	}
	links, err := p.Links(g)
	if err != nil || len(links) != 3 {
		t.Fatalf("Links = %v, %v", links, err)
	}
	arcs, err := p.Arcs(g)
	if err != nil || len(arcs) != 3 {
		t.Fatalf("Arcs = %v, %v", arcs, err)
	}
	d, err := p.Delay(g)
	if err != nil || d != 3*topo.DefaultDelay {
		t.Errorf("Delay = %v, want %v", d, 3*topo.DefaultDelay)
	}
	if p.Src() != 0 || p.Dst() != 2 || !p.Contains(3) || p.Contains(4) {
		t.Error("Src/Dst/Contains wrong")
	}
	if got := Stretch(g, p); got != 1.5 {
		t.Errorf("Stretch = %v, want 1.5 (3 hops vs 2)", got)
	}
	if p.String() != "0→1→3→2" {
		t.Errorf("String = %q", p.String())
	}
	bad := Path{0, 2}
	if bad.Valid(g) {
		t.Error("nonexistent link should invalidate path")
	}
	loopy := Path{0, 1, 0}
	if loopy.Valid(g) {
		t.Error("loop should invalidate path")
	}
}

func TestECMPGrid(t *testing.T) {
	g := topo.Grid(2, 2) // 0-1 / 2-3 square: two equal paths corner to corner
	e := NewECMP(g, 3)
	paths := e.Paths(0, 0)
	if len(paths) != 2 {
		t.Fatalf("equal-cost paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Hops() != 2 || !p.Valid(g) {
			t.Errorf("bad ECMP path %v", p)
		}
	}
	// Different keys should collectively use both paths.
	used := map[string]bool{}
	for key := uint64(0); key < 32; key++ {
		used[e.PathFor(0, key).String()] = true
	}
	if len(used) != 2 {
		t.Errorf("hash split used %d paths, want 2", len(used))
	}
	// Same key, same path.
	if !e.PathFor(0, 7).Equal(e.PathFor(0, 7)) {
		t.Error("PathFor should be deterministic per key")
	}
}

func TestECMPPathsAreShortest(t *testing.T) {
	g := topo.MustBuildISP(topo.VSNL)
	for _, dstNode := range g.Nodes() {
		e := NewECMP(g, dstNode.ID)
		for _, srcNode := range g.Nodes() {
			if srcNode.ID == dstNode.ID {
				continue
			}
			p := e.PathFor(srcNode.ID, 12345)
			if p == nil {
				t.Fatalf("no ECMP path %d→%d", srcNode.ID, dstNode.ID)
			}
			want := HopDistance(g, srcNode.ID, dstNode.ID)
			if p.Hops() != want {
				t.Errorf("ECMP path %d→%d has %d hops, want %d", srcNode.ID, dstNode.ID, p.Hops(), want)
			}
			if !p.Valid(g) {
				t.Errorf("ECMP path %v invalid", p)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	triangle := topo.Ring(3)
	square := topo.Ring(4)
	penta := topo.Ring(5)
	line := topo.Line(3)

	cases := []struct {
		name string
		g    *topo.Graph
		want Class
		alt  int
	}{
		{"triangle", triangle, ClassOneHop, 2},
		{"square", square, ClassTwoHop, 3},
		{"pentagon", penta, ClassThreePlus, 4},
		{"line", line, ClassNone, 0},
	}
	for _, tt := range cases {
		c, alt := Classify(tt.g, 0)
		if c != tt.want || alt != tt.alt {
			t.Errorf("%s: Classify = %v,%d want %v,%d", tt.name, c, alt, tt.want, tt.alt)
		}
	}
}

func TestClassifyMatchesBridges(t *testing.T) {
	// ClassNone must coincide exactly with Tarjan's bridges.
	f := func(seed int64) bool {
		g := topo.ErdosRenyi(12, 0.18, seed)
		bridges := map[topo.LinkID]bool{}
		for _, b := range topo.Bridges(g) {
			bridges[b] = true
		}
		prof := Analyze(g)
		for _, l := range g.Links() {
			isNone := prof.PerLink[l.ID] == ClassNone
			if isNone != bridges[l.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeProfileSums(t *testing.T) {
	g := topo.MustBuildISP(topo.Exodus)
	p := Analyze(g)
	if p.Total != g.NumLinks() {
		t.Errorf("profile total = %d, want %d", p.Total, g.NumLinks())
	}
	sum := 0
	for _, c := range p.Counts {
		sum += c
	}
	if sum != p.Total {
		t.Errorf("class counts sum to %d, want %d", sum, p.Total)
	}
	frac := p.Fraction(ClassOneHop) + p.Fraction(ClassTwoHop) + p.Fraction(ClassThreePlus) + p.Fraction(ClassNone)
	if math.Abs(frac-1) > 1e-9 {
		t.Errorf("fractions sum to %v", frac)
	}
}

// TestISPCalibration is the heart of the Table 1 reproduction: every
// synthetic ISP's measured detour profile must track the paper's published
// row within a small tolerance (integer gadget arithmetic causes ≤ ~1.5
// percentage point deviations on small topologies).
func TestISPCalibration(t *testing.T) {
	const tolerance = 0.02
	for _, isp := range topo.ISPs() {
		g := topo.MustBuildISP(isp)
		paper, err := topo.PaperDetourProfile(isp)
		if err != nil {
			t.Fatal(err)
		}
		got := Analyze(g).Targets()
		check := func(name string, gotF, wantF float64) {
			if math.Abs(gotF-wantF) > tolerance {
				t.Errorf("%s %s: measured %.4f vs paper %.4f (tolerance %.2f)", isp, name, gotF, wantF, tolerance)
			}
		}
		check("1-hop", got.OneHop, paper.OneHop)
		check("2-hop", got.TwoHop, paper.TwoHop)
		check("3+", got.ThreePlus, paper.ThreePlus)
		check("N/A", got.None, paper.None)
	}
}

func TestSubpathsFig3(t *testing.T) {
	g := topo.Fig3()
	bottleneck, _ := g.LinkBetween(1, 2) // r → dstA
	subs := Subpaths(g, bottleneck.ID, true, 0)
	if len(subs) != 1 {
		t.Fatalf("Fig3 bottleneck detours = %d, want 1: %v", len(subs), subs)
	}
	if !subs[0].Path.Equal(Path{1, 3, 2}) || subs[0].Extra != 1 {
		t.Errorf("detour = %+v, want r→d→dstA with extra 1", subs[0])
	}
}

func TestSubpathsAvoidProtectedLink(t *testing.T) {
	f := func(seed int64) bool {
		g := topo.ErdosRenyi(10, 0.35, seed)
		for _, l := range g.Links() {
			for _, sp := range Subpaths(g, l.ID, true, 0) {
				if !sp.Path.Valid(g) {
					return false
				}
				if sp.Path.Src() != l.A || sp.Path.Dst() != l.B {
					return false
				}
				// The detour must not use the protected link.
				for i := 0; i+1 < len(sp.Path); i++ {
					a, b := sp.Path[i], sp.Path[i+1]
					if (a == l.A && b == l.B) || (a == l.B && b == l.A) {
						return false
					}
				}
				if sp.Extra != sp.Path.Hops()-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSubpathsMaxCandidates(t *testing.T) {
	g := topo.Clique(8)
	subs := Subpaths(g, 0, true, 3)
	if len(subs) != 3 {
		t.Errorf("capped candidates = %d, want 3", len(subs))
	}
	all := Subpaths(g, 0, false, 0)
	if len(all) != 6 { // 6 common neighbors in K8
		t.Errorf("1-hop detours in K8 = %d, want 6", len(all))
	}
}

func TestClassString(t *testing.T) {
	if ClassOneHop.String() != "1 hop" || ClassNone.String() != "N/A" {
		t.Error("Class.String wrong")
	}
	if Class(42).String() != "Class(42)" {
		t.Error("unknown class should be explicit")
	}
}

func TestTreePathToUnreachable(t *testing.T) {
	g := topo.New("x")
	g.AddNodes(3)
	g.MustAddLink(0, 1, units.Gbps, time.Millisecond)
	tree := Dijkstra(g, 0, nil, nil)
	if tree.PathTo(2) != nil {
		t.Error("unreachable node should yield nil path")
	}
	if tree.Reachable(2) {
		t.Error("node 2 should be unreachable")
	}
}
