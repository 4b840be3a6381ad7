// Package route implements the routing substrate of the INRPP
// reproduction: BFS/Dijkstra shortest paths, equal-cost multipath (ECMP),
// and the detour-discovery analysis behind the paper's Table 1 and detour
// phase.
package route

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/topo"
)

// Path is a node sequence through a graph. A valid path has at least one
// node and consecutive nodes joined by links.
type Path []topo.NodeID

// Hops returns the number of links in the path.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Src returns the first node. It panics on an empty path.
func (p Path) Src() topo.NodeID { return p[0] }

// Dst returns the last node. It panics on an empty path.
func (p Path) Dst() topo.NodeID { return p[len(p)-1] }

// Links resolves the path's consecutive node pairs to link IDs in g.
func (p Path) Links(g *topo.Graph) ([]topo.LinkID, error) {
	out := make([]topo.LinkID, 0, p.Hops())
	for i := 0; i+1 < len(p); i++ {
		l, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			return nil, fmt.Errorf("route: path step %d: no link %d-%d", i, p[i], p[i+1])
		}
		out = append(out, l.ID)
	}
	return out, nil
}

// Arcs resolves the path to directed arcs (link + direction of travel).
func (p Path) Arcs(g *topo.Graph) ([]topo.Arc, error) {
	out := make([]topo.Arc, 0, p.Hops())
	for i := 0; i+1 < len(p); i++ {
		l, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			return nil, fmt.Errorf("route: path step %d: no link %d-%d", i, p[i], p[i+1])
		}
		out = append(out, topo.Arc{Link: l.ID, Dir: l.DirectionFrom(p[i])})
	}
	return out, nil
}

// ArcsAppend resolves the path to directed arcs like Arcs, appending
// them to buf and returning the extended slice. Passing a reused buffer
// keeps per-call allocation at zero once the buffer has grown to the
// longest path seen.
func (p Path) ArcsAppend(g *topo.Graph, buf []topo.Arc) ([]topo.Arc, error) {
	for i := 0; i+1 < len(p); i++ {
		l, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			return buf, fmt.Errorf("route: path step %d: no link %d-%d", i, p[i], p[i+1])
		}
		buf = append(buf, topo.Arc{Link: l.ID, Dir: l.DirectionFrom(p[i])})
	}
	return buf, nil
}

// Delay sums the one-way propagation delays along the path.
func (p Path) Delay(g *topo.Graph) (time.Duration, error) {
	links, err := p.Links(g)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, lid := range links {
		total += g.Link(lid).Delay
	}
	return total, nil
}

// Valid reports whether the path is non-empty, loop-free and fully linked
// in g.
func (p Path) Valid(g *topo.Graph) bool {
	if len(p) == 0 {
		return false
	}
	seen := make(map[topo.NodeID]bool, len(p))
	for i, n := range p {
		if seen[n] {
			return false
		}
		seen[n] = true
		if i+1 < len(p) && !g.HasLink(n, p[i+1]) {
			return false
		}
	}
	return true
}

// Contains reports whether the path visits node n.
func (p Path) Contains(n topo.NodeID) bool {
	for _, m := range p {
		if m == n {
			return true
		}
	}
	return false
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// String renders the path as "0→3→7".
func (p Path) String() string {
	var b strings.Builder
	for i, n := range p {
		if i > 0 {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "%d", n)
	}
	return b.String()
}

// Stretch returns the ratio of the path's hop count to the shortest
// possible hop count between its endpoints, the metric of the paper's
// Figure 4b. It returns 0 if the endpoints are disconnected.
func Stretch(g *topo.Graph, p Path) float64 {
	if len(p) < 2 {
		return 1
	}
	base := HopDistance(g, p.Src(), p.Dst())
	if base <= 0 {
		return 0
	}
	return float64(p.Hops()) / float64(base)
}
