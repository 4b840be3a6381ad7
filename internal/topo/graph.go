// Package topo provides the network-topology substrate for the INRPP
// reproduction: an undirected capacitated graph, deterministic and random
// generators, gadget-based synthetic ISP topologies calibrated to the
// paper's Table 1, basic graph algorithms and JSON encoding.
//
// Links are undirected but full duplex: each link offers Capacity in each
// direction independently, which is how the flow and chunk simulators
// account for load.
package topo

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// NodeID identifies a node within a Graph. IDs are dense, starting at 0, in
// insertion order, and are usable as map keys and slice indexes.
type NodeID int

// LinkID identifies a link within a Graph. IDs are dense, starting at 0, in
// insertion order.
type LinkID int

// Direction selects one of the two directions of an undirected link.
type Direction int

// The two directions of a link, relative to its endpoint order.
const (
	Forward Direction = 0 // from Link.A to Link.B
	Reverse Direction = 1 // from Link.B to Link.A
)

// Node is a vertex of the topology.
type Node struct {
	ID   NodeID
	Name string
}

// Link is an undirected full-duplex edge between two nodes.
type Link struct {
	ID       LinkID
	A, B     NodeID
	Capacity units.BitRate // per direction
	Delay    time.Duration // one-way propagation delay
	Outage   OutageSpec    // optional churn process; zero value = always up
	Calendar CalendarSpec  // optional scheduled maintenance; zero value = none
	LossProb float64       // per-packet drop probability in [0,1]; 0 = lossless
}

// Other returns the endpoint of l that is not n. It panics if n is not an
// endpoint, which is a programming error.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topo: node %d is not an endpoint of link %d (%d-%d)", n, l.ID, l.A, l.B))
}

// DirectionFrom returns the direction of travel over l when leaving from
// node from. It panics if from is not an endpoint.
func (l Link) DirectionFrom(from NodeID) Direction {
	switch from {
	case l.A:
		return Forward
	case l.B:
		return Reverse
	}
	panic(fmt.Sprintf("topo: node %d is not an endpoint of link %d (%d-%d)", from, l.ID, l.A, l.B))
}

// Arc identifies one direction of one link: the unit of capacity accounting
// in the simulators. Arc values are comparable and usable as map keys.
type Arc struct {
	Link LinkID
	Dir  Direction
}

// Graph is an undirected simple graph (no self-loops, no parallel links)
// with capacitated full-duplex links. The zero value is unusable; create
// graphs with New.
type Graph struct {
	name      string
	nodes     []Node
	links     []Link
	adj       [][]LinkID // node -> incident links
	linkIndex map[[2]NodeID]LinkID
	srlgs     []SRLG // shared-risk link groups, insertion order
}

// New returns an empty graph with the given descriptive name.
func New(name string) *Graph {
	return &Graph{name: name, linkIndex: make(map[[2]NodeID]LinkID)}
}

// Name returns the graph's descriptive name.
func (g *Graph) Name() string { return g.name }

// AddNode appends a node and returns its ID. An empty name is replaced with
// a generated one ("n<id>").
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.nodes))
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	g.nodes = append(g.nodes, Node{ID: id, Name: name})
	g.adj = append(g.adj, nil)
	return id
}

// AddNodes appends n anonymous nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.nodes))
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	return first
}

// AddLink connects a and b with the given per-direction capacity and
// one-way delay, returning the new link's ID. Self-loops and duplicate
// links are rejected.
func (g *Graph) AddLink(a, b NodeID, capacity units.BitRate, delay time.Duration) (LinkID, error) {
	if a == b {
		return 0, fmt.Errorf("topo: self-loop on node %d", a)
	}
	if !g.hasNode(a) || !g.hasNode(b) {
		return 0, fmt.Errorf("topo: link %d-%d references unknown node", a, b)
	}
	key := linkKey(a, b)
	if _, ok := g.linkIndex[key]; ok {
		return 0, fmt.Errorf("topo: duplicate link %d-%d", a, b)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, Capacity: capacity, Delay: delay})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	g.linkIndex[key] = id
	return id, nil
}

// MustAddLink is AddLink for construction code where a failure is a bug.
func (g *Graph) MustAddLink(a, b NodeID, capacity units.BitRate, delay time.Duration) LinkID {
	id, err := g.AddLink(a, b, capacity, delay)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Nodes returns all nodes in ID order. The returned slice is shared; do not
// modify it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links in ID order. The returned slice is shared; do not
// modify it.
func (g *Graph) Links() []Link { return g.links }

// IncidentLinks returns the IDs of links incident to n. The returned slice
// is shared; do not modify it.
func (g *Graph) IncidentLinks(n NodeID) []LinkID { return g.adj[n] }

// Degree returns the number of links incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Neighbors returns the nodes adjacent to n, in incident-link order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[n]))
	for _, lid := range g.adj[n] {
		out = append(out, g.links[lid].Other(n))
	}
	return out
}

// LinkBetween returns the link connecting a and b, if any.
func (g *Graph) LinkBetween(a, b NodeID) (Link, bool) {
	id, ok := g.linkIndex[linkKey(a, b)]
	if !ok {
		return Link{}, false
	}
	return g.links[id], true
}

// HasLink reports whether a and b are directly connected.
func (g *Graph) HasLink(a, b NodeID) bool {
	_, ok := g.linkIndex[linkKey(a, b)]
	return ok
}

// SetAllCapacities overwrites every link's per-direction capacity — used
// by the Fig. 4 evaluation, where the paper places no bottlenecks at the
// network edge so that contention (and pooling) happens in the core.
func (g *Graph) SetAllCapacities(capacity units.BitRate) {
	for i := range g.links {
		g.links[i].Capacity = capacity
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		name:      g.name,
		nodes:     append([]Node(nil), g.nodes...),
		links:     append([]Link(nil), g.links...),
		adj:       make([][]LinkID, len(g.adj)),
		linkIndex: make(map[[2]NodeID]LinkID, len(g.linkIndex)),
	}
	for i := range out.links {
		out.links[i].Calendar.Windows = append([]Window(nil), out.links[i].Calendar.Windows...)
	}
	for i, a := range g.adj {
		out.adj[i] = append([]LinkID(nil), a...)
	}
	for k, v := range g.linkIndex {
		out.linkIndex[k] = v
	}
	for _, s := range g.srlgs {
		out.srlgs = append(out.srlgs, cloneSRLG(s))
	}
	return out
}

func (g *Graph) hasNode(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}
