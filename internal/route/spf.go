package route

import (
	"container/heap"
	"math"

	"repro/internal/topo"
)

// WeightFunc assigns a routing cost to a link. Weights must be positive.
type WeightFunc func(topo.Link) float64

// HopWeight weighs every link equally, giving hop-count shortest paths —
// the metric the paper's detour analysis and flow simulator use.
func HopWeight(topo.Link) float64 { return 1 }

// AvoidFunc excludes links from a computation. A nil AvoidFunc excludes
// nothing.
type AvoidFunc func(topo.LinkID) bool

// AvoidLink returns an AvoidFunc excluding exactly one link.
func AvoidLink(id topo.LinkID) AvoidFunc {
	return func(l topo.LinkID) bool { return l == id }
}

// Tree is a shortest-path tree rooted at Src: distances and parent links
// for every reachable node.
type Tree struct {
	Src    topo.NodeID
	Dist   []float64     // +Inf when unreachable
	Parent []topo.NodeID // -1 at the root and unreachable nodes
	Via    []topo.LinkID // link to parent; -1 when none
}

// Reachable reports whether n is reachable from the tree's root.
func (t *Tree) Reachable(n topo.NodeID) bool { return !math.IsInf(t.Dist[n], 1) }

// PathTo reconstructs the shortest path from the root to dst, or nil if
// unreachable.
func (t *Tree) PathTo(dst topo.NodeID) Path {
	if !t.Reachable(dst) {
		return nil
	}
	var rev Path
	for n := dst; n != -1; n = t.Parent[n] {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes a shortest-path tree from src under the given weight
// function (HopWeight if nil), skipping links rejected by avoid. Ties are
// broken deterministically by node ID.
func Dijkstra(g *topo.Graph, src topo.NodeID, weight WeightFunc, avoid AvoidFunc) *Tree {
	if weight == nil {
		weight = HopWeight
	}
	n := g.NumNodes()
	t := &Tree{
		Src:    src,
		Dist:   make([]float64, n),
		Parent: make([]topo.NodeID, n),
		Via:    make([]topo.LinkID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = -1
		t.Via[i] = -1
	}
	t.Dist[src] = 0

	pq := &nodeHeap{}
	heap.Init(pq)
	heap.Push(pq, nodeDist{node: src, dist: 0})
	done := make([]bool, n)
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		u := cur.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, lid := range g.IncidentLinks(u) {
			if avoid != nil && avoid(lid) {
				continue
			}
			l := g.Link(lid)
			v := l.Other(u)
			w := weight(l)
			nd := t.Dist[u] + w
			if nd < t.Dist[v] || (nd == t.Dist[v] && t.Parent[v] > u && t.Parent[v] != -1) {
				t.Dist[v] = nd
				t.Parent[v] = u
				t.Via[v] = lid
				heap.Push(pq, nodeDist{node: v, dist: nd})
			}
		}
	}
	return t
}

// ShortestPath returns a hop-count shortest path from src to dst, or nil if
// disconnected.
func ShortestPath(g *topo.Graph, src, dst topo.NodeID) Path {
	return Dijkstra(g, src, nil, nil).PathTo(dst)
}

// HopDistance returns the minimum hop count between a and b via BFS, or -1
// if disconnected.
func HopDistance(g *topo.Graph, a, b topo.NodeID) int {
	if a == b {
		return 0
	}
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []topo.NodeID{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range g.IncidentLinks(u) {
			v := g.Link(lid).Other(u)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if v == b {
					return dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	return -1
}

// HopDistances returns BFS hop distances from src to every node (-1 when
// unreachable), optionally skipping avoided links.
func HopDistances(g *topo.Graph, src topo.NodeID, avoid AvoidFunc) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []topo.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range g.IncidentLinks(u) {
			if avoid != nil && avoid(lid) {
				continue
			}
			v := g.Link(lid).Other(u)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// nodeDist is a priority-queue entry for Dijkstra.
type nodeDist struct {
	node topo.NodeID
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node // deterministic tie-break
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
