package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Path is a walk from Nodes[0] to Nodes[len-1]; Links[i] joins Nodes[i] and
// Nodes[i+1].
type Path struct {
	Nodes []NodeID
	Links []*Link
}

// Hops returns the number of links on the path.
func (p *Path) Hops() int { return len(p.Links) }

// Latency returns the summed one-way latency along the path.
func (p *Path) Latency() float64 {
	var sum float64
	for _, l := range p.Links {
		sum += l.Latency
	}
	return sum
}

// Bottleneck returns the minimum link capacity along the path, or +Inf for
// an empty (same-node) path.
func (p *Path) Bottleneck() float64 {
	min := math.Inf(1)
	for _, l := range p.Links {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}

// Channels returns the directed channels traversed, in order.
func (p *Path) Channels() []Channel {
	out := make([]Channel, len(p.Links))
	for i, l := range p.Links {
		out[i] = Channel{Link: l.ID, Dir: l.DirFrom(p.Nodes[i])}
	}
	return out
}

func (p *Path) String() string {
	if p == nil {
		return "<no path>"
	}
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += " -> "
		}
		s += string(n)
	}
	return s
}

// Weight computes the cost of traversing a link. Returning +Inf excludes
// the link.
type Weight func(*Link) float64

// priority queue for Dijkstra.
type pqItem struct {
	node  NodeID
	dist  float64
	seq   int // deterministic tie-break: discovery order
	index int
}

type pq []*pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].seq < q[j].seq
}
func (q pq) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *pq) Push(x any) {
	it := x.(*pqItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// ShortestPath returns a minimum-weight path from src to dst under w,
// breaking ties deterministically by (weight, hop count, link ID). The
// second result is false when dst is unreachable. Paths never transit a
// compute node other than the endpoints: hosts do not forward (§4.3).
func (g *Graph) ShortestPath(src, dst NodeID, w Weight) (*Path, bool) {
	tree, err := g.ShortestPathTree(src, w)
	if err != nil {
		return nil, false
	}
	return tree.PathTo(dst)
}

// PathTree is the single-source shortest-path tree rooted at Src.
type PathTree struct {
	Src  NodeID
	g    *Graph
	dist map[NodeID]float64
	via  map[NodeID]*Link // link used to reach the node

	sweepOnce sync.Once
	sweep     []SweepStep
}

// SweepStep is one parent-before-child visit of a PathTree. For every
// node reachable from Src (excluding Src itself) it reports the node,
// the node it is reached through, the tree link joining them, and the
// accumulated path weight. Because every step's Parent appears in an
// earlier step (or is Src), a single pass over the steps supports
// dynamic programming along tree paths — accumulating a per-node value
// from its parent's — without materializing any Path.
type SweepStep struct {
	Node   NodeID
	Parent NodeID
	Via    *Link
	Dist   float64
}

// Sweep returns the tree's nodes in a deterministic parent-before-child
// order (breadth-first from Src, children visited in NodeID order). The
// order is computed once per tree and shared; the returned slice must
// not be mutated. Safe for concurrent use.
func (t *PathTree) Sweep() []SweepStep {
	t.sweepOnce.Do(func() {
		children := make(map[NodeID][]NodeID, len(t.via))
		for n, l := range t.via {
			p, _ := l.Other(n)
			children[p] = append(children[p], n)
		}
		for _, cs := range children {
			sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		}
		order := make([]SweepStep, 0, len(t.via))
		queue := []NodeID{t.Src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, c := range children[u] {
				order = append(order, SweepStep{Node: c, Parent: u, Via: t.via[c], Dist: t.dist[c]})
				queue = append(queue, c)
			}
		}
		t.sweep = order
	})
	return t.sweep
}

// ShortestPathTree runs Dijkstra from src. Weights must be nonnegative;
// +Inf excludes a link. Compute nodes other than src are treated as
// non-forwarding: edges are not relaxed *through* them.
func (g *Graph) ShortestPathTree(src NodeID, w Weight) (*PathTree, error) {
	if g.nodes[src] == nil {
		return nil, fmt.Errorf("graph: unknown source %q", src)
	}
	t := &PathTree{
		Src:  src,
		g:    g,
		dist: map[NodeID]float64{src: 0},
		via:  make(map[NodeID]*Link),
	}
	hops := map[NodeID]int{src: 0}
	var q pq
	seq := 0
	push := func(n NodeID, d float64) {
		heap.Push(&q, &pqItem{node: n, dist: d, seq: seq})
		seq++
	}
	push(src, 0)
	done := make(map[NodeID]bool)
	for q.Len() > 0 {
		it := heap.Pop(&q).(*pqItem)
		u := it.node
		if done[u] || it.dist > t.dist[u] {
			continue
		}
		done[u] = true
		// Hosts terminate traffic; only the source host forwards its own.
		if u != src && g.nodes[u].Kind == Compute {
			continue
		}
		// Iterate adjacency directly (already ID-ordered): these loops
		// don't mutate the graph, so LinksAt's defensive copy would only
		// add an allocation per visited node.
		for _, l := range g.adj[u] {
			wl := w(l)
			if math.IsInf(wl, 1) {
				continue
			}
			if wl < 0 {
				return nil, fmt.Errorf("graph: negative weight %v on link %d", wl, l.ID)
			}
			v, _ := l.Other(u)
			nd := t.dist[u] + wl
			nh := hops[u] + 1
			old, seen := t.dist[v]
			better := !seen || nd < old
			if !better && nd == old {
				// Deterministic tie-break: fewer hops, then smaller
				// link ID on the final edge.
				if nh < hops[v] || (nh == hops[v] && l.ID < t.via[v].ID) {
					better = true
				}
			}
			if better {
				t.dist[v] = nd
				t.via[v] = l
				hops[v] = nh
				push(v, nd)
			}
		}
	}
	return t, nil
}

// Dist returns the path weight to dst and whether dst is reachable.
func (t *PathTree) Dist(dst NodeID) (float64, bool) {
	d, ok := t.dist[dst]
	return d, ok
}

// PathTo materializes the tree path to dst.
func (t *PathTree) PathTo(dst NodeID) (*Path, bool) {
	if _, ok := t.dist[dst]; !ok {
		return nil, false
	}
	var rlinks []*Link
	var rnodes []NodeID
	cur := dst
	for cur != t.Src {
		l := t.via[cur]
		rlinks = append(rlinks, l)
		rnodes = append(rnodes, cur)
		cur, _ = l.Other(cur)
	}
	rnodes = append(rnodes, t.Src)
	// Reverse into forward order.
	p := &Path{
		Nodes: make([]NodeID, len(rnodes)),
		Links: make([]*Link, len(rlinks)),
	}
	for i := range rnodes {
		p.Nodes[i] = rnodes[len(rnodes)-1-i]
	}
	for i := range rlinks {
		p.Links[i] = rlinks[len(rlinks)-1-i]
	}
	return p, true
}

// WidestPath returns the path from src to dst maximizing the bottleneck
// value of each link under cap (typically Link.Capacity or measured
// availability), breaking ties by fewer hops. Returns false when
// unreachable.
func (g *Graph) WidestPath(src, dst NodeID, capOf func(*Link) float64) (*Path, bool) {
	if g.nodes[src] == nil || g.nodes[dst] == nil {
		return nil, false
	}
	width := map[NodeID]float64{src: math.Inf(1)}
	hops := map[NodeID]int{src: 0}
	via := make(map[NodeID]*Link)
	var q pq
	seq := 0
	heap.Push(&q, &pqItem{node: src, dist: 0, seq: seq}) // dist = -width for max-heap behaviour
	done := make(map[NodeID]bool)
	for q.Len() > 0 {
		it := heap.Pop(&q).(*pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u != src && g.nodes[u].Kind == Compute {
			continue
		}
		for _, l := range g.adj[u] { // no mutation: safe to skip LinksAt's copy
			c := capOf(l)
			if c <= 0 {
				continue
			}
			v, _ := l.Other(u)
			nw := math.Min(width[u], c)
			nh := hops[u] + 1
			old, seen := width[v]
			better := !seen || nw > old || (nw == old && nh < hops[v])
			if better {
				width[v] = nw
				hops[v] = nh
				via[v] = l
				seq++
				heap.Push(&q, &pqItem{node: v, dist: -nw, seq: seq})
			}
		}
	}
	if _, ok := width[dst]; !ok {
		return nil, false
	}
	t := &PathTree{Src: src, g: g, dist: width, via: via}
	return t.PathTo(dst)
}

// Reachable returns the set of nodes reachable from src through the
// forwarding rules (hosts do not forward).
func (g *Graph) Reachable(src NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	if g.nodes[src] == nil {
		return out
	}
	out[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != src && g.nodes[u].Kind == Compute {
			continue
		}
		for _, l := range g.adj[u] { // no mutation: safe to skip LinksAt's copy
			v, _ := l.Other(u)
			if !out[v] {
				out[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// Connected reports whether all compute nodes can reach each other.
func (g *Graph) Connected() bool {
	hosts := g.ComputeNodes()
	if len(hosts) <= 1 {
		return true
	}
	r := g.Reachable(hosts[0])
	for _, h := range hosts {
		if !r[h] {
			return false
		}
	}
	return true
}

// RouteTable resolves a static route (a Path) for every ordered pair of
// compute nodes from the physical topology. Routes are computed lazily —
// one single-source Dijkstra tree per queried source, memoized — so
// building a table over a 5k-node generated topology costs one
// connectivity check, not an all-pairs sweep; only the pairs a workload
// actually asks about pay for path construction. The simulator and the
// modeler share route tables so that predictions match behaviour.
type RouteTable struct {
	g *Graph
	w Weight

	mu     sync.RWMutex
	trees  map[NodeID]*PathTree
	routes map[[2]NodeID]*Path
}

// routeWeight is the standard routing metric: hops first, latency as
// tie-break.
func routeWeight(l *Link) float64 { return 1 + l.Latency/1e3 }

// Routes builds the lazy route table for shortest-hop routes (latency
// tie-break) between compute nodes. Routes are symmetric in node
// sequence because weights are symmetric and tie-breaking is
// deterministic. It errors when any compute-node pair is disconnected
// (one reachability sweep; undirected connectivity is transitive), so
// callers keep the eager-construction error contract without the
// all-pairs cost.
func (g *Graph) Routes() (*RouteTable, error) {
	hosts := g.ComputeNodes()
	if len(hosts) > 1 {
		r := g.Reachable(hosts[0])
		for _, h := range hosts {
			if !r[h] {
				return nil, fmt.Errorf("graph: no route %s -> %s", hosts[0], h)
			}
		}
	}
	return &RouteTable{
		g:      g,
		w:      routeWeight,
		trees:  make(map[NodeID]*PathTree),
		routes: make(map[[2]NodeID]*Path),
	}, nil
}

// Route returns the path from src to dst, or nil for unknown pairs or
// src == dst. Safe for concurrent use: first resolution of a pair runs
// (at most) one Dijkstra from src and memoizes both the tree and the
// path; later calls are a read-locked map hit.
func (rt *RouteTable) Route(src, dst NodeID) *Path {
	if src == dst {
		return nil
	}
	key := [2]NodeID{src, dst}
	rt.mu.RLock()
	p, ok := rt.routes[key]
	rt.mu.RUnlock()
	if ok {
		return p
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if p, ok := rt.routes[key]; ok {
		return p
	}
	ns, nd := rt.g.nodes[src], rt.g.nodes[dst]
	if ns == nil || nd == nil || ns.Kind != Compute || nd.Kind != Compute {
		rt.routes[key] = nil // memoize the miss: non-compute pairs have no route
		return nil
	}
	tree := rt.trees[src]
	if tree == nil {
		t, err := rt.g.ShortestPathTree(src, rt.w)
		if err != nil {
			rt.routes[key] = nil
			return nil
		}
		tree = t
		rt.trees[src] = tree
	}
	p, _ = tree.PathTo(dst) // nil when unreachable (graph mutated post-build)
	rt.routes[key] = p
	return p
}

// Tree returns the memoized shortest-path tree rooted at src — the same
// tree Route materializes paths from, so DP sweeps over it (see
// PathTree.Sweep) agree link-for-link with per-pair Route answers. It
// errors for unknown or non-compute sources, mirroring Route's nil for
// such pairs.
func (rt *RouteTable) Tree(src NodeID) (*PathTree, error) {
	ns := rt.g.nodes[src]
	if ns == nil || ns.Kind != Compute {
		return nil, fmt.Errorf("graph: no routes from %q", src)
	}
	rt.mu.RLock()
	t := rt.trees[src]
	rt.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if t := rt.trees[src]; t != nil {
		return t, nil
	}
	t, err := rt.g.ShortestPathTree(src, rt.w)
	if err != nil {
		return nil, err
	}
	rt.trees[src] = t
	return t, nil
}

// Graph returns the graph the table was computed from.
func (rt *RouteTable) Graph() *Graph { return rt.g }

// Pairs returns all ordered pairs with routes, deterministically ordered.
func (rt *RouteTable) Pairs() [][2]NodeID {
	hosts := rt.g.ComputeNodes()
	var out [][2]NodeID
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				out = append(out, [2]NodeID{a, b})
			}
		}
	}
	return out
}
