package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/stats"
)

// LinkInfo annotates one logical link with static and dynamic data.
type LinkInfo struct {
	A, B graph.NodeID

	// Capacity is the physical capacity (min along a collapsed chain).
	Capacity stats.Stat

	// Avail holds the availability per direction: Avail[0] for A->B,
	// Avail[1] for B->A.
	Avail [2]stats.Stat

	// Latency is the one-way latency (summed along a collapsed chain).
	Latency stats.Stat
}

// NodeInfo annotates one node of the logical topology.
type NodeInfo struct {
	ID   graph.NodeID
	Kind graph.NodeKind

	// InternalBW is the node's aggregate forwarding limit (0=unlimited).
	InternalBW float64

	// Load is the CPU load fraction for compute nodes, when known.
	Load stats.Stat

	// Memory is the compute node's physical memory in bytes (0 =
	// unknown) — Remos's "simple interface to computation and memory
	// resources".
	Memory float64
}

// Graph is the answer to remos_get_graph: a logical topology whose links
// and nodes carry performance annotations. It represents how the network
// behaves as seen by the application, not the physical wiring (§4.3).
type Graph struct {
	Nodes []NodeInfo
	Links []LinkInfo

	// Timeframe records the time context the annotations were computed
	// under.
	Timeframe Timeframe

	// Epoch identifies the topology snapshot the answer was computed
	// against. Two answers carrying the same Epoch saw the same physical
	// topology; a Refresh (or rediscovery) starts a new epoch.
	Epoch uint64

	// nodeIdx/linkIdx index Nodes and Links by node ID. Answers built by
	// GetGraph share these (immutable) maps with the plan they replay;
	// hand-constructed Graphs leave them nil and fall back to scans.
	nodeIdx map[graph.NodeID]int
	linkIdx map[graph.NodeID][]int
}

// Node returns the annotation for a node, or nil.
func (g *Graph) Node(id graph.NodeID) *NodeInfo {
	if g.nodeIdx != nil {
		if i, ok := g.nodeIdx[id]; ok {
			return &g.Nodes[i]
		}
		return nil
	}
	for i := range g.Nodes {
		if g.Nodes[i].ID == id {
			return &g.Nodes[i]
		}
	}
	return nil
}

// LinksAt returns the logical links incident to a node.
func (g *Graph) LinksAt(id graph.NodeID) []*LinkInfo {
	if g.linkIdx != nil {
		idxs := g.linkIdx[id]
		if len(idxs) == 0 {
			return nil
		}
		out := make([]*LinkInfo, len(idxs))
		for i, j := range idxs {
			out[i] = &g.Links[j]
		}
		return out
	}
	var out []*LinkInfo
	for i := range g.Links {
		if g.Links[i].A == id || g.Links[i].B == id {
			out = append(out, &g.Links[i])
		}
	}
	return out
}

// AvailFrom returns the availability stat for traffic leaving `from` over
// this link. It panics if from is not an endpoint.
func (li *LinkInfo) AvailFrom(from graph.NodeID) stats.Stat {
	switch from {
	case li.A:
		return li.Avail[0]
	case li.B:
		return li.Avail[1]
	}
	panic(fmt.Sprintf("core: %s is not an endpoint of %s--%s", from, li.A, li.B))
}

// GetGraph answers remos_get_graph: the logical topology relevant to
// connecting the given compute nodes, annotated for the timeframe.
//
// Construction: (1) take the subgraph induced by the routes among the
// requested nodes — links routing will never use are hidden; (2) collapse
// chains of pass-through network nodes into single logical links
// (capacity/availability: element-wise min; latency: sum), which also
// abstracts a "complex network in the middle" into one edge; (3) annotate
// for the timeframe. Steps 1–2 are purely topological, so they are
// computed once per (snapshot epoch, node set) and cached as a plan
// (snapshot.go); each query replays the plan against availability memos.
func (m *Modeler) GetGraph(nodes []graph.NodeID, tf Timeframe) (*Graph, error) {
	return m.GetGraphCtx(context.Background(), nodes, tf)
}

// GetGraphCtx is GetGraph under a context: every per-link measurement
// fetch carries the caller's deadline, and a budget that expires mid-
// annotation aborts the query with a typed lifecycle error instead of
// finishing it with fabricated numbers.
func (m *Modeler) GetGraphCtx(ctx context.Context, nodes []graph.NodeID, tf Timeframe) (_ *Graph, retErr error) {
	ctx, finish := m.startQuery(ctx, "query.getgraph", m.qGetGraph)
	defer func() { finish(retErr) }()
	g, err := m.getGraph(ctx, nodes, tf)
	if err == errTopologyMoved {
		g, err = m.getGraph(ctx, nodes, tf)
	}
	return g, err
}

func (m *Modeler) getGraph(ctx context.Context, nodes []graph.NodeID, tf Timeframe) (*Graph, error) {
	s, err := m.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	key := planKey(nodes)
	if len(nodes) == 0 {
		nodes = s.topo.Graph.ComputeNodes()
	} else {
		for _, n := range nodes {
			nd := s.topo.Graph.Node(n)
			if nd == nil {
				return nil, fmt.Errorf("core: unknown node %q", n)
			}
			if nd.Kind != graph.Compute {
				return nil, fmt.Errorf("core: %q is not a compute node", n)
			}
		}
	}
	plan, err := s.plan(key, nodes)
	if err != nil {
		return nil, err
	}

	v := view{m: m, s: s, tf: tf}
	sc := getScratch(s.chanSlots)
	for i := range plan.links {
		for _, pc := range plan.links[i].fwd {
			sc.want(pc.l, pc.d)
		}
		for _, pc := range plan.links[i].rev {
			sc.want(pc.l, pc.d)
		}
	}
	for i := range plan.nodes {
		if plan.nodes[i].Kind == graph.Compute {
			sc.hosts = append(sc.hosts, plan.nodes[i].ID)
		}
	}
	err = v.prefetch(ctx, sc)
	putScratch(sc)
	if err != nil {
		return nil, err
	}
	out := &Graph{
		Timeframe: tf,
		Epoch:     s.epoch,
		nodeIdx:   plan.nodeIdx,
		linkIdx:   plan.linkIdx,
	}
	out.Nodes = make([]NodeInfo, len(plan.nodes))
	for i, ni := range plan.nodes {
		if ni.Kind == graph.Compute {
			ni.Load = v.hostLoad(ni.ID)
		}
		out.Nodes[i] = ni
	}
	out.Links = make([]LinkInfo, len(plan.links))
	for i := range plan.links {
		pl := &plan.links[i]
		out.Links[i] = LinkInfo{A: pl.a, B: pl.b, Capacity: pl.capacity, Latency: pl.latency,
			Avail: [2]stats.Stat{v.foldAvail(pl.fwd, pl.limit), v.foldAvail(pl.rev, pl.limit)}}
	}
	v.publishHits()
	return out, nil
}

func tfSpan(tf Timeframe) float64 {
	if tf.Kind == History {
		return tf.Span
	}
	return 0
}

// findLink locates the original physical link by endpoints and capacity.
func findLink(g *graph.Graph, a, b graph.NodeID, capacity float64) *graph.Link {
	for _, l := range g.LinksAt(a) {
		if o, ok := l.Other(a); ok && o == b && l.Capacity == capacity {
			return l
		}
	}
	return nil
}
