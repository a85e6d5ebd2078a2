package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// hopWeight charges 1 per link: shortest-hop routing.
func hopWeight(*Link) float64 { return 1 }

// latencyWeight charges the link latency.
func latencyWeight(l *Link) float64 { return l.Latency }

// diamond builds:
//
//	h1 -- r1 -- r2 -- h2
//	       \         /
//	        --- r3 --
//
// with a slow detour through r3.
func diamond() *Graph {
	g := New()
	g.AddHost("h1", 1)
	g.AddHost("h2", 1)
	g.AddRouter("r1", 0)
	g.AddRouter("r2", 0)
	g.AddRouter("r3", 0)
	g.AddLink("h1", "r1", 100e6, 0.001) // 0
	g.AddLink("r1", "r2", 100e6, 0.001) // 1
	g.AddLink("r2", "h2", 100e6, 0.001) // 2
	g.AddLink("r1", "r3", 10e6, 0.001)  // 3
	g.AddLink("r3", "r2", 10e6, 0.001)  // 4
	return g
}

func TestAddAndLookup(t *testing.T) {
	g := diamond()
	if g.NumNodes() != 5 || g.NumLinks() != 5 {
		t.Fatalf("got %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if g.Node("h1").Kind != Compute {
		t.Fatal("h1 not compute")
	}
	if g.Node("r1").Kind != Network {
		t.Fatal("r1 not network")
	}
	if g.Node("nope") != nil {
		t.Fatal("lookup of missing node returned non-nil")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.ComputeNodes(); len(got) != 2 || got[0] != "h1" || got[1] != "h2" {
		t.Fatalf("ComputeNodes = %v", got)
	}
	if got := g.NetworkNodes(); len(got) != 3 {
		t.Fatalf("NetworkNodes = %v", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	g := New()
	g.AddHost("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	g.AddHost("a", 1)
}

func TestSelfLinkPanics(t *testing.T) {
	g := New()
	g.AddHost("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-link")
		}
	}()
	g.AddLink("a", "a", 1e6, 0)
}

func TestLinkDirections(t *testing.T) {
	g := diamond()
	l := g.Link(1) // r1 -- r2
	if l.DirFrom("r1") != AtoB || l.DirFrom("r2") != BtoA {
		t.Fatal("DirFrom wrong")
	}
	if l.Head(AtoB) != "r2" || l.Tail(AtoB) != "r1" {
		t.Fatal("Head/Tail wrong")
	}
	if l.Head(BtoA) != "r1" || l.Tail(BtoA) != "r2" {
		t.Fatal("reverse Head/Tail wrong")
	}
	if AtoB.Reverse() != BtoA || BtoA.Reverse() != AtoB {
		t.Fatal("Reverse wrong")
	}
	if o, ok := l.Other("r1"); !ok || o != "r2" {
		t.Fatal("Other wrong")
	}
	if _, ok := l.Other("h1"); ok {
		t.Fatal("Other accepted non-endpoint")
	}
}

func TestShortestPathHops(t *testing.T) {
	g := diamond()
	p, ok := g.ShortestPath("h1", "h2", hopWeight)
	if !ok {
		t.Fatal("no path")
	}
	if p.Hops() != 3 {
		t.Fatalf("hops = %d, want 3 (via r1-r2)", p.Hops())
	}
	if p.Nodes[1] != "r1" || p.Nodes[2] != "r2" {
		t.Fatalf("path = %v", p)
	}
	if got := p.Bottleneck(); got != 100e6 {
		t.Fatalf("bottleneck = %v", got)
	}
	if got := p.Latency(); math.Abs(got-0.003) > 1e-12 {
		t.Fatalf("latency = %v", got)
	}
}

func TestPathChannels(t *testing.T) {
	g := diamond()
	p, _ := g.ShortestPath("h1", "h2", hopWeight)
	chs := p.Channels()
	if len(chs) != 3 {
		t.Fatalf("channels = %v", chs)
	}
	// First hop leaves h1 over link 0 (h1 is A).
	if chs[0] != (Channel{Link: 0, Dir: AtoB}) {
		t.Fatalf("first channel = %v", chs[0])
	}
	// Reverse path uses reverse channels.
	rp, _ := g.ShortestPath("h2", "h1", hopWeight)
	rchs := rp.Channels()
	if rchs[2] != (Channel{Link: 0, Dir: BtoA}) {
		t.Fatalf("reverse channel = %v", rchs[2])
	}
}

func TestHostsDoNotForward(t *testing.T) {
	// h1 -- hmid -- h2 : no route because hmid is a host.
	g := New()
	g.AddHost("h1", 1)
	g.AddHost("hmid", 1)
	g.AddHost("h2", 1)
	g.AddLink("h1", "hmid", 1e6, 0)
	g.AddLink("hmid", "h2", 1e6, 0)
	if _, ok := g.ShortestPath("h1", "h2", hopWeight); ok {
		t.Fatal("path transits a compute node")
	}
	r := g.Reachable("h1")
	if r["h2"] {
		t.Fatal("h2 reachable through a host")
	}
	if !r["hmid"] {
		t.Fatal("direct neighbor not reachable")
	}
	if g.Connected() {
		t.Fatal("graph reported connected")
	}
}

func TestWidestPath(t *testing.T) {
	g := diamond()
	// Make the direct path narrow and the detour wide.
	g.Link(1).Capacity = 5e6
	p, ok := g.WidestPath("h1", "h2", func(l *Link) float64 { return l.Capacity })
	if !ok {
		t.Fatal("no widest path")
	}
	if p.Bottleneck() != 10e6 {
		t.Fatalf("widest bottleneck = %v, want 10e6 via r3", p.Bottleneck())
	}
	if p.Nodes[2] != "r3" {
		t.Fatalf("widest path = %v", p)
	}
}

func TestWidestPathTieBreaksByHops(t *testing.T) {
	g := diamond() // both paths 100e6 vs 10e6; set equal
	g.Link(3).Capacity = 100e6
	g.Link(4).Capacity = 100e6
	p, _ := g.WidestPath("h1", "h2", func(l *Link) float64 { return l.Capacity })
	if p.Hops() != 3 {
		t.Fatalf("tie not broken by hops: %v", p)
	}
}

func TestRoutes(t *testing.T) {
	g := diamond()
	rt, err := g.Routes()
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Route("h1", "h2")
	if p == nil || p.Hops() != 3 {
		t.Fatalf("route = %v", p)
	}
	if rt.Route("h1", "h1") != nil {
		t.Fatal("self route present")
	}
	back := rt.Route("h2", "h1")
	if back.Hops() != p.Hops() {
		t.Fatal("asymmetric route lengths")
	}
	if len(rt.Pairs()) != 2 {
		t.Fatalf("pairs = %v", rt.Pairs())
	}
}

func TestRoutesDisconnectedError(t *testing.T) {
	g := New()
	g.AddHost("a", 1)
	g.AddHost("b", 1)
	if _, err := g.Routes(); err == nil {
		t.Fatal("expected error for disconnected hosts")
	}
}

func TestRemoveNodeAndLink(t *testing.T) {
	g := diamond()
	g.RemoveLink(1) // cut r1--r2
	p, ok := g.ShortestPath("h1", "h2", hopWeight)
	if !ok {
		t.Fatal("detour should still exist")
	}
	if p.Hops() != 4 {
		t.Fatalf("hops after cut = %d, want 4", p.Hops())
	}
	g.RemoveNode("r3")
	if _, ok := g.ShortestPath("h1", "h2", hopWeight); ok {
		t.Fatal("still connected after removing r3")
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.Link(0).Capacity = 1
	c.RemoveNode("r3")
	if g.Link(0).Capacity != 100e6 {
		t.Fatal("clone shares link storage")
	}
	if g.Node("r3") == nil {
		t.Fatal("clone shares node storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseChains(t *testing.T) {
	// h1 - r1 - r2 - r3 - h2 : r1,r2,r3 all degree 2 -> single link.
	g := New()
	g.AddHost("h1", 1)
	g.AddHost("h2", 1)
	g.AddRouter("r1", 0)
	g.AddRouter("r2", 0)
	g.AddRouter("r3", 0)
	g.AddLink("h1", "r1", 100e6, 0.001)
	g.AddLink("r1", "r2", 50e6, 0.002)
	g.AddLink("r2", "r3", 80e6, 0.003)
	g.AddLink("r3", "h2", 100e6, 0.004)
	c := g.CollapseChains(nil)
	if c.NumNodes() != 2 || c.NumLinks() != 1 {
		t.Fatalf("collapsed to %d nodes %d links", c.NumNodes(), c.NumLinks())
	}
	l := c.Links()[0]
	if l.Capacity != 50e6 {
		t.Fatalf("merged capacity = %v, want min 50e6", l.Capacity)
	}
	if math.Abs(l.Latency-0.010) > 1e-12 {
		t.Fatalf("merged latency = %v, want sum 0.010", l.Latency)
	}
}

func TestCollapsePreservesPathMetrics(t *testing.T) {
	g := New()
	g.AddHost("h1", 1)
	g.AddHost("h2", 1)
	g.AddRouter("r1", 0)
	g.AddRouter("r2", 0)
	g.AddLink("h1", "r1", 100e6, 0.001)
	g.AddLink("r1", "r2", 30e6, 0.005)
	g.AddLink("r2", "h2", 100e6, 0.001)
	before, _ := g.ShortestPath("h1", "h2", latencyWeight)
	c := g.CollapseChains(nil)
	after, ok := c.ShortestPath("h1", "h2", latencyWeight)
	if !ok {
		t.Fatal("no path after collapse")
	}
	if math.Abs(before.Latency()-after.Latency()) > 1e-12 {
		t.Fatalf("latency changed: %v -> %v", before.Latency(), after.Latency())
	}
	if before.Bottleneck() != after.Bottleneck() {
		t.Fatalf("bottleneck changed: %v -> %v", before.Bottleneck(), after.Bottleneck())
	}
}

func TestCollapseRespectsKeepAndInternalBW(t *testing.T) {
	g := New()
	g.AddHost("h1", 1)
	g.AddHost("h2", 1)
	g.AddRouter("slow", 20e6) // internal bandwidth lower than links
	g.AddLink("h1", "slow", 100e6, 0.001)
	g.AddLink("slow", "h2", 100e6, 0.001)
	c := g.CollapseChains(nil)
	if c.NumLinks() != 1 {
		t.Fatalf("links = %d", c.NumLinks())
	}
	if c.Links()[0].Capacity != 20e6 {
		t.Fatalf("internal BW not folded: %v", c.Links()[0].Capacity)
	}
	kept := g.CollapseChains(func(id NodeID) bool { return id == "slow" })
	if kept.Node("slow") == nil {
		t.Fatal("keep function ignored")
	}
}

func TestCollapseSkipsTriangleToSelfLink(t *testing.T) {
	// r mid between a pair already directly linked would create a parallel
	// edge — allowed; but two links to the SAME neighbor must not collapse.
	g := New()
	g.AddHost("h1", 1)
	g.AddRouter("r", 0)
	g.AddRouter("hub", 0)
	g.AddHost("h2", 1)
	g.AddLink("h1", "hub", 10e6, 0)
	g.AddLink("r", "hub", 10e6, 0)
	g.AddLink("r", "hub", 20e6, 0) // parallel pair: r has degree 2, both to hub
	g.AddLink("hub", "h2", 10e6, 0)
	c := g.CollapseChains(nil)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Node("r") == nil {
		t.Fatal("r collapsed into a self-link")
	}
}

func TestInducedByRoutes(t *testing.T) {
	g := diamond()
	rt, _ := g.Routes()
	sub := g.InducedByRoutes(rt, []NodeID{"h1", "h2"})
	// Route uses h1-r1-r2-h2; r3 and its links must be hidden.
	if sub.Node("r3") != nil {
		t.Fatal("r3 should be pruned")
	}
	if sub.NumLinks() != 3 {
		t.Fatalf("links = %d, want 3", sub.NumLinks())
	}
	if _, ok := sub.ShortestPath("h1", "h2", hopWeight); !ok {
		t.Fatal("induced graph lost connectivity")
	}
}

func TestDOTAndASCII(t *testing.T) {
	g := diamond()
	dot := g.DOT("test")
	for _, want := range []string{"graph \"test\"", "\"h1\"", "shape=box", "100Mbps"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	ascii := g.ASCII()
	if !strings.Contains(ascii, "5 nodes, 5 links") {
		t.Fatalf("ASCII header wrong:\n%s", ascii)
	}
	if !strings.Contains(ascii, "--r1") {
		t.Fatalf("ASCII missing adjacency:\n%s", ascii)
	}
}

// Property-style test: on random connected graphs, Routes succeeds, every
// route's intermediate nodes are network nodes, and route channels stay
// consistent with the node sequence.
func TestRandomGraphRouteInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := New()
		nHosts := 2 + rng.Intn(5)
		nRouters := 1 + rng.Intn(5)
		for i := 0; i < nHosts; i++ {
			g.AddHost(NodeID(string(rune('a'+i))+"-host"), 1)
		}
		for i := 0; i < nRouters; i++ {
			g.AddRouter(NodeID(string(rune('A'+i))+"-rtr"), 0)
		}
		routers := g.NetworkNodes()
		// Ring of routers guarantees router connectivity.
		if len(routers) > 1 {
			for i := range routers {
				g.AddLink(routers[i], routers[(i+1)%len(routers)], 10e6+float64(rng.Intn(90))*1e6, 0.001)
			}
		}
		for _, h := range g.ComputeNodes() {
			g.AddLink(h, routers[rng.Intn(len(routers))], 100e6, 0.001)
		}
		// Extra random router-router links.
		for i := 0; i < rng.Intn(4); i++ {
			a := routers[rng.Intn(len(routers))]
			b := routers[rng.Intn(len(routers))]
			if a != b {
				g.AddLink(a, b, 10e6, 0.001)
			}
		}
		rt, err := g.Routes()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, pair := range rt.Pairs() {
			p := rt.Route(pair[0], pair[1])
			if p.Nodes[0] != pair[0] || p.Nodes[len(p.Nodes)-1] != pair[1] {
				t.Fatalf("route endpoints wrong: %v", p)
			}
			for _, mid := range p.Nodes[1 : len(p.Nodes)-1] {
				if g.Node(mid).Kind != Network {
					t.Fatalf("route transits host %s: %v", mid, p)
				}
			}
			for i, ch := range p.Channels() {
				l := g.Link(ch.Link)
				if l.Tail(ch.Dir) != p.Nodes[i] || l.Head(ch.Dir) != p.Nodes[i+1] {
					t.Fatalf("channel %v inconsistent with path %v", ch, p)
				}
			}
		}
	}
}

func BenchmarkShortestPathTree(b *testing.B) {
	g := New()
	// 10x10 grid of routers with hosts on the corners.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			g.AddRouter(NodeID(gridName(i, j)), 0)
		}
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i+1 < 10 {
				g.AddLink(NodeID(gridName(i, j)), NodeID(gridName(i+1, j)), 100e6, 0.001)
			}
			if j+1 < 10 {
				g.AddLink(NodeID(gridName(i, j)), NodeID(gridName(i, j+1)), 100e6, 0.001)
			}
		}
	}
	g.AddHost("src", 1)
	g.AddLink("src", NodeID(gridName(0, 0)), 100e6, 0.001)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPathTree("src", hopWeight); err != nil {
			b.Fatal(err)
		}
	}
}

func gridName(i, j int) string {
	return "g" + string(rune('0'+i)) + string(rune('0'+j))
}
