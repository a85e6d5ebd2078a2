// Package topology constructs the canonical network topologies of the
// Remos paper plus parametric families used for scaling studies.
package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Mbps converts megabits/second to bits/second.
const Mbps = 1e6

// Testbed node names, matching Figure 3 of the paper.
var (
	// TestbedHosts are the DEC Alpha endpoints m-1..m-8 ("manchester-*").
	TestbedHosts = []graph.NodeID{"m-1", "m-2", "m-3", "m-4", "m-5", "m-6", "m-7", "m-8"}
	// TestbedRouters are the Pentium Pro routers.
	TestbedRouters = []graph.NodeID{"aspen", "timberline", "whiteface"}
)

// HostPower is the calibrated compute speed of a testbed host in work
// units per second. Application work constants in internal/apps are in
// the same unit, chosen so Table 1's absolute seconds land near the
// paper's.
const HostPower = 1.0

// PerHopLatency is the fixed per-hop delay the paper's collector assumes.
const PerHopLatency = 0.0005 // 0.5 ms

// HostMemory is the physical memory of each testbed host (the DEC
// Alphas of the era shipped with a few hundred MB).
const HostMemory = 256e6

// Testbed builds the Figure 3/4 testbed:
//
//	m-1  m-2    m-4          m-5  m-6
//	  \   |      |            |   /
//	   [ aspen ]---[ timberline ]---[ whiteface ]
//	      |               |              |  \
//	     m-3             (m-4,m-5 above) m-7 m-8
//
// Exact host attachment follows the figure: aspen carries m-1,m-2,m-3;
// timberline carries m-4,m-5,m-6; whiteface carries m-7,m-8. All links
// are 100 Mbps point-to-point Ethernet; routers are connected in a chain
// aspen—timberline—whiteface, so any host reaches any other in at most 3
// hops (§8.1).
func Testbed() *graph.Graph {
	g := graph.New()
	for _, h := range TestbedHosts {
		g.AddNode(graph.Node{ID: h, Kind: graph.Compute, ComputePower: HostPower, MemoryBytes: HostMemory})
	}
	for _, r := range TestbedRouters {
		g.AddRouter(r, 0)
	}
	attach := map[graph.NodeID]graph.NodeID{
		"m-1": "aspen", "m-2": "aspen", "m-3": "aspen",
		"m-4": "timberline", "m-5": "timberline", "m-6": "timberline",
		"m-7": "whiteface", "m-8": "whiteface",
	}
	// Deterministic insertion order for links.
	for _, h := range TestbedHosts {
		g.AddLink(h, attach[h], 100*Mbps, PerHopLatency)
	}
	g.AddLink("aspen", "timberline", 100*Mbps, PerHopLatency)
	g.AddLink("timberline", "whiteface", 100*Mbps, PerHopLatency)
	return g
}

// Figure1 builds the example network of Figure 1: compute nodes 1–4
// attach to network node A, 5–8 to network node B, and A—B are joined by
// one link. Link speeds and the nodes' internal bandwidths come from the
// two scenarios discussed in §4.3.
type Figure1Config struct {
	HostLinkMbps   float64 // links host—switch (paper: 10)
	BackboneMbps   float64 // link A—B (paper: 100 in the first reading)
	InternalAMbps  float64 // internal bandwidth of A (0 = unlimited)
	InternalBMbps  float64 // internal bandwidth of B
	HostComputePow float64
}

// Figure1FastSwitches is the first reading of Figure 1: switches with
// 100 Mbps internal bandwidth, so the 10 Mbps host links throttle and
// "all nodes can send and receive messages at up to 10 Mbps
// simultaneously".
func Figure1FastSwitches() Figure1Config {
	return Figure1Config{HostLinkMbps: 10, BackboneMbps: 100, InternalAMbps: 100, InternalBMbps: 100, HostComputePow: 1}
}

// Figure1SlowSwitches is the second reading: switches with 10 Mbps
// internal bandwidth become the bottleneck, so "the aggregate bandwidth
// of nodes 1-4 and 5-8 will be limited to 10 Mbps" — equivalently two
// 10 Mbps Ethernets joined by a fast link.
func Figure1SlowSwitches() Figure1Config {
	return Figure1Config{HostLinkMbps: 10, BackboneMbps: 100, InternalAMbps: 10, InternalBMbps: 10, HostComputePow: 1}
}

// Figure1 builds the 8-host, 2-switch example graph.
func Figure1(cfg Figure1Config) *graph.Graph {
	g := graph.New()
	for i := 1; i <= 8; i++ {
		g.AddHost(graph.NodeID(fmt.Sprintf("n%d", i)), cfg.HostComputePow)
	}
	g.AddRouter("A", cfg.InternalAMbps*Mbps)
	g.AddRouter("B", cfg.InternalBMbps*Mbps)
	for i := 1; i <= 4; i++ {
		g.AddLink(graph.NodeID(fmt.Sprintf("n%d", i)), "A", cfg.HostLinkMbps*Mbps, PerHopLatency)
	}
	for i := 5; i <= 8; i++ {
		g.AddLink(graph.NodeID(fmt.Sprintf("n%d", i)), "B", cfg.HostLinkMbps*Mbps, PerHopLatency)
	}
	g.AddLink("A", "B", cfg.BackboneMbps*Mbps, PerHopLatency)
	return g
}

// Dumbbell builds n hosts on each side of a two-router bottleneck link —
// the standard congestion topology used by unit tests and ablations.
func Dumbbell(nPerSide int, edgeMbps, coreMbps float64) *graph.Graph {
	g := graph.New()
	g.AddRouter("L", 0)
	g.AddRouter("R", 0)
	g.AddLink("L", "R", coreMbps*Mbps, PerHopLatency)
	for i := 0; i < nPerSide; i++ {
		l := graph.NodeID(fmt.Sprintf("l%d", i))
		r := graph.NodeID(fmt.Sprintf("r%d", i))
		g.AddHost(l, 1)
		g.AddHost(r, 1)
		g.AddLink(l, "L", edgeMbps*Mbps, PerHopLatency)
		g.AddLink(r, "R", edgeMbps*Mbps, PerHopLatency)
	}
	return g
}

// Star builds n hosts around one switch.
//
//reach:keep BenchmarkReplicaCatchup in the root bench_test.go builds its networks with it
func Star(n int, linkMbps, internalMbps float64) *graph.Graph {
	g := graph.New()
	g.AddRouter("hub", internalMbps*Mbps)
	for i := 0; i < n; i++ {
		h := graph.NodeID(fmt.Sprintf("s%d", i))
		g.AddHost(h, 1)
		g.AddLink(h, "hub", linkMbps*Mbps, PerHopLatency)
	}
	return g
}

// RouterChain builds `hosts` hosts spread round-robin across `routers`
// routers connected in a chain — a generalization of the testbed used for
// scalability benchmarks.
func RouterChain(hosts, routers int, linkMbps float64) *graph.Graph {
	if routers < 1 {
		panic("topology: need at least one router")
	}
	g := graph.New()
	for r := 0; r < routers; r++ {
		g.AddRouter(graph.NodeID(fmt.Sprintf("rt%d", r)), 0)
	}
	for r := 1; r < routers; r++ {
		g.AddLink(graph.NodeID(fmt.Sprintf("rt%d", r-1)), graph.NodeID(fmt.Sprintf("rt%d", r)), linkMbps*Mbps, PerHopLatency)
	}
	for h := 0; h < hosts; h++ {
		id := graph.NodeID(fmt.Sprintf("h%d", h))
		g.AddHost(id, 1)
		g.AddLink(id, graph.NodeID(fmt.Sprintf("rt%d", h%routers)), linkMbps*Mbps, PerHopLatency)
	}
	return g
}

// WideArea builds two site LANs joined by a long chain of backbone
// routers — the "complex network in the middle" case that logical-
// topology collapsing reduces to a single link (§4.3).
func WideArea(hostsPerSite, backboneHops int, lanMbps, wanMbps float64) *graph.Graph {
	g := graph.New()
	g.AddRouter("siteA", 0)
	g.AddRouter("siteB", 0)
	for i := 0; i < hostsPerSite; i++ {
		a := graph.NodeID(fmt.Sprintf("a%d", i))
		b := graph.NodeID(fmt.Sprintf("b%d", i))
		g.AddHost(a, 1)
		g.AddHost(b, 1)
		g.AddLink(a, "siteA", lanMbps*Mbps, PerHopLatency)
		g.AddLink(b, "siteB", lanMbps*Mbps, PerHopLatency)
	}
	prev := graph.NodeID("siteA")
	for i := 0; i < backboneHops; i++ {
		bb := graph.NodeID(fmt.Sprintf("bb%d", i))
		g.AddRouter(bb, 0)
		g.AddLink(prev, bb, wanMbps*Mbps, 0.005)
		prev = bb
	}
	g.AddLink(prev, "siteB", wanMbps*Mbps, 0.005)
	return g
}
