package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// The scale study exercises the paper's closing concern: "we are also
// looking into the problem of dealing with very large networks, where
// multiple collectors will have to collaborate to collect the network
// information." ScaleStudy runs generated topologies (internal/topogen)
// at 100/1k/5k nodes under federated regional collection: one collector
// per region, one federation.View composing the partials. ScaleEnv
// below is the older, smaller harness — a router chain split into
// per-router collector domains under one flat merge — kept because its
// cross-domain traffic tests pin the merge's measurement routing.

// ScaleEnv is a large simulated network with partitioned collectors.
type ScaleEnv struct {
	Clk        *simclock.Clock
	Net        *netsim.Network
	Collectors []*collector.Collector
	Merged     *collector.Merged
	Mod        *core.Modeler
	Hosts      []graph.NodeID
}

// NewScaleEnv builds `hosts` hosts over `routers` chained routers with
// one collector per router domain (the router plus its attached hosts).
//
//reach:keep the router-chain harness of scale_test.go's cross-domain merge-routing tests
func NewScaleEnv(hosts, routers int) *ScaleEnv {
	g := topology.RouterChain(hosts, routers, 100)
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	client := snmp.NewClient(att.Registry, snmp.DefaultCommunity)

	// Partition: router rtI owns hosts h with h%routers == I.
	domains := make([]map[graph.NodeID]string, routers)
	for i := range domains {
		domains[i] = make(map[graph.NodeID]string)
		rt := graph.NodeID(fmt.Sprintf("rt%d", i))
		domains[i][rt] = snmp.Addr(rt)
	}
	for h := 0; h < hosts; h++ {
		id := graph.NodeID(fmt.Sprintf("h%d", h))
		domains[h%routers][id] = snmp.Addr(id)
	}

	env := &ScaleEnv{Clk: clk, Net: n, Hosts: g.ComputeNodes()}
	var sources []collector.Source
	for i := range domains {
		col := collector.New(collector.Config{
			Client:        client,
			Clock:         clk,
			Addrs:         domains[i],
			PollPeriod:    2,
			PerHopLatency: topology.PerHopLatency,
		})
		if err := col.Start(); err != nil {
			panic(fmt.Sprintf("experiments: domain %d: %v", i, err))
		}
		env.Collectors = append(env.Collectors, col)
		sources = append(sources, col)
	}
	env.Merged = collector.Merge(sources...)
	env.Mod = core.New(core.Config{Source: env.Merged})
	return env
}

// ScaleResult summarizes one configuration of the study.
type ScaleResult struct {
	// Nodes is the requested size; MergedNodes/MergedLinks measure the
	// federated view (generated nodes plus nothing extra — hubs stand in
	// only for regions the local view does not own, and here the query
	// runs against region r0's view which summarizes the other two).
	Nodes, Hosts, Regions    int
	MergedNodes, MergedLinks int
	PollsPerCollector        uint64
	// Wall-clock costs of the three phases ISSUE benchmarks gate:
	// building the environment (generation + discovery + first poll),
	// one warmed-up span of poll rounds, and a federated merge read.
	BuildMS, PollMS, MergeMS float64
	// Intra answers at full fidelity inside r0; Cross traverses the
	// summarized links into r2.
	IntraMbps, CrossMbps float64
}

// scaleSpec pins the study topology: hierarchical interior + edges, 3
// regions, fixed seed — every run sees the identical network.
func scaleSpec(n int) topogen.Spec {
	return topogen.Spec{Kind: topogen.KindHier, N: n, Seed: 11, Regions: 3}
}

// ScaleStudyAt runs one size of the federated scale study: three
// regional collectors over a generated n-node topology, composed by one
// federation view, answering intra- and cross-region queries.
func ScaleStudyAt(n int) ScaleResult {
	t0 := time.Now()
	e := NewFederationEnv(scaleSpec(n))
	build := time.Since(t0)
	t1 := time.Now()
	e.Warmup()
	poll := time.Since(t1)
	t2 := time.Now()
	topo, err := e.Views[0].TopologyCtx(context.Background())
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	merge := time.Since(t2)

	r0 := e.Topo.Hosts(e.Topo.Regions[0])
	r2 := e.Topo.Hosts(e.Topo.Regions[2])
	mod := e.Mods[0]
	intra, err := mod.AvailableBandwidth(r0[0], r0[len(r0)-1], core.TFHistory(10))
	if err != nil {
		panic(fmt.Sprintf("experiments: intra: %v", err))
	}
	cross, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10))
	if err != nil {
		panic(fmt.Sprintf("experiments: cross: %v", err))
	}
	var minPolls uint64 = ^uint64(0)
	hosts := 0
	for i, c := range e.Collectors {
		if p := c.Polls(); p < minPolls {
			minPolls = p
		}
		hosts += len(e.Topo.Hosts(e.Topo.Regions[i]))
	}
	return ScaleResult{
		Nodes: n, Hosts: hosts, Regions: len(e.Regions),
		MergedNodes: topo.Graph.NumNodes(), MergedLinks: topo.Graph.NumLinks(),
		PollsPerCollector: minPolls,
		BuildMS:           float64(build.Milliseconds()),
		PollMS:            float64(poll.Milliseconds()),
		MergeMS:           float64(merge.Milliseconds()),
		IntraMbps:         intra.Median / 1e6,
		CrossMbps:         cross.Median / 1e6,
	}
}

// ScaleStudySizes are the paper-scale points the study and its
// benchmark sweep: two orders of magnitude up to planet-ish scale.
var ScaleStudySizes = []int{100, 1000, 5000}

// ScaleStudy runs the federated study across the standard sizes.
func ScaleStudy() []ScaleResult {
	var out []ScaleResult
	for _, n := range ScaleStudySizes {
		out = append(out, ScaleStudyAt(n))
	}
	return out
}

// FormatScaleStudy renders the study.
func FormatScaleStudy(rs []ScaleResult) string {
	var b strings.Builder
	b.WriteString("Scale study: federated regional collectors over generated topologies\n")
	fmt.Fprintf(&b, "%6s %6s %8s | %6s %6s | %8s %8s %8s | %10s %10s\n",
		"nodes", "hosts", "regions", "vnodes", "vlinks", "build ms", "poll ms", "merge ms", "intra Mbps", "cross Mbps")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "%6d %6d %8d | %6d %6d | %8.0f %8.0f %8.0f | %10.1f %10.1f\n",
			r.Nodes, r.Hosts, r.Regions, r.MergedNodes, r.MergedLinks,
			r.BuildMS, r.PollMS, r.MergeMS, r.IntraMbps, r.CrossMbps)
	}
	return b.String()
}
