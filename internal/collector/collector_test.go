package collector

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// rig is a full testbed with agents and one collector over everything.
type rig struct {
	clk *simclock.Clock
	net *netsim.Network
	att *snmp.AttachedAgents
	col *Collector
}

func newRig(t testing.TB, pollPeriod float64) *rig {
	t.Helper()
	return newRigOn(t, topology.Testbed(), pollPeriod)
}

// newRigOn is newRig over an arbitrary topology.
func newRigOn(t testing.TB, g *graph.Graph, pollPeriod float64) *rig {
	t.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := New(Config{
		Client:        snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:         clk,
		Addrs:         addrs,
		PollPeriod:    pollPeriod,
		PerHopLatency: topology.PerHopLatency,
	})
	return &rig{clk: clk, net: n, att: att, col: col}
}

// keyFor returns the ChannelKey for traffic flowing from `from` to `to`
// over their direct link in the discovered topology.
func keyFor(t testing.TB, topo *Topology, from, to graph.NodeID) ChannelKey {
	t.Helper()
	for _, l := range topo.Graph.Links() {
		if (l.A == from && l.B == to) || (l.A == to && l.B == from) {
			return topo.Key(l, l.DirFrom(from))
		}
	}
	t.Fatalf("no link %s--%s", from, to)
	return ChannelKey{}
}

func TestDiscovery(t *testing.T) {
	r := newRig(t, 2)
	topo, err := r.col.Discover()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph
	if got := len(g.ComputeNodes()); got != 8 {
		t.Fatalf("hosts = %d", got)
	}
	if got := len(g.NetworkNodes()); got != 3 {
		t.Fatalf("routers = %d", got)
	}
	if g.NumLinks() != 10 {
		t.Fatalf("links = %d", g.NumLinks())
	}
	for _, l := range g.Links() {
		if l.Capacity != 100e6 {
			t.Fatalf("link capacity = %v", l.Capacity)
		}
		if l.Latency != topology.PerHopLatency {
			t.Fatalf("link latency = %v", l.Latency)
		}
	}
	// Global IDs must be unique and cover all links.
	seen := map[int]bool{}
	for _, gid := range topo.GlobalID {
		if seen[gid] {
			t.Fatalf("duplicate global ID %d", gid)
		}
		seen[gid] = true
	}
	// Discovered topology must route like the real one.
	rt, err := g.Routes()
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Route("m-6", "m-8")
	if p.Nodes[1] != "timberline" || p.Nodes[2] != "whiteface" {
		t.Fatalf("route = %v", p)
	}
	// Capacities recorded per channel.
	k := keyFor(t, topo, "timberline", "whiteface")
	if capa, ok := r.col.Capacity(k); !ok || capa != 100e6 {
		t.Fatalf("capacity = %v, %v", capa, ok)
	}
}

func TestTopologyBeforeDiscoveryFails(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.col.Topology(); err == nil {
		t.Fatal("expected error before discovery")
	}
}

func TestPollingMeasuresCBR(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(61)
	topo, _ := r.col.Topology()
	k := keyFor(t, topo, "timberline", "whiteface")
	st, err := r.col.Utilization(k, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-60e6) > 1e4 {
		t.Fatalf("utilization = %v, want ~60e6", st)
	}
	if st.Accuracy <= 0.5 {
		t.Fatalf("accuracy = %v", st.Accuracy)
	}
	// Reverse direction is idle.
	rk := keyFor(t, topo, "whiteface", "timberline")
	rst, _ := r.col.Utilization(rk, 30)
	if rst.Median > 1 {
		t.Fatalf("reverse utilization = %v", rst)
	}
	if r.col.Polls() < 30 {
		t.Fatalf("polls = %d", r.col.Polls())
	}
	r.col.Stop()
	before := r.col.Polls()
	r.clk.Advance(20)
	if r.col.Polls() != before {
		t.Fatal("polling continued after Stop")
	}
}

func TestPollingSeesTrafficChanges(t *testing.T) {
	r := newRig(t, 1)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	// 30s idle, then 30s of 80 Mbps.
	r.clk.RunUntil(30)
	g := traffic.Blast(r.net, "m-6", "m-8", 80e6)
	r.clk.RunUntil(60)
	topo, _ := r.col.Topology()
	k := keyFor(t, topo, "m-6", "timberline")
	recent, _ := r.col.Utilization(k, 10) // only busy period
	full, _ := r.col.Utilization(k, 58)   // spans both regimes
	if math.Abs(recent.Median-80e6) > 1e4 {
		t.Fatalf("recent = %v", recent)
	}
	if full.Min > 1e4 {
		t.Fatalf("full-window min = %v, should include idle samples", full.Min)
	}
	if full.IQR() < 1e6 {
		t.Fatalf("full-window IQR = %v, should be wide", full.IQR())
	}
	g.Stop()
}

func TestCounterWraparound(t *testing.T) {
	// 90 Mbps = 11.25 MB/s; Counter32 wraps every ~382 s. Run 800 s and
	// verify no garbage samples appear around the wraps.
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-1", "m-2", 90e6)
	r.clk.RunUntil(800)
	topo, _ := r.col.Topology()
	k := keyFor(t, topo, "m-1", "aspen")
	samples, err := r.col.Samples(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 300 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if math.Abs(s.Value-90e6) > 1e4 {
			t.Fatalf("sample at t=%v is %v; wraparound mishandled", s.Time, s.Value)
		}
	}
}

func TestHostLoadPolling(t *testing.T) {
	r := newRig(t, 2)
	r.net.SetHostLoad("m-3", 0.4)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(10)
	st, err := r.col.HostLoad("m-3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-0.4) > 1e-9 {
		t.Fatalf("load = %v", st)
	}
	if _, err := r.col.HostLoad("aspen", 10); err == nil {
		t.Fatal("router load query succeeded")
	}
}

func TestUnknownChannelErrors(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(5)
	if _, err := r.col.Utilization(ChannelKey{Global: 999}, 5); err == nil {
		t.Fatal("bogus channel succeeded")
	}
	if _, err := r.col.Samples(ChannelKey{Global: 999}); err == nil {
		t.Fatal("bogus samples succeeded")
	}
}

func TestPartialDomainAndFailures(t *testing.T) {
	clk := simclock.New()
	n, _ := netsim.New(clk, topology.Testbed())
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := map[graph.NodeID]string{
		"aspen": snmp.Addr("aspen"),
		"ghost": "snmp://nowhere", // unreachable agent
		"m-1":   snmp.Addr("m-1"),
		"m-2":   snmp.Addr("m-2"),
		"m-3":   snmp.Addr("m-3"),
	}
	col := New(Config{
		Client:     snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:      clk,
		Addrs:      addrs,
		PollPeriod: 1,
	})
	topo, err := col.Discover()
	if err != nil {
		t.Fatal(err)
	}
	// aspen's neighbors include timberline, discovered as a leaf.
	if !topo.Graph.HasNode("timberline") {
		t.Fatal("leaf neighbor missing")
	}
	if topo.Graph.NumLinks() != 4 { // m-1,2,3 links + aspen-timberline
		t.Fatalf("links = %d", topo.Graph.NumLinks())
	}
	if col.PollErrors() == 0 {
		t.Fatal("unreachable agent not counted")
	}
	col.PollOnce()
	clk.Advance(1)
	col.PollOnce()
	if col.Polls() != 2 {
		t.Fatalf("polls = %d", col.Polls())
	}
}

func TestEmptyDomainFails(t *testing.T) {
	clk := simclock.New()
	n, _ := netsim.New(clk, topology.Testbed())
	att := snmp.Attach(n, snmp.DefaultCommunity)
	col := New(Config{
		Client: snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:  clk,
		Addrs:  nil,
	})
	if _, err := col.Discover(); err == nil {
		t.Fatal("empty domain succeeded")
	}
}

func TestDeterministicSamples(t *testing.T) {
	run := func() []float64 {
		r := newRig(t, 2)
		if err := r.col.Start(); err != nil {
			t.Fatal(err)
		}
		traffic.OnOff(r.net, "m-6", "m-8", traffic.OnOffConfig{Rate: 50e6, MeanOn: 3, MeanOff: 2, Seed: 5})
		r.clk.RunUntil(120)
		topo, _ := r.col.Topology()
		k := keyFor(t, topo, "timberline", "whiteface")
		samples, _ := r.col.Samples(k)
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = s.Value
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
