package collective

import (
	"math"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"
)

func wideAreaEnv(t *testing.T) (*simclock.Clock, *netsim.Network, *core.Modeler) {
	t.Helper()
	// Two sites of 4 hosts, 5-hop 10 Mbps backbone, 100 Mbps LANs.
	g := topology.WideArea(4, 5, 100, 10)
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
	col := collector.New(collector.Config{
		Client:     snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:      clk,
		Addrs:      addrs,
		PollPeriod: 2,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10)
	return clk, n, core.New(core.Config{Source: col})
}

func participants() []graph.NodeID {
	return []graph.NodeID{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
}

func TestFlatSchedule(t *testing.T) {
	s, err := Flat("a0", participants(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 1 || len(s.Rounds[0]) != 7 {
		t.Fatalf("rounds = %+v", s.Rounds)
	}
	recv := s.Receivers()
	if len(recv) != 7 || recv["a0"] != 0 {
		t.Fatalf("receivers = %v", recv)
	}
	if s.TotalBytes() != 7e6 {
		t.Fatalf("total = %v", s.TotalBytes())
	}
}

func TestBinomialSchedule(t *testing.T) {
	s, err := Binomial("a0", participants(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// 8 participants -> 3 rounds (1+1, 2, 4).
	if len(s.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(s.Rounds))
	}
	if len(s.Rounds[0]) != 1 || len(s.Rounds[1]) != 2 || len(s.Rounds[2]) != 4 {
		t.Fatalf("round sizes = %d,%d,%d", len(s.Rounds[0]), len(s.Rounds[1]), len(s.Rounds[2]))
	}
	// Every non-root receives exactly once.
	for n, c := range s.Receivers() {
		if c != 1 {
			t.Fatalf("%s received %d times", n, c)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Flat("zz", participants(), 1e6); err == nil {
		t.Fatal("root outside participants accepted")
	}
	if _, err := Flat("a0", participants(), 0); err == nil {
		t.Fatal("zero payload accepted")
	}
	if _, err := Binomial("a0", []graph.NodeID{"a0", "a1", "a1"}, 1); err == nil {
		t.Fatal("duplicate participant accepted")
	}
}

func TestSingleParticipantBroadcast(t *testing.T) {
	s, err := Flat("a0", []graph.NodeID{"a0"}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 0 {
		t.Fatalf("rounds = %d", len(s.Rounds))
	}
	_, n, _ := wideAreaEnv(t)
	if got := Measure(n, s, "app"); got != 0 {
		t.Fatalf("empty broadcast took %v", got)
	}
}

func TestMaxBottleneckTreeCrossesWANOnce(t *testing.T) {
	_, _, mod := wideAreaEnv(t)
	bw, err := mod.BandwidthMatrix(participants(), core.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := MaxBottleneckTree("a0", participants(), bw)
	if err != nil {
		t.Fatal(err)
	}
	// Count tree edges that cross sites: must be exactly 1.
	cross := 0
	for child, parent := range tree.Parent {
		if child[0] != parent[0] {
			cross++
		}
	}
	if cross != 1 {
		t.Fatalf("tree crosses the WAN %d times, want 1", cross)
	}
	// All 7 non-roots have parents.
	if len(tree.Parent) != 7 {
		t.Fatalf("parents = %d", len(tree.Parent))
	}
}

func TestTopologyAwareBeatsFlatAcrossWAN(t *testing.T) {
	payload := 10e6 / 8 * 10 // 12.5 MB

	flatTime := func() float64 {
		_, n, _ := wideAreaEnv(t)
		s, err := Flat("a0", participants(), payload)
		if err != nil {
			t.Fatal(err)
		}
		return Measure(n, s, "app")
	}()
	awareTime := func() float64 {
		_, n, mod := wideAreaEnv(t)
		s, err := TopologyAware(mod, "a0", participants(), payload, core.TFCapacity())
		if err != nil {
			t.Fatal(err)
		}
		return Measure(n, s, "app")
	}()
	binomTime := func() float64 {
		_, n, _ := wideAreaEnv(t)
		s, err := Binomial("a0", participants(), payload)
		if err != nil {
			t.Fatal(err)
		}
		return Measure(n, s, "app")
	}()

	// Flat pushes 4 copies through the 10 Mbps WAN; topology-aware pushes
	// one. Expect ~3-4x improvement.
	if awareTime*2.5 > flatTime {
		t.Fatalf("topology-aware %v vs flat %v: less than 2.5x win", awareTime, flatTime)
	}
	// The oblivious binomial tree also crosses the WAN multiple times
	// (participant order interleaves sites), so topology-aware beats it
	// too on this network.
	if awareTime >= binomTime {
		t.Fatalf("topology-aware %v not better than binomial %v", awareTime, binomTime)
	}
}

func TestBroadcastDeliversExactBytes(t *testing.T) {
	_, n, mod := wideAreaEnv(t)
	payload := 2e6
	s, err := TopologyAware(mod, "a0", participants(), payload, core.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	before := n.DeliveredBytes()
	Measure(n, s, "app")
	delivered := n.DeliveredBytes() - before
	if math.Abs(delivered-7*payload) > 1 {
		t.Fatalf("delivered %v bytes, want %v", delivered, 7*payload)
	}
	for node, c := range s.Receivers() {
		if c != 1 {
			t.Fatalf("%s received %d times", node, c)
		}
	}
}

func TestMeasureUnderCompetingTraffic(t *testing.T) {
	_, n, mod := wideAreaEnv(t)
	s, err := TopologyAware(mod, "a0", participants(), 1e6, core.TFCapacity())
	if err != nil {
		t.Fatal(err)
	}
	clean := Measure(n, s, "app")
	// Occupy the WAN with a blast; the same schedule slows down.
	n.StartFlow(netsim.FlowSpec{Src: "a1", Dst: "b1", RateCap: 9e6, Priority: true, Owner: "traffic"})
	busy := Measure(n, s, "app")
	if busy <= clean*2 {
		t.Fatalf("busy %v vs clean %v: WAN contention not visible", busy, clean)
	}
}

func BenchmarkTopologyAwareCompile(b *testing.B) {
	g := topology.WideArea(8, 5, 100, 10)
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		b.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := collector.New(collector.Config{
		Client: snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:  clk, Addrs: addrs, PollPeriod: 2,
	})
	if err := col.Start(); err != nil {
		b.Fatal(err)
	}
	clk.Advance(10)
	mod := core.New(core.Config{Source: col})
	parts := n.Graph().ComputeNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TopologyAware(mod, parts[0], parts, 1e6, core.TFCapacity()); err != nil {
			b.Fatal(err)
		}
	}
}
