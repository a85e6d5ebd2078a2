package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"

	collectorpkg "repro/internal/collector"
)

func TestComputeAwareAvoidsLoadedHost(t *testing.T) {
	nodes, d := fourPlusTwo() // a,b,c,d tight; e,f distant
	loads := []float64{0, 0, 0.9, 0, 0, 0}
	// Without load awareness, {a,b,c} is the natural pick from a.
	plain, err := Greedy(nodes, d, "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(plain.Nodes, "c") {
		t.Fatalf("plain greedy = %v (expected to include c)", plain.Nodes)
	}
	// With a strong penalty, the 90%-loaded c is skipped for d.
	aware, err := ComputeAwareGreedy(nodes, d, loads, "a", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if contains(aware.Nodes, "c") {
		t.Fatalf("compute-aware selection still picked the loaded host: %v", aware.Nodes)
	}
	if !contains(aware.Nodes, "d") {
		t.Fatalf("compute-aware selection = %v", aware.Nodes)
	}
}

func TestComputeAwareZeroPenaltyMatchesGreedy(t *testing.T) {
	nodes, d := fourPlusTwo()
	loads := []float64{0, 0.5, 0.2, 0.9, 0, 0.1}
	plain, _ := Greedy(nodes, d, "a", 4)
	aware, err := ComputeAwareGreedy(nodes, d, loads, "a", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Nodes) != len(aware.Nodes) {
		t.Fatal("length mismatch")
	}
	for i := range plain.Nodes {
		if plain.Nodes[i] != aware.Nodes[i] {
			t.Fatalf("zero penalty diverged: %v vs %v", aware.Nodes, plain.Nodes)
		}
	}
}

func TestComputeAwareFullyLoadedHostUnselectable(t *testing.T) {
	nodes, d := fourPlusTwo()
	loads := []float64{0, 1.0, 1.0, 1.0, 1.0, 1.0} // only the start is usable
	if _, err := ComputeAwareGreedy(nodes, d, loads, "a", 3, 1); err == nil {
		t.Fatal("selected fully loaded hosts")
	}
	// k=1 (just the start) still fine.
	res, err := ComputeAwareGreedy(nodes, d, loads, "a", 1, 1)
	if err != nil || res.Nodes[0] != "a" {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

func TestComputeAwareErrors(t *testing.T) {
	nodes, d := fourPlusTwo()
	if _, err := ComputeAwareGreedy(nodes, d, []float64{0}, "a", 2, 1); err == nil {
		t.Fatal("bad load vector accepted")
	}
}

// End to end: two candidate hosts are equally well-connected but one is
// CPU-saturated; compute-aware selection from live Remos data picks the
// idle one.
func TestComputeAwareFromModeler(t *testing.T) {
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := collectorpkg.New(collectorpkg.Config{
		Client:     snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:      clk,
		Addrs:      addrs,
		PollPeriod: 1,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	mod := core.New(core.Config{Source: col})
	// m-5 is pegged; m-6 idle. Both are one hop from m-4.
	n.SetHostLoad("m-5", 0.9)
	clk.Advance(15)

	res, err := ComputeAwareFromModeler(mod, topology.TestbedHosts, "m-4", 3,
		TestbedMetric(), core.TFHistory(10), 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if contains(res.Nodes, "m-5") {
		t.Fatalf("selection %v includes the saturated host", res.Nodes)
	}
	// Communication-only selection would have taken m-5 (closest to
	// m-4 with the latency tie-break).
	plain, err := FromModeler(mod, topology.TestbedHosts, "m-4", 3, TestbedMetric(), core.TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if !contains(plain.Nodes, "m-5") {
		t.Fatalf("plain selection = %v (expected m-5)", plain.Nodes)
	}
}

func contains(nodes []graph.NodeID, id graph.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
