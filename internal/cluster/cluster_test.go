package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"
	"repro/internal/traffic"

	collectorpkg "repro/internal/collector"
)

func TestMetricDistance(t *testing.T) {
	m := Metric{BandwidthWeight: 1}
	if m.Distance(100e6, 0.001) >= m.Distance(10e6, 0.001) {
		t.Fatal("higher bandwidth should mean lower distance")
	}
	if !math.IsInf(m.Distance(0, 0), 1) {
		t.Fatal("zero bandwidth should be infinite distance")
	}
	lm := Metric{LatencyWeight: 1}
	if lm.Distance(1, 0.5) != 0.5 {
		t.Fatalf("latency-only distance = %v", lm.Distance(1, 0.5))
	}
}

func TestDistanceMatrix(t *testing.T) {
	bw := [][]float64{{0, 10}, {20, 0}}
	lat := [][]float64{{0, 1}, {2, 0}}
	d := DistanceMatrix(bw, lat, Metric{BandwidthWeight: 10, LatencyWeight: 1})
	if d[0][0] != 0 || d[1][1] != 0 {
		t.Fatal("diagonal not zero")
	}
	if d[0][1] != 2 || d[1][0] != 2.5 {
		t.Fatalf("matrix = %v", d)
	}
	// Without latency matrix.
	d2 := DistanceMatrix(bw, nil, Metric{BandwidthWeight: 10})
	if d2[0][1] != 1 {
		t.Fatalf("matrix = %v", d2)
	}
}

// fourPlusTwo builds a distance matrix with a tight group {a,b,c,d} and
// two distant stragglers {e,f}.
func fourPlusTwo() ([]graph.NodeID, [][]float64) {
	nodes := []graph.NodeID{"a", "b", "c", "d", "e", "f"}
	n := len(nodes)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				continue
			}
			if i < 4 && j < 4 {
				d[i][j] = 1
			} else {
				d[i][j] = 10
			}
		}
	}
	return nodes, d
}

func TestGreedyPicksTightGroup(t *testing.T) {
	nodes, d := fourPlusTwo()
	res, err := Greedy(nodes, d, "a", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{"a", "b", "c", "d"}
	if !reflect.DeepEqual(res.Nodes, want) {
		t.Fatalf("greedy = %v", res.Nodes)
	}
	if res.Score != 1 {
		t.Fatalf("score = %v", res.Score)
	}
}

func TestGreedyStartsFromGivenNode(t *testing.T) {
	nodes, d := fourPlusTwo()
	res, err := Greedy(nodes, d, "e", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0] != "e" {
		t.Fatalf("start = %v", res.Nodes[0])
	}
}

func TestGreedySingleNode(t *testing.T) {
	nodes, d := fourPlusTwo()
	res, err := Greedy(nodes, d, "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || res.Nodes[0] != "c" || res.Score != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestGreedyErrors(t *testing.T) {
	nodes, d := fourPlusTwo()
	if _, err := Greedy(nodes, d, "zz", 2); err == nil {
		t.Fatal("unknown start accepted")
	}
	if _, err := Greedy(nodes, d, "a", 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Greedy(nodes, d, "a", 7); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Greedy(nodes, [][]float64{{0}}, "a", 2); err == nil {
		t.Fatal("bad matrix accepted")
	}
	// Unreachable nodes (infinite distance) fail when k demands them.
	inf := math.Inf(1)
	d2 := [][]float64{{0, inf}, {inf, 0}}
	if _, err := Greedy([]graph.NodeID{"a", "b"}, d2, "a", 2); err == nil {
		t.Fatal("disconnected selection accepted")
	}
}

func TestOptimalMatchesGreedyOnEasyCase(t *testing.T) {
	nodes, d := fourPlusTwo()
	g, _ := Greedy(nodes, d, "a", 4)
	o, err := Optimal(nodes, d, "a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Score != g.Score {
		t.Fatalf("optimal %v vs greedy %v", o.Score, g.Score)
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(3)
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = graph.NodeID(string(rune('a' + i)))
		}
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() * 10
				d[i][j], d[j][i] = v, v
			}
		}
		k := 2 + rng.Intn(n-2)
		g, err := Greedy(nodes, d, nodes[0], k)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Optimal(nodes, d, nodes[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if o.Score > g.Score+1e-12 {
			t.Fatalf("trial %d: optimal %v worse than greedy %v", trial, o.Score, g.Score)
		}
		if o.Nodes[0] != nodes[0] && indexOf(o.Nodes, nodes[0]) < 0 {
			t.Fatalf("optimal dropped the start node: %v", o.Nodes)
		}
	}
}

// TestFigure4Selection reproduces the paper's Figure 4: with blast
// traffic m-6 -> m-8, greedy selection from start m-4 must pick
// {m-1, m-2, m-4, m-5} — a set whose internal communication avoids the
// loaded timberline->whiteface link.
func TestFigure4Selection(t *testing.T) {
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
	traffic.Blast(n, "m-6", "m-8", 90e6)
	clk.RunUntil(20)

	res, err := FromModeler(mod, topology.TestbedHosts, "m-4", 4, TestbedMetric(), core.TFHistory(15))
	if err != nil {
		t.Fatal(err)
	}
	got := map[graph.NodeID]bool{}
	for _, id := range res.Nodes {
		got[id] = true
	}
	for _, want := range []graph.NodeID{"m-1", "m-2", "m-4", "m-5"} {
		if !got[want] {
			t.Fatalf("figure 4 selection = %v, want m-1,m-2,m-4,m-5", res.Nodes)
		}
	}

	// With bandwidth-only distances the heuristic picks a set that is
	// performance-equivalent (avoids the loaded link) but may differ in
	// names; verify the avoidance property.
	res2, err := FromModeler(mod, topology.TestbedHosts, "m-4", 4, Metric{BandwidthWeight: 1}, core.TFHistory(15))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res2.Nodes {
		if id == "m-6" || id == "m-7" || id == "m-8" {
			t.Fatalf("bandwidth-only selection %v includes a traffic-side node", res2.Nodes)
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = rng.Float64()
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(nodes, d, nodes[0], 16); err != nil {
			b.Fatal(err)
		}
	}
}
