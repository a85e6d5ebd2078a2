package fx

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
	"repro/internal/traffic"

	clusterpkg "repro/internal/cluster"
)

func testbedNet(t *testing.T) (*simclock.Clock, *netsim.Network) {
	t.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	return clk, n
}

func TestComputeOnlyProgram(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{Net: n}
	p := &Program{
		Name:       "compute",
		Iterations: 3,
		Steps: []Step{
			{Name: "work", WorkPerNode: func(p int) float64 { return 2.0 / float64(p) }},
		},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	// 3 iterations × (2/2 = 1 work unit at power 1) = 3 s.
	if math.Abs(rep.Elapsed()-3.0) > 1e-9 {
		t.Fatalf("elapsed = %v, want 3", rep.Elapsed())
	}
	if len(rep.IterationTimes) != 3 {
		t.Fatalf("iterations recorded = %d", len(rep.IterationTimes))
	}
	for _, it := range rep.IterationTimes {
		if math.Abs(it-1.0) > 1e-9 {
			t.Fatalf("iteration time = %v", it)
		}
	}
}

func TestSlowestNodeGatesComputePhase(t *testing.T) {
	_, n := testbedNet(t)
	n.SetHostLoad("m-2", 0.5) // m-2 computes at half speed
	rt := &Runtime{Net: n}
	p := &Program{
		Name: "bsp", Iterations: 1,
		Steps: []Step{{Name: "w", WorkPerNode: func(int) float64 { return 1 }}},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	if math.Abs(rep.Elapsed()-2.0) > 1e-9 {
		t.Fatalf("elapsed = %v, want 2 (slowest node)", rep.Elapsed())
	}
}

func TestCommPhaseTiming(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{Net: n}
	p := &Program{
		Name: "comm", Iterations: 1,
		Steps: []Step{{Name: "xfer", Comm: func(nodes []graph.NodeID) []netsim.FlowSpec {
			return []netsim.FlowSpec{{Src: nodes[0], Dst: nodes[1], Bytes: 100e6 / 8}}
		}}},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	// 100 Mbit over 100 Mbps = 1 s.
	if math.Abs(rep.Elapsed()-1.0) > 1e-9 {
		t.Fatalf("elapsed = %v, want 1", rep.Elapsed())
	}
}

func TestCommContendWithTraffic(t *testing.T) {
	_, n := testbedNet(t)
	traffic.Blast(n, "m-6", "m-8", 90e6)
	rt := &Runtime{Net: n}
	mk := func(a, b graph.NodeID) *Report {
		p := &Program{
			Name: "x", Iterations: 1,
			Steps: []Step{{Name: "t", Comm: func(nodes []graph.NodeID) []netsim.FlowSpec {
				return []netsim.FlowSpec{{Src: nodes[0], Dst: nodes[1], Bytes: 10e6 / 8}}
			}}},
		}
		return rt.RunToCompletion(p, []graph.NodeID{a, b})
	}
	clean := mk("m-1", "m-2")
	busy := mk("m-4", "m-7") // crosses the blasted link
	if math.Abs(clean.Elapsed()-0.1) > 1e-9 {
		t.Fatalf("clean = %v", clean.Elapsed())
	}
	if math.Abs(busy.Elapsed()-1.0) > 1e-6 {
		t.Fatalf("busy = %v, want 1.0 (10 Mbps leftover)", busy.Elapsed())
	}
}

func TestOverheadFactor(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{Net: n, CompiledNodes: 8, OverheadAlpha: 0.5}
	if got := rt.overheadFactor(8); got != 1 {
		t.Fatalf("factor(8) = %v", got)
	}
	if got := rt.overheadFactor(4); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("factor(4) = %v", got)
	}
	// Default alpha.
	rt2 := &Runtime{Net: n, CompiledNodes: 8}
	if got := rt2.overheadFactor(5); math.Abs(got-(1+0.55*0.6)) > 1e-12 {
		t.Fatalf("default factor(5) = %v", got)
	}
}

// fixedAdapter migrates to a predetermined set at a given iteration.
type fixedAdapter struct {
	at   int
	to   []graph.NodeID
	cost float64
}

func (f *fixedAdapter) MaybeMigrate(now simclock.Time, iter int, cur []graph.NodeID) ([]graph.NodeID, float64) {
	if iter == f.at {
		return f.to, f.cost
	}
	return nil, f.cost
}

func TestMigrationChangesNodesAndCharges(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{
		Net:           n,
		Adapter:       &fixedAdapter{at: 1, to: []graph.NodeID{"m-7", "m-8"}, cost: 0.5},
		MigrationCost: 2.0,
	}
	p := &Program{
		Name: "mig", Iterations: 3,
		Steps: []Step{{Name: "w", WorkPerNode: func(int) float64 { return 1 }}},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	if len(rep.Migrations) != 1 {
		t.Fatalf("migrations = %d", len(rep.Migrations))
	}
	if rep.Migrations[0].Iteration != 1 {
		t.Fatalf("migrated at iteration %d", rep.Migrations[0].Iteration)
	}
	if rep.Nodes[0] != "m-7" && rep.Nodes[1] != "m-7" {
		t.Fatalf("final nodes = %v", rep.Nodes)
	}
	// 3 iterations × 1 s compute + 3 × 0.5 decision + 1 × 2 migration.
	want := 3 + 3*0.5 + 2.0
	if math.Abs(rep.Elapsed()-want) > 1e-9 {
		t.Fatalf("elapsed = %v, want %v", rep.Elapsed(), want)
	}
	if math.Abs(rep.AdaptSeconds-(3*0.5+2.0)) > 1e-9 {
		t.Fatalf("adapt seconds = %v", rep.AdaptSeconds)
	}
}

func TestAdapterReturningSameSetDoesNotMigrate(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{
		Net:           n,
		Adapter:       &fixedAdapter{at: 0, to: []graph.NodeID{"m-2", "m-1"}, cost: 0},
		MigrationCost: 100,
	}
	p := &Program{Name: "same", Iterations: 1,
		Steps: []Step{{Name: "w", WorkPerNode: func(int) float64 { return 1 }}}}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	// Same set in different order: no migration.
	if len(rep.Migrations) != 0 {
		t.Fatalf("migrations = %d", len(rep.Migrations))
	}
}

func TestMigrationDataTransferCost(t *testing.T) {
	// Migration ships state as real flows: 80 Mbit split across two
	// leavers at 100 Mbps each on disjoint paths ≈ 0.4 s extra.
	_, n := testbedNet(t)
	rt := &Runtime{
		Net:                n,
		Adapter:            &fixedAdapter{at: 1, to: []graph.NodeID{"m-7", "m-8"}},
		MigrationDataBytes: 20e6, // 10 MB per partition
	}
	p := &Program{
		Name: "mig-data", Iterations: 3,
		Steps: []Step{{Name: "w", WorkPerNode: func(int) float64 { return 1 }}},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	// 3 s compute + one redistribution: each of m-1,m-2 ships 10 MB to a
	// whiteface host; paths share aspen->timberline (two 80 Mbit flows
	// over 100 Mbps shared = 1.6 s).
	want := 3 + 1.6
	if math.Abs(rep.Elapsed()-want) > 1e-6 {
		t.Fatalf("elapsed = %v, want %v", rep.Elapsed(), want)
	}
	if math.Abs(rep.AdaptSeconds-1.6) > 1e-6 {
		t.Fatalf("adapt seconds = %v", rep.AdaptSeconds)
	}
}

func TestMigrationDataTransferContends(t *testing.T) {
	// The same migration across a blasted link takes much longer — the
	// cost the adaptation module must weigh (§6: "this overhead has to
	// be considered when evaluating adaptation options").
	_, n := testbedNet(t)
	traffic.Blast(n, "m-6", "m-8", 90e6) // loads timberline->whiteface
	rt := &Runtime{
		Net:                n,
		Adapter:            &fixedAdapter{at: 1, to: []graph.NodeID{"m-7", "m-8"}},
		MigrationDataBytes: 20e6,
	}
	p := &Program{
		Name: "mig-busy", Iterations: 3,
		Steps: []Step{{Name: "w", WorkPerNode: func(int) float64 { return 1 }}},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-1", "m-2"})
	// Both 10 MB partitions squeeze through the 10 Mbps leftover:
	// 160 Mbit / 10 Mbps = 16 s.
	if rep.AdaptSeconds < 10 {
		t.Fatalf("adapt seconds = %v; contention not reflected", rep.AdaptSeconds)
	}
}

func TestMigrationFlowsHelper(t *testing.T) {
	flows := migrationFlows(
		[]graph.NodeID{"a", "b", "c"},
		[]graph.NodeID{"a", "d", "e"},
		30e6,
	)
	// b and c leave; d and e join; 10 MB each.
	if len(flows) != 2 {
		t.Fatalf("flows = %+v", flows)
	}
	for _, f := range flows {
		if f.Bytes != 10e6 {
			t.Fatalf("partition = %v", f.Bytes)
		}
		if f.Src != "b" && f.Src != "c" {
			t.Fatalf("src = %v", f.Src)
		}
		if f.Dst != "d" && f.Dst != "e" {
			t.Fatalf("dst = %v", f.Dst)
		}
	}
	if migrationFlows([]graph.NodeID{"a"}, []graph.NodeID{"a"}, 1e6) != nil {
		t.Fatal("no-op migration produced flows")
	}
	if migrationFlows([]graph.NodeID{"a", "b"}, []graph.NodeID{"a"}, 1e6) != nil {
		t.Fatal("shrink produced flows")
	}
	if migrationFlows([]graph.NodeID{"a"}, []graph.NodeID{"b"}, 0) != nil {
		t.Fatal("zero bytes produced flows")
	}
}

func TestPatterns(t *testing.T) {
	nodes := []graph.NodeID{"a", "b", "c"}
	if got := len(AllToAll(10)(nodes)); got != 6 {
		t.Fatalf("AllToAll flows = %d", got)
	}
	a2at := AllToAllTotal(90)(nodes)
	if len(a2at) != 6 || a2at[0].Bytes != 10 {
		t.Fatalf("AllToAllTotal = %+v", a2at)
	}
	if AllToAllTotal(90)([]graph.NodeID{"a"}) != nil {
		t.Fatal("AllToAllTotal single node should be empty")
	}
	b := Broadcast(5)(nodes)
	if len(b) != 2 || b[0].Src != "a" {
		t.Fatalf("Broadcast = %+v", b)
	}
	g := Gather(5)(nodes)
	if len(g) != 2 || g[0].Dst != "a" {
		t.Fatalf("Gather = %+v", g)
	}
	rg := Ring(5)(nodes)
	if len(rg) != 6 {
		t.Fatalf("Ring flows = %d", len(rg))
	}
}

func TestRunPanicsOnBadInput(t *testing.T) {
	_, n := testbedNet(t)
	rt := &Runtime{Net: n}
	for name, fn := range map[string]func(){
		"no iterations": func() {
			rt.Run(&Program{Name: "x"}, []graph.NodeID{"m-1"}, nil)
		},
		"no nodes": func() {
			rt.Run(&Program{Name: "x", Iterations: 1}, nil, nil)
		},
		"router node": func() {
			rt.Run(&Program{Name: "x", Iterations: 1}, []graph.NodeID{"aspen"}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRemosAdapterMigratesAwayFromTraffic is the end-to-end §8.3
// behavior: an iterative program on the whiteface side migrates to the
// aspen side once blast traffic appears on its links.
func TestRemosAdapterMigratesAwayFromTraffic(t *testing.T) {
	clk, n := testbedNet(t)
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := collector.New(collector.Config{
		Client:     snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:      clk,
		Addrs:      addrs,
		PollPeriod: 1,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	mod := core.New(core.Config{Source: col})
	adapter := &RemosAdapter{
		Modeler:   mod,
		Pool:      topology.TestbedHosts,
		Start:     "m-4",
		Metric:    clusterpkg.TestbedMetric(),
		Timeframe: core.TFHistory(10),
	}
	rt := &Runtime{Net: n, Adapter: adapter, MigrationCost: 1}

	// Interfering traffic between m-6 and m-8 from the start.
	traffic.Blast(n, "m-6", "m-8", 90e6)
	clk.RunUntil(15) // let the collector observe it

	// Program initially mapped onto the traffic side.
	p := &Program{
		Name: "adaptive", Iterations: 5,
		Steps: []Step{
			{Name: "w", WorkPerNode: func(int) float64 { return 2 }},
			{Name: "x", Comm: AllToAll(2e6)},
		},
	}
	rep := rt.RunToCompletion(p, []graph.NodeID{"m-4", "m-6", "m-7", "m-8"})
	if len(rep.Migrations) == 0 {
		t.Fatal("adapter never migrated away from traffic")
	}
	for _, id := range rep.Nodes {
		if id == "m-7" || id == "m-8" {
			t.Fatalf("final nodes %v still on the traffic side", rep.Nodes)
		}
	}
	if adapter.Checks == 0 {
		t.Fatal("adapter never checked")
	}
}
