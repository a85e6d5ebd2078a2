package collector

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestPeriodicRediscoveryPicksUpDegradation(t *testing.T) {
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
	col := New(Config{
		Client:           snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:            clk,
		Addrs:            addrs,
		PollPeriod:       1,
		RediscoverPeriod: 10,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5)
	if col.Discoveries() != 1 {
		t.Fatalf("discoveries = %d", col.Discoveries())
	}

	// Degrade m-1--aspen to 30 Mbps; within a rediscovery period the
	// collector's topology reflects it.
	var target graph.LinkID = -1
	for _, l := range n.Graph().Links() {
		if (l.A == "m-1" && l.B == "aspen") || (l.A == "aspen" && l.B == "m-1") {
			target = l.ID
		}
	}
	n.SetLinkCapacity(target, 30e6)
	clk.Advance(12)
	if col.Discoveries() < 2 {
		t.Fatalf("discoveries = %d after rediscovery period", col.Discoveries())
	}
	topo, err := col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range topo.Graph.Links() {
		if (l.A == "m-1" && l.B == "aspen") || (l.A == "aspen" && l.B == "m-1") {
			found = true
			if l.Capacity != 30e6 {
				t.Fatalf("rediscovered capacity = %v", l.Capacity)
			}
		}
	}
	if !found {
		t.Fatal("link vanished from topology")
	}
	// Stopping also halts rediscovery.
	col.Stop()
	before := col.Discoveries()
	clk.Advance(30)
	if col.Discoveries() != before {
		t.Fatal("rediscovery survived Stop")
	}
}

// TestAgentFlapBreakerAndAccuracyRecovery flaps the backbone routers
// through a fault injector and checks the whole reaction chain: health
// goes Down, the breaker throttles probing, rediscovery during the
// outage keeps the dead routers in the topology (as routers, with their
// links), query accuracy decays with data age, and everything — health,
// topology, accuracy — recovers once the agents answer again.
func TestAgentFlapBreakerAndAccuracyRecovery(t *testing.T) {
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	inj := faults.New(att.Registry, clk, 7)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := New(Config{
		Client:           snmp.NewClient(inj, snmp.DefaultCommunity),
		Clock:            clk,
		Addrs:            addrs,
		PollPeriod:       1,
		RediscoverPeriod: 10,
		StaleHalfLife:    5,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(n, "m-2", "m-4", 40e6)
	clk.Advance(10)

	topo, err := col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(t, topo, "aspen", "timberline")
	base, err := col.UtilizationCtx(context.Background(), k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.5 {
		t.Fatalf("baseline = %v", base)
	}

	// Both ends of the backbone link go dark in [10, 40): nothing can
	// refresh its utilization channel.
	inj.FlapAt(snmp.Addr("aspen"), 10, 30)
	inj.FlapAt(snmp.Addr("timberline"), 10, 30)
	attemptsBefore := inj.CountersFor(snmp.Addr("aspen")).Attempts

	clk.Advance(20) // t=30: 20 s into the outage, one rediscovery behind us
	h := col.Health()
	if h["aspen"].State != Down || h["timberline"].State != Down {
		t.Fatalf("health during outage: aspen=%+v timberline=%+v", h["aspen"], h["timberline"])
	}
	if h["aspen"].Skipped == 0 {
		t.Fatal("breaker never skipped an attempt")
	}
	if h["m-1"].State != Healthy {
		t.Fatalf("healthy agent mislabeled: %+v", h["m-1"])
	}
	// Poll ticks and a rediscovery offered ~25 contact opportunities;
	// the breaker let only the backoff-scheduled few through.
	attempts := inj.CountersFor(snmp.Addr("aspen")).Attempts - attemptsBefore
	if attempts == 0 || attempts > 8 {
		t.Fatalf("breaker allowed %d attempts during outage", attempts)
	}
	// The rediscovery at t=20 must not have demoted the unreachable
	// routers: last-good records keep them in the topology.
	topo, err = col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph.Node("aspen") == nil || topo.Graph.Node("aspen").Kind != graph.Network {
		t.Fatal("dead router demoted or dropped during rediscovery")
	}
	if topo.Graph.NumLinks() != 10 {
		t.Fatalf("links during outage = %d", topo.Graph.NumLinks())
	}
	// The starved channel still answers, with age-decayed accuracy.
	mid, err := col.UtilizationCtx(context.Background(), k, 0)
	if err != nil {
		t.Fatalf("query during outage: %v", err)
	}
	if mid.Accuracy >= base.Accuracy/2 {
		t.Fatalf("accuracy did not decay: %v vs baseline %v", mid, base)
	}
	if age, err := col.DataAgeCtx(context.Background(), k); err != nil || age < 15 {
		t.Fatalf("data age = %v, %v", age, err)
	}

	// Agents return at t=40; the breaker's next probe succeeds and both
	// health and accuracy recover.
	clk.Advance(30) // t=60
	h = col.Health()
	if h["aspen"].State != Healthy || h["timberline"].State != Healthy {
		t.Fatalf("health after recovery: aspen=%+v timberline=%+v", h["aspen"], h["timberline"])
	}
	rec, err := col.UtilizationCtx(context.Background(), k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accuracy < base.Accuracy-0.05 {
		t.Fatalf("accuracy did not recover: %v vs baseline %v", rec, base)
	}
}
