package remos_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/remos"
)

// TestFaultToleranceEndToEnd is the acceptance scenario for the fault
// pipeline: the backbone routers stop answering SNMP mid-run, and
// remos_flow_info keeps answering from the surviving topology with
// monotonically decaying accuracy — never a hard error — while the
// circuit breaker cuts polling of the dead agents to the backoff
// schedule. When the routers return, accuracy recovers in full. All of
// it runs in virtual time with fixed seeds, so the run is deterministic.
func TestFaultToleranceEndToEnd(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	// Cross traffic m-2 -> m-4 loads the aspen--timberline link, making
	// it the bottleneck of the m-1 -> m-8 path (60 of 100 Mbps left).
	tb.StartBlast("m-2", "m-4", 40e6)
	tb.Run(20)

	flows := []remos.Flow{{Src: "m-1", Dst: "m-8", Kind: remos.IndependentFlow}}
	flowBW := func() remos.Stat {
		fi, err := tb.Modeler.QueryFlowInfo(nil, nil, flows, remos.TFCurrent())
		if err != nil {
			t.Fatalf("flow query failed at t=%v: %v", tb.Now(), err)
		}
		return fi.Independent[0].Bandwidth
	}

	base := flowBW()
	if !base.Valid() || base.Accuracy < 0.5 {
		t.Fatalf("baseline = %v", base)
	}
	if math.Abs(base.Median-60e6) > 6e6 {
		t.Fatalf("baseline bandwidth = %v", base)
	}

	// The backbone channel the outage will starve: with both aspen and
	// timberline dark, no agent refreshes it (host-attached links keep
	// being reported by the host ends).
	topo, err := tb.Collector.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var key remos.ChannelKey
	found := false
	for _, l := range topo.Graph.Links() {
		if l.A == "aspen" && l.B == "timberline" {
			key = topo.Key(l, graph.AtoB)
			found = true
		}
	}
	if !found {
		t.Fatal("no aspen--timberline link discovered")
	}

	outage := tb.Now() // t=20
	tb.Faults.Blackhole(snmp.Addr("aspen"), outage, outage+60)
	tb.Faults.Blackhole(snmp.Addr("timberline"), outage, outage+60)
	attemptsBefore := tb.Faults.CountersFor(snmp.Addr("aspen")).Attempts

	// Queries keep being answered while accuracy decays monotonically.
	prev := base.Accuracy
	for i := 0; i < 5; i++ {
		tb.Run(10)
		st := flowBW()
		if !st.Valid() {
			t.Fatalf("query stopped answering at t=%v", tb.Now())
		}
		if st.Accuracy > prev+1e-9 {
			t.Fatalf("accuracy rose during outage at t=%v: %v -> %v", tb.Now(), prev, st.Accuracy)
		}
		prev = st.Accuracy
	}
	if prev > 0.5*base.Accuracy {
		t.Fatalf("accuracy barely decayed after 50 s of outage: %v of %v", prev, base.Accuracy)
	}
	if age, err := tb.Modeler.DataAge(key); err != nil || age < 40 {
		t.Fatalf("backbone data age = %v, %v", age, err)
	}

	// The breaker throttled probing: ~25 poll rounds elapsed, but the
	// dead agent saw only the backoff-scheduled handful of attempts.
	attempts := tb.Faults.CountersFor(snmp.Addr("aspen")).Attempts - attemptsBefore
	if attempts == 0 || attempts > 8 {
		t.Fatalf("breaker allowed %d attempts during 50 s outage", attempts)
	}
	h := tb.Modeler.Health()
	if h["aspen"].State != remos.AgentDown || h["aspen"].Skipped == 0 {
		t.Fatalf("aspen health during outage = %+v", h["aspen"])
	}
	if h["m-8"].State != remos.AgentHealthy {
		t.Fatalf("m-8 health during outage = %+v", h["m-8"])
	}

	// Routers return at t=80; the breaker's next probe (backoff-capped)
	// succeeds and full accuracy recovers.
	tb.Run(30)
	after := flowBW()
	if after.Accuracy < base.Accuracy-0.02 {
		t.Fatalf("accuracy did not recover: %v vs baseline %v", after.Accuracy, base.Accuracy)
	}
	if math.Abs(after.Median-60e6) > 6e6 {
		t.Fatalf("bandwidth after recovery = %v", after)
	}
	h = tb.Modeler.Health()
	if h["aspen"].State != remos.AgentHealthy {
		t.Fatalf("aspen health after recovery = %+v", h["aspen"])
	}
}
