package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// These tests close the loop on the whole system: what the Modeler
// *predicts* for a flow (remos_flow_info over SNMP-measured state) must
// match what the simulated network *actually delivers* when the flow
// starts. This is the strongest internal-consistency check the
// reproduction has: it exercises simulator -> counters -> SNMP ->
// collector -> modeler -> max-min prediction end to end.

// achievedRate starts a persistent elastic flow, lets the allocation
// settle, reads its rate, and stops it.
func achievedRate(e *Env, src, dst graph.NodeID) float64 {
	f := e.Net.StartFlow(netsim.FlowSpec{Src: src, Dst: dst, Owner: "probe"})
	rate := f.Rate()
	e.Net.StopFlow(f.ID)
	return rate
}

func TestPredictionMatchesSimulatorUnderCBR(t *testing.T) {
	t.Parallel()
	e := NewEnv()
	// Rate-capped background that is not bottlenecked elsewhere: the
	// modeler's "background keeps its rate" assumption holds exactly.
	traffic.Blast(e.Net, "m-6", "m-8", 35e6)
	traffic.Blast(e.Net, "m-5", "m-7", 25e6)
	e.Clk.Advance(30)

	cases := [][2]graph.NodeID{
		{"m-4", "m-7"}, // crosses both loaded links
		{"m-1", "m-8"}, // crosses t->w
		{"m-1", "m-2"}, // clean
		{"m-4", "m-5"}, // clean
	}
	for _, c := range cases {
		fi, err := e.Mod.QueryFlowInfo(nil, nil,
			[]core.Flow{{Src: c[0], Dst: c[1], Kind: core.IndependentFlow}}, core.TFHistory(20))
		if err != nil {
			t.Fatal(err)
		}
		predicted := fi.Independent[0].Bandwidth.Median
		actual := achievedRate(e, c[0], c[1])
		if math.Abs(predicted-actual) > 0.02*actual {
			t.Errorf("%s->%s: predicted %.1f Mbps, simulator delivered %.1f Mbps",
				c[0], c[1], predicted/1e6, actual/1e6)
		}
	}
}

func TestSimultaneousPredictionMatchesSimulator(t *testing.T) {
	t.Parallel()
	e := NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 40e6)
	e.Clk.Advance(30)

	// Three application flows, two sharing the loaded link.
	flows := []core.Flow{
		{Src: "m-4", Dst: "m-7", Kind: core.IndependentFlow},
		{Src: "m-5", Dst: "m-8", Kind: core.IndependentFlow},
		{Src: "m-1", Dst: "m-2", Kind: core.IndependentFlow},
	}
	fi, err := e.Mod.QueryFlowInfo(nil, nil, flows, core.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	// Now actually start all three and compare each rate.
	var live []*netsim.Flow
	for _, f := range flows {
		live = append(live, e.Net.StartFlow(netsim.FlowSpec{Src: f.Src, Dst: f.Dst, Owner: "app"}))
	}
	for i, f := range live {
		predicted := fi.Independent[i].Bandwidth.Median
		if math.Abs(predicted-f.Rate()) > 0.02*f.Rate() {
			t.Errorf("flow %d %s->%s: predicted %.1f, got %.1f Mbps",
				i, f.Spec.Src, f.Spec.Dst, predicted/1e6, f.Rate()/1e6)
		}
	}
	for _, f := range live {
		e.Net.StopFlow(f.ID)
	}
}

func TestFixedFlowAdmissionMatchesSimulator(t *testing.T) {
	t.Parallel()
	e := NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 80e6)
	e.Clk.Advance(30)

	// A fixed 15 Mbps request across the 20 Mbps-leftover link: the
	// modeler says satisfiable; a 25 Mbps request is not.
	ok, err := e.Mod.QueryFlowInfo(
		[]core.Flow{{Src: "m-4", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 15e6}},
		nil, nil, core.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Fixed[0].Satisfied {
		t.Fatalf("15 Mbps should fit in 20 Mbps leftover: %+v", ok.Fixed[0])
	}
	bad, err := e.Mod.QueryFlowInfo(
		[]core.Flow{{Src: "m-4", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 25e6}},
		nil, nil, core.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Fixed[0].Satisfied {
		t.Fatalf("25 Mbps should not fit: %+v", bad.Fixed[0])
	}
	// The simulator agrees: a 15 Mbps CBR achieves its rate.
	f := e.Net.StartFlow(netsim.FlowSpec{Src: "m-4", Dst: "m-7", RateCap: 15e6})
	if math.Abs(f.Rate()-15e6) > 1e4 {
		t.Fatalf("CBR achieved %v", f.Rate())
	}
	e.Net.StopFlow(f.ID)
}

// Property: on random CBR backgrounds, single-flow predictions track the
// simulator within a small tolerance.
func TestRandomBackgroundPredictionProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	hosts := topology.TestbedHosts
	for trial := 0; trial < 10; trial++ {
		e := NewEnv()
		// 1-3 random CBR flows, rates low enough that none saturates a
		// link alone (so none is bottleneck-limited below its cap).
		nBg := 1 + rng.Intn(3)
		for i := 0; i < nBg; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			traffic.Blast(e.Net, src, dst, 5e6+rng.Float64()*25e6)
		}
		e.Clk.Advance(30)
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[(rng.Intn(len(hosts)-1)+1+indexOfHost(hosts, src))%len(hosts)]
		if src == dst {
			continue
		}
		fi, err := e.Mod.QueryFlowInfo(nil, nil,
			[]core.Flow{{Src: src, Dst: dst, Kind: core.IndependentFlow}}, core.TFHistory(20))
		if err != nil {
			t.Fatal(err)
		}
		predicted := fi.Independent[0].Bandwidth.Median
		actual := achievedRate(e, src, dst)
		if math.Abs(predicted-actual) > 0.05*actual+1e5 {
			t.Fatalf("trial %d %s->%s: predicted %.2f, actual %.2f Mbps",
				trial, src, dst, predicted/1e6, actual/1e6)
		}
	}
}

func indexOfHost(hosts []graph.NodeID, h graph.NodeID) int {
	for i, x := range hosts {
		if x == h {
			return i
		}
	}
	return 0
}

// TestSimulatorIsMaxMinFairLive cross-validates the simulator against
// the fairness checker while a busy mix of flows runs.
func TestSimulatorIsMaxMinFairLive(t *testing.T) {
	t.Parallel()
	e := NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 50e6)
	var live []*netsim.Flow
	pairs := [][2]graph.NodeID{{"m-1", "m-7"}, {"m-2", "m-8"}, {"m-4", "m-5"}, {"m-3", "m-6"}}
	for _, p := range pairs {
		live = append(live, e.Net.StartFlow(netsim.FlowSpec{Src: p[0], Dst: p[1]}))
	}
	e.Clk.Advance(1)
	// Elastic flows sharing a saturated resource must have equal rates
	// unless bottlenecked elsewhere; spot-check the two crossing t->w.
	r1, r2 := live[0].Rate(), live[1].Rate()
	if math.Abs(r1-r2) > 1e3 {
		t.Fatalf("flows sharing t->w got %v and %v", r1, r2)
	}
	// Rates are conserved: total through t->w = capacity - headroom-free
	// blast.
	ch := channelBetween(t, e, "timberline", "whiteface")
	total := e.Net.ChannelRate(ch, "")
	if math.Abs(total-100e6) > 1e4 {
		t.Fatalf("t->w total rate = %v, want saturated 100e6", total)
	}
	if err := e.Net.CheckConservation(1e-6); err != nil {
		t.Fatal(err)
	}
}

func channelBetween(t *testing.T, e *Env, from, to graph.NodeID) graph.Channel {
	t.Helper()
	for _, l := range e.Net.Graph().Links() {
		if (l.A == from && l.B == to) || (l.A == to && l.B == from) {
			return graph.Channel{Link: l.ID, Dir: l.DirFrom(from)}
		}
	}
	t.Fatalf("no link %s--%s", from, to)
	return graph.Channel{}
}
