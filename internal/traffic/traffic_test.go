package traffic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/topology"
)

func testbedSim(t *testing.T) (*simclock.Clock, *netsim.Network) {
	t.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	return clk, n
}

func TestCBROccupiesRoute(t *testing.T) {
	clk, n := testbedSim(t)
	g := CBR(n, "m-6", "m-8", 60e6)
	clk.Advance(10)
	// The m-6 -> m-8 route crosses timberline->whiteface.
	p := n.Routes().Route("m-6", "m-8")
	for _, ch := range p.Channels() {
		if rate := n.ChannelRate(ch, ""); math.Abs(rate-60e6) > 1 {
			t.Fatalf("channel %v rate = %v", ch, rate)
		}
		if bits := n.ChannelCounter(ch)(); math.Abs(bits-600e6) > 1 {
			t.Fatalf("channel %v bits = %v", ch, bits)
		}
	}
	if !strings.Contains(g.Describe(), "CBR m-6->m-8") {
		t.Fatalf("describe = %q", g.Describe())
	}
	g.Stop()
	if len(n.ActiveFlows()) != 0 {
		t.Fatal("flow survives Stop")
	}
	g.Stop() // idempotent
}

func TestOnOffAlternates(t *testing.T) {
	clk, n := testbedSim(t)
	g := OnOff(n, "m-6", "m-8", OnOffConfig{Rate: 50e6, MeanOn: 1, MeanOff: 1, Seed: 42})
	clk.Advance(100)
	oo := g.(*onOff)
	if oo.bursts < 20 || oo.bursts > 80 {
		t.Fatalf("bursts = %d over 100s with ~0.5 duty", oo.bursts)
	}
	// Mean utilization should be near the 50% duty cycle.
	p := n.Routes().Route("m-6", "m-8")
	bits := n.ChannelCounter(p.Channels()[1])()
	frac := bits / (50e6 * 100)
	if frac < 0.25 || frac > 0.75 {
		t.Fatalf("duty fraction = %v", frac)
	}
	g.Stop()
	clk.Advance(50)
	if len(n.ActiveFlows()) != 0 {
		t.Fatal("on-off still sending after Stop")
	}
}

func TestOnOffDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		clk, n := testbedSim(t)
		OnOff(n, "m-6", "m-8", OnOffConfig{Rate: 50e6, MeanOn: 1, MeanOff: 1, Seed: 7})
		clk.Advance(50)
		p := n.Routes().Route("m-6", "m-8")
		return n.ChannelCounter(p.Channels()[0])()
	}
	if run() != run() {
		t.Fatal("on-off traffic not deterministic for equal seeds")
	}
}

func TestOnOffBadConfigPanics(t *testing.T) {
	_, n := testbedSim(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OnOff(n, "m-1", "m-2", OnOffConfig{})
}

func TestPoissonTransfers(t *testing.T) {
	clk, n := testbedSim(t)
	g := PoissonTransfers(n, "m-3", "m-7", PoissonTransfersConfig{
		MeanInterarrival: 0.5,
		MinBytes:         1e4,
		MaxBytes:         1e6,
		Seed:             3,
	})
	clk.Advance(60)
	po := g.(*poisson)
	if po.launched < 60 {
		t.Fatalf("launched = %d over 60s at 2/s", po.launched)
	}
	if err := n.CheckConservation(1e-6); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	clk.Advance(60)
	if len(n.ActiveFlows()) != 0 {
		t.Fatal("transfers still arriving after Stop")
	}
}

func TestPoissonSizesBounded(t *testing.T) {
	g := &poisson{cfg: PoissonTransfersConfig{MinBytes: 100, MaxBytes: 1e5, Alpha: 1.2}}
	g.rng = rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		s := g.size()
		if s < 100 || s > 1e5 {
			t.Fatalf("size %v out of bounds", s)
		}
	}
}

func TestScenario(t *testing.T) {
	clk, n := testbedSim(t)
	s := NewScenario("interfering")
	s.Add(CBR(n, "m-6", "m-8", 90e6))
	s.Add(CBR(n, "m-8", "m-6", 90e6))
	clk.Advance(1)
	if len(n.ActiveFlows()) != 2 {
		t.Fatalf("flows = %d", len(n.ActiveFlows()))
	}
}

func TestOwnerTagging(t *testing.T) {
	clk, n := testbedSim(t)
	CBR(n, "m-6", "m-8", 30e6)
	n.StartFlow(netsim.FlowSpec{Src: "m-6", Dst: "m-8", Owner: "app", RateCap: 20e6})
	clk.Advance(1)
	var ch = n.Routes().Route("m-6", "m-8").Channels()[1]
	if got := n.ChannelRate(ch, Owner); math.Abs(got-20e6) > 1 {
		t.Fatalf("rate excluding traffic = %v", got)
	}
	if got := n.ChannelRate(ch, "app"); math.Abs(got-30e6) > 1 {
		t.Fatalf("rate excluding app = %v", got)
	}
	_ = graph.Channel{}
}
