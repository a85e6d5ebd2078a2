package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/simclock"
)

// dumbbell: h1,h2 -- r1 -- r2 -- h3,h4 with a 10 Mbps middle link.
func dumbbell() (*simclock.Clock, *Network) {
	g := graph.New()
	g.AddHost("h1", 1)
	g.AddHost("h2", 1)
	g.AddHost("h3", 1)
	g.AddHost("h4", 1)
	g.AddRouter("r1", 0)
	g.AddRouter("r2", 0)
	g.AddLink("h1", "r1", 100e6, 0.001)
	g.AddLink("h2", "r1", 100e6, 0.001)
	g.AddLink("r1", "r2", 10e6, 0.001)
	g.AddLink("r2", "h3", 100e6, 0.001)
	g.AddLink("r2", "h4", 100e6, 0.001)
	clk := simclock.New()
	n, err := New(clk, g)
	if err != nil {
		panic(err)
	}
	return clk, n
}

func TestSingleFlowCompletionTime(t *testing.T) {
	clk, n := dumbbell()
	// 10 Mbps bottleneck, 10 Mbit transfer -> 1 second.
	var doneAt simclock.Time
	n.StartFlow(FlowSpec{
		Src: "h1", Dst: "h3", Bytes: 10e6 / 8,
		OnComplete: func(now simclock.Time, f *Flow) { doneAt = now },
	})
	clk.Run(0)
	if math.Abs(float64(doneAt)-1.0) > 1e-9 {
		t.Fatalf("completed at %v, want 1.0", doneAt)
	}
	if err := n.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := n.DeliveredBytes(); math.Abs(got-10e6/8) > 1 {
		t.Fatalf("delivered %v bytes", got)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	clk, n := dumbbell()
	var t1, t2 simclock.Time
	n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Bytes: 10e6 / 8,
		OnComplete: func(now simclock.Time, f *Flow) { t1 = now }})
	n.StartFlow(FlowSpec{Src: "h2", Dst: "h4", Bytes: 10e6 / 8,
		OnComplete: func(now simclock.Time, f *Flow) { t2 = now }})
	clk.Run(0)
	// Equal shares of 10 Mbps: both finish at 2s.
	if math.Abs(float64(t1)-2.0) > 1e-9 || math.Abs(float64(t2)-2.0) > 1e-9 {
		t.Fatalf("completed at %v, %v, want 2.0 both", t1, t2)
	}
}

func TestLateArrivalSlowsFirstFlow(t *testing.T) {
	clk, n := dumbbell()
	var t1 simclock.Time
	n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Bytes: 10e6 / 8,
		OnComplete: func(now simclock.Time, f *Flow) { t1 = now }})
	clk.Schedule(0.5, "second", func(simclock.Time) {
		n.StartFlow(FlowSpec{Src: "h2", Dst: "h4", Bytes: 10e6 / 8})
	})
	clk.Run(0)
	// First flow: 0.5s at 10 Mbps (5 Mbit done), then shares at 5 Mbps:
	// remaining 5 Mbit takes 1s -> completes at 1.5s.
	if math.Abs(float64(t1)-1.5) > 1e-9 {
		t.Fatalf("first flow completed at %v, want 1.5", t1)
	}
	if err := n.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestRateCapCBR(t *testing.T) {
	clk, n := dumbbell()
	f := n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", RateCap: 2e6}) // persistent CBR
	clk.Advance(3)
	n.advance()
	if math.Abs(f.Rate()-2e6) > 1 {
		t.Fatalf("CBR rate = %v", f.Rate())
	}
	if math.Abs(f.SentBytes()-3*2e6/8) > 1 {
		t.Fatalf("CBR sent %v bytes", f.SentBytes())
	}
	// Elastic flow alongside gets the remaining 8 Mbps.
	e := n.StartFlow(FlowSpec{Src: "h2", Dst: "h4"})
	if math.Abs(e.Rate()-8e6) > 1 {
		t.Fatalf("elastic rate = %v", e.Rate())
	}
	n.StopFlow(f.ID)
	if math.Abs(e.Rate()-10e6) > 1 {
		t.Fatalf("elastic rate after CBR stop = %v", e.Rate())
	}
}

func TestStopFlowAccountsBytes(t *testing.T) {
	clk, n := dumbbell()
	f := n.StartFlow(FlowSpec{Src: "h1", Dst: "h3"})
	clk.Advance(2)
	n.StopFlow(f.ID)
	// 2s at 10 Mbps = 20 Mbit on each of 3 channels.
	ch := f.Path.Channels()[0]
	if bits := n.ChannelCounter(ch)(); math.Abs(bits-20e6) > 1 {
		t.Fatalf("channel bits = %v", bits)
	}
	if len(n.ActiveFlows()) != 0 {
		t.Fatal("flow still active after stop")
	}
	// Stopping again is a no-op.
	n.StopFlow(f.ID)
}

func TestCountersPerChannelDirectional(t *testing.T) {
	clk, n := dumbbell()
	n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Bytes: 1e6})
	clk.Run(0)
	p := n.Routes().Route("h1", "h3")
	for _, ch := range p.Channels() {
		if got := n.ChannelCounter(ch)(); math.Abs(got-8e6) > 1 {
			t.Fatalf("forward channel %v bits = %v", ch, got)
		}
		rev := graph.Channel{Link: ch.Link, Dir: ch.Dir.Reverse()}
		if got := n.ChannelCounter(rev)(); got != 0 {
			t.Fatalf("reverse channel %v bits = %v", rev, got)
		}
	}
}

func TestRouterInternalBandwidthLimits(t *testing.T) {
	// Figure 1 of the paper: router with 10 Mbps internal bandwidth
	// limits aggregate crossing traffic even over 100 Mbps links.
	g := graph.New()
	g.AddHost("a", 1)
	g.AddHost("b", 1)
	g.AddHost("c", 1)
	g.AddHost("d", 1)
	g.AddRouter("sw", 10e6)
	for _, h := range []graph.NodeID{"a", "b", "c", "d"} {
		g.AddLink(h, "sw", 100e6, 0.001)
	}
	clk := simclock.New()
	n, err := New(clk, g)
	if err != nil {
		t.Fatal(err)
	}
	f1 := n.StartFlow(FlowSpec{Src: "a", Dst: "c"})
	f2 := n.StartFlow(FlowSpec{Src: "b", Dst: "d"})
	if math.Abs(f1.Rate()-5e6) > 1 || math.Abs(f2.Rate()-5e6) > 1 {
		t.Fatalf("rates = %v, %v; want 5 Mbps each (backplane limit)", f1.Rate(), f2.Rate())
	}
}

func TestChannelRateExcludeOwner(t *testing.T) {
	_, n := dumbbell()
	n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Owner: "app"})
	n.StartFlow(FlowSpec{Src: "h2", Dst: "h4", Owner: "traffic"})
	mid := graph.Channel{Link: 2, Dir: graph.AtoB} // r1->r2
	all := n.ChannelRate(mid, "")
	woApp := n.ChannelRate(mid, "app")
	if math.Abs(all-10e6) > 1 {
		t.Fatalf("total rate = %v", all)
	}
	if math.Abs(woApp-5e6) > 1 {
		t.Fatalf("rate excluding app = %v", woApp)
	}
}

func TestTransferGroupCompletesOnLast(t *testing.T) {
	clk, n := dumbbell()
	var doneAt simclock.Time
	n.TransferGroup([]FlowSpec{
		{Src: "h1", Dst: "h3", Bytes: 10e6 / 8}, // shares bottleneck
		{Src: "h2", Dst: "h4", Bytes: 5e6 / 8},
	}, "app", func(now simclock.Time) { doneAt = now })
	clk.Run(0)
	// Share 5/5 until small flow done at t=1 (5Mbit at 5Mbps); big flow
	// then runs at 10 Mbps: sent 5 Mbit by t=1, remaining 5 Mbit in 0.5s
	// -> 1.5s total.
	if math.Abs(float64(doneAt)-1.5) > 1e-9 {
		t.Fatalf("group done at %v, want 1.5", doneAt)
	}
}

func TestTransferGroupEmpty(t *testing.T) {
	_, n := dumbbell()
	called := false
	n.TransferGroup(nil, "app", func(now simclock.Time) { called = true })
	if !called {
		t.Fatal("empty group callback not invoked")
	}
}

func TestComputeModel(t *testing.T) {
	clk, n := dumbbell()
	if d := n.ComputeDuration("h1", 2); d != 2 {
		t.Fatalf("duration = %v", d)
	}
	n.SetHostLoad("h1", 0.5)
	if d := n.ComputeDuration("h1", 2); d != 4 {
		t.Fatalf("loaded duration = %v", d)
	}
	if n.HostLoad("h1") != 0.5 {
		t.Fatal("HostLoad wrong")
	}
	var doneAt simclock.Time
	n.RunCompute("h2", 3, func(now simclock.Time) { doneAt = now })
	clk.Run(0)
	if doneAt != 3 {
		t.Fatalf("compute done at %v", doneAt)
	}
}

func TestComputeOnRouterPanics(t *testing.T) {
	_, n := dumbbell()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.ComputeDuration("r1", 1)
}

func TestStartFlowPanicsOnBadEndpoints(t *testing.T) {
	_, n := dumbbell()
	for _, spec := range []FlowSpec{
		{Src: "h1", Dst: "h1"},
		{Src: "h1", Dst: "missing"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", spec)
				}
			}()
			n.StartFlow(spec)
		}()
	}
}

func TestMeasureTransferTime(t *testing.T) {
	_, n := dumbbell()
	// Unloaded: 10 Mbit over 10 Mbps = 1s.
	got := n.MeasureTransferTime([]FlowSpec{{Src: "h1", Dst: "h3", Bytes: 10e6 / 8}})
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("unloaded estimate = %v", got)
	}
	// With a CBR hog, availability halves.
	n.StartFlow(FlowSpec{Src: "h2", Dst: "h4", RateCap: 5e6})
	got = n.MeasureTransferTime([]FlowSpec{{Src: "h1", Dst: "h3", Bytes: 10e6 / 8}})
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("loaded estimate = %v", got)
	}
}

func TestManyFlowsConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		clk, n := dumbbell()
		hosts := []graph.NodeID{"h1", "h2", "h3", "h4"}
		launched := 0
		var launch func(now simclock.Time)
		launch = func(now simclock.Time) {
			if launched >= 30 {
				return
			}
			launched++
			src := hosts[rng.Intn(4)]
			dst := hosts[rng.Intn(4)]
			if src == dst {
				dst = hosts[(rng.Intn(3)+1+indexOf(hosts, src))%4]
			}
			spec := FlowSpec{Src: src, Dst: dst, Bytes: 1e4 + rng.Float64()*1e6}
			if rng.Float64() < 0.3 {
				spec.RateCap = 1e6 + rng.Float64()*5e6
			}
			n.StartFlow(spec)
			clk.After(rng.Float64()*0.3, "launch", launch)
		}
		launch(0)
		clk.Run(100000)
		if err := n.CheckConservation(1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(n.ActiveFlows()) != 0 {
			t.Fatalf("trial %d: %d flows never finished", trial, len(n.ActiveFlows()))
		}
	}
}

func indexOf(hosts []graph.NodeID, h graph.NodeID) int {
	for i, x := range hosts {
		if x == h {
			return i
		}
	}
	return -1
}

func TestPathLatency(t *testing.T) {
	_, n := dumbbell()
	if got := n.PathLatency("h1", "h3"); math.Abs(got-0.003) > 1e-12 {
		t.Fatalf("latency = %v", got)
	}
	if n.PathLatency("h1", "h1") != 0 {
		t.Fatal("self latency != 0")
	}
}

func TestChannelsDeterministic(t *testing.T) {
	_, n := dumbbell()
	chs := n.Channels()
	if len(chs) != 10 { // 5 links × 2 directions
		t.Fatalf("channels = %d", len(chs))
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].Link < chs[i-1].Link {
			t.Fatal("channels not sorted")
		}
	}
	if n.ChannelCapacity(chs[0]) != 100e6 {
		t.Fatalf("capacity = %v", n.ChannelCapacity(chs[0]))
	}
}

func TestZeroDelayCompletionViaSimultaneousEvents(t *testing.T) {
	// Start two identical flows at the same instant; both complete at the
	// same event time; the second completion must not double-finish.
	clk, n := dumbbell()
	done := 0
	for i := 0; i < 2; i++ {
		n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Bytes: 1e5,
			OnComplete: func(simclock.Time, *Flow) { done++ }})
	}
	clk.Run(0)
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if err := n.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFlowChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk, n := dumbbell()
		for j := 0; j < 50; j++ {
			n.StartFlow(FlowSpec{Src: "h1", Dst: "h3", Bytes: 1e5})
			n.StartFlow(FlowSpec{Src: "h2", Dst: "h4", Bytes: 1e5})
		}
		clk.Run(0)
	}
}
