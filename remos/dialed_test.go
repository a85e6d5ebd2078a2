package remos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/remos"
)

// The dialed Modeler: a Modeler over a dialed collector answers every
// flow, graph and bandwidth query with one conditional batched read
// (collector/readwire.go, core's view.prefetch). These tests pin that
// the batched path is the per-key path — same answers bit for bit, one
// frame by count — and that its validator survives failover, restarts,
// replica fencing and rediscovery.

// probeSource is the source the dialed tests serve: the testbed's
// collector, its data version forwarded, with one channel that always
// fails ("unknown channel": the collector has no window for it) and a
// count of the window summaries it was asked for.
type probeSource struct {
	*collector.Collector
	hole      collector.ChannelKey
	summaries atomic.Int64
}

var errNoSuchChannel = errors.New("probe: unknown channel")

func (p *probeSource) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	p.summaries.Add(1)
	if key == p.hole {
		return stats.NoData(), errNoSuchChannel
	}
	return p.Collector.UtilizationCtx(ctx, key, span)
}

func (p *probeSource) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	p.summaries.Add(1)
	return p.Collector.HostLoadCtx(ctx, node, span)
}

// scalarOnly shows a dialed handle's per-key methods and nothing else:
// a Modeler over it reads through an in-process collector.Reader, which
// asks the handle one channel and one host at a time — the per-key
// program a Modeler ran over any dialed handle before the read op.
type scalarOnly struct{ collector.Source }

func sameBits(a, b stats.Stat) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Min, b.Min) && eq(a.Q1, b.Q1) && eq(a.Median, b.Median) && eq(a.Q3, b.Q3) &&
		eq(a.Max, b.Max) && eq(a.Accuracy, b.Accuracy) && a.Samples == b.Samples && eq(a.Age, b.Age)
}

// sameQuartileBits leaves out Age and Accuracy, which follow the clock
// rather than the data version.
func sameQuartileBits(a, b stats.Stat) bool {
	a.Age, a.Accuracy = b.Age, b.Accuracy
	return sameBits(a, b)
}

func diffFlows(got, want *core.FlowInfo, same func(a, b stats.Stat) bool) string {
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		return fmt.Sprintf("%d results, want %d", len(g), len(w))
	}
	for i := range g {
		if !same(g[i].Bandwidth, w[i].Bandwidth) || !same(g[i].Latency, w[i].Latency) ||
			g[i].Satisfied != w[i].Satisfied || g[i].Hops != w[i].Hops {
			return fmt.Sprintf("flow %d: %+v, want %+v", i, g[i], w[i])
		}
	}
	return ""
}

func diffGraphs(got, want *core.Graph, same func(a, b stats.Stat) bool) string {
	if len(got.Links) != len(want.Links) || len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d links %d nodes, want %d and %d", len(got.Links), len(got.Nodes), len(want.Links), len(want.Nodes))
	}
	for i, l := range got.Links {
		w := want.Links[i]
		if l.A != w.A || l.B != w.B || !same(l.Capacity, w.Capacity) || !same(l.Latency, w.Latency) ||
			!same(l.Avail[0], w.Avail[0]) || !same(l.Avail[1], w.Avail[1]) {
			return fmt.Sprintf("link %d: %+v, want %+v", i, l, w)
		}
	}
	for i, n := range got.Nodes {
		if n.ID != want.Nodes[i].ID || !same(n.Load, want.Nodes[i].Load) {
			return fmt.Sprintf("node %d: %+v, want %+v", i, n, want.Nodes[i])
		}
	}
	return ""
}

// dialedQuery is one seeded query, run against any Modeler.
type dialedQuery struct {
	kind                         int // 0 flow, 1 graph, 2 bandwidth
	hosts                        []graph.NodeID
	fixed, variable, independent []core.Flow
}

func drawQuery(rng *rand.Rand, hosts []graph.NodeID) dialedQuery {
	pick := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i, j := range rng.Perm(len(hosts))[:n] {
			out[i] = hosts[j]
		}
		return out
	}
	q := dialedQuery{kind: rng.Intn(3)}
	switch q.kind {
	case 0:
		h := pick(8)
		q.fixed = []core.Flow{{Src: h[0], Dst: h[1], Kind: core.FixedFlow, Bandwidth: 1e6}}
		q.variable = []core.Flow{
			{Src: h[2], Dst: h[3], Kind: core.VariableFlow, Bandwidth: 1},
			{Src: h[4], Dst: h[5], Kind: core.VariableFlow, Bandwidth: 2},
		}
		q.independent = []core.Flow{{Src: h[6], Dst: h[7], Kind: core.IndependentFlow}}
	case 1:
		q.hosts = pick(4)
	default:
		q.hosts = pick(2)
	}
	return q
}

func (q dialedQuery) run(ctx context.Context, m *core.Modeler, tf core.Timeframe) (any, error) {
	switch q.kind {
	case 0:
		return m.QueryFlowInfoCtx(ctx, q.fixed, q.variable, q.independent, tf)
	case 1:
		return m.GetGraphCtx(ctx, q.hosts, tf)
	}
	return m.AvailableBandwidthCtx(ctx, q.hosts[0], q.hosts[1], tf)
}

func (q dialedQuery) diff(got, want any, same func(a, b stats.Stat) bool) string {
	switch q.kind {
	case 0:
		return diffFlows(got.(*core.FlowInfo), want.(*core.FlowInfo), same)
	case 1:
		return diffGraphs(got.(*core.Graph), want.(*core.Graph), same)
	}
	if !same(got.(stats.Stat), want.(stats.Stat)) {
		return fmt.Sprintf("%+v, want %+v", got, want)
	}
	return ""
}

func startOnOff(tb *remos.Testbed, hosts []graph.NodeID, pairs int) {
	n := len(hosts)
	for i := 0; i < pairs; i++ {
		tb.StartOnOff(hosts[(i*5)%n], hosts[(i*5+n/2)%n], float64(20+10*(i%3))*1e6, 6, 4, int64(100+i))
	}
}

func opCount(srv *collector.Server, ops ...string) uint64 {
	c := srv.Telemetry().Snapshot().Counters
	var n uint64
	for _, op := range ops {
		n += c["server.op."+op]
	}
	return n
}

// TestDialedModelerMatchesInProcess: over 200 poll epochs — from the
// first, when the windows are still empty, through an agent outage — a
// Modeler over a dialed handle, a Modeler over the same kind of handle
// showing only its per-key methods, and an in-process Modeler return
// the same Stats bit for bit for seeded flow, graph and bandwidth
// queries, with DiscountSelf on and off and one channel the source
// cannot answer for. And it does so in one frame: every query is one
// "read" round trip; a repeated query is answered "not modified" without
// a single window summary on the server.
func TestDialedModelerMatchesInProcess(t *testing.T) {
	fixtures := []struct {
		name   string
		build  func() (*remos.Testbed, error)
		epochs int
		dark   graph.NodeID
	}{
		{"fig3", remos.NewTestbed, 200, "aspen"},
		{"hier300", func() (*remos.Testbed, error) {
			tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
			if err != nil {
				return nil, err
			}
			return remos.NewTestbedOn(tp.Graph)
		}, 200, ""},
	}
	for _, fx := range fixtures {
		for _, discount := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/discount=%v", fx.name, discount), func(t *testing.T) {
				if testing.Short() && fx.name == "hier300" {
					t.Skip("300 agents x 200 epochs")
				}
				tb, err := fx.build()
				if err != nil {
					t.Fatal(err)
				}
				defer tb.Collector.Stop()
				hosts := tb.Hosts()
				startOnOff(tb, hosts, 6)
				topo, err := tb.Collector.TopologyCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				// The hole is a host's access channel, so flows from it meet it.
				var hole collector.ChannelKey
				for _, l := range topo.Graph.LinksAt(hosts[0]) {
					hole = topo.Key(l, l.DirFrom(hosts[0]))
				}
				dark := fx.dark
				if dark == "" {
					dark = topo.Graph.NetworkNodes()[0]
				}

				probe := &probeSource{Collector: tb.Collector, hole: hole}
				batchSrv, err := collector.Serve(probe, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer batchSrv.Close()
				scalarSrv, err := collector.Serve(&probeSource{Collector: tb.Collector, hole: hole}, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer scalarSrv.Close()
				fo, err := remos.DialCollectors(batchSrv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer fo.Close()
				cl, err := collector.Dial(scalarSrv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()

				reg := telemetry.NewRegistry()
				dialed := core.New(core.Config{Source: fo, DiscountSelf: discount, Telemetry: reg})
				scalar := core.New(core.Config{Source: scalarOnly{cl}, DiscountSelf: discount})
				local := core.New(core.Config{Source: &probeSource{Collector: tb.Collector, hole: hole}, DiscountSelf: discount})
				if discount {
					for _, m := range []*core.Modeler{dialed, scalar, local} {
						m.RegisterSelfFlow(hosts[1], hosts[len(hosts)-1], 5e6)
						m.RegisterSelfFlow(hosts[2], hosts[3], 2e6)
					}
				}

				ctx := context.Background()
				rng := rand.New(rand.NewSource(17))
				memo := func() (hits, misses uint64) {
					c := reg.Snapshot().Counters
					return c["modeler.avail_memo_hits"], c["modeler.avail_memo_misses"]
				}
				var queries, warmHits, warmMisses uint64
				for epoch := 0; epoch < fx.epochs; epoch++ {
					if epoch == fx.epochs/2 {
						tb.Faults.Blackhole(snmp.Addr(dark), tb.Now(), tb.Now()+40)
					}
					if epoch > 0 {
						tb.Run(2)
					}
					tf := core.TFHistory(10)
					if epoch%5 == 4 {
						tf = core.TFCurrent()
					}
					for n := 0; n < 3; n++ {
						q := drawQuery(rng, hosts)
						if epoch%20 == 0 && n == 0 {
							// A flow out of the host behind the hole.
							q = dialedQuery{kind: 2, hosts: []graph.NodeID{hosts[0], hosts[len(hosts)/2]}}
						}
						want, err := q.run(ctx, local, tf)
						if err != nil {
							t.Fatalf("epoch %d: in-process %+v: %v", epoch, q, err)
						}
						for pass, name := range []string{"cold", "warm"} {
							reads, summaries := opCount(batchSrv, "read"), probe.summaries.Load()
							hits, misses := memo()
							got, err := q.run(ctx, dialed, tf)
							if err != nil {
								t.Fatalf("epoch %d %s: dialed %+v: %v", epoch, name, q, err)
							}
							queries++
							if d := q.diff(got, want, sameBits); d != "" {
								t.Fatalf("epoch %d %s: dialed differs from in-process: %s", epoch, name, d)
							}
							if n := opCount(batchSrv, "read") - reads; n != 1 {
								t.Fatalf("epoch %d %s: query cost %d read round trips, want 1", epoch, name, n)
							}
							if pass == 1 {
								if n := probe.summaries.Load() - summaries; n != 0 {
									t.Fatalf("epoch %d: a repeated query cost %d window summaries, want a \"not modified\" answer", epoch, n)
								}
								h, m := memo()
								warmHits, warmMisses = warmHits+h-hits, warmMisses+m-misses
							}
						}
						got, err := q.run(ctx, scalar, tf)
						if err != nil {
							t.Fatalf("epoch %d: per-key %+v: %v", epoch, q, err)
						}
						if d := q.diff(got, want, sameBits); d != "" {
							t.Fatalf("epoch %d: per-key differs from in-process: %s", epoch, d)
						}
					}
				}
				if got := opCount(batchSrv, "read"); got != queries {
					t.Errorf("server.op.read = %d after %d queries", got, queries)
				}
				if n := opCount(scalarSrv, "read"); n <= queries {
					t.Errorf("the per-key handle sent %d reads for %d queries, want one per channel and host", n, queries)
				}
				if warmHits == 0 || float64(warmHits)/float64(warmHits+warmMisses) <= 0.9 {
					t.Errorf("memo between epochs: %d hits, %d misses", warmHits, warmMisses)
				}
				if n := opCount(batchSrv, "topo"); n != 1 {
					t.Errorf("%d topology fetches with no rediscovery, want 1", n)
				}
			})
		}
	}
}

// TestDialedModelerConcurrentWithPolls is the benchmark's own
// discipline under the race detector: four goroutines share one dialed
// handle and one Modeler while poll rounds advance, and an answer is
// compared with the in-process Modeler's whenever the collector's data
// version did not move across the pair. Run with -race -count=10.
func TestDialedModelerConcurrentWithPolls(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Collector.Stop()
	hosts := tb.Hosts()
	startOnOff(tb, hosts, 3)
	tb.Run(60)
	addr, stop, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	fo, err := remos.DialCollectors(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	dialed := remos.NewModeler(remos.Config{Source: fo})
	version := func() uint64 { v, _ := tb.Collector.DataVersion(); return v }

	done := make(chan struct{})
	var compared atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			tf := core.TFHistory(10)
			for {
				select {
				case <-done:
					return
				default:
				}
				q := drawQuery(rng, hosts)
				v := version()
				got, err := q.run(ctx, dialed, tf)
				if err != nil {
					t.Errorf("goroutine %d: dialed %+v: %v", g, q, err)
					return
				}
				want, err := q.run(ctx, tb.Modeler, tf)
				if err != nil {
					t.Errorf("goroutine %d: in-process %+v: %v", g, q, err)
					return
				}
				if version() != v {
					continue
				}
				compared.Add(1)
				if d := q.diff(got, want, sameQuartileBits); d != "" {
					t.Errorf("goroutine %d at version %d: %s", g, v, d)
					return
				}
			}
		}(g)
	}
	for epoch := 0; epoch < 150; epoch++ {
		tb.Run(2)
		time.Sleep(500 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	if compared.Load() < 100 {
		t.Fatalf("only %d answers were compared at an unmoved version", compared.Load())
	}
}

// TestDialedValidatorNamesItsIssuer: two daemons stand at the same data
// version over different data. A Modeler whose memo was validated by
// the first must not have it confirmed by the second: when the
// preferred daemon dies mid-burst the next answer is the survivor's.
// And a daemon restarted on its address — same collector, same version,
// new process as far as a client can tell — is a miss, not a hit.
func TestDialedValidatorNamesItsIssuer(t *testing.T) {
	mk := func(src, dst graph.NodeID, rate float64) (*remos.Testbed, []*remos.CollectorReplica) {
		tb, err := remos.NewTestbed()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tb.Collector.Stop)
		tb.StartBlast(src, dst, rate)
		tb.Run(40)
		reps, err := tb.ServeReplicas(1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reps[0].Close() })
		return tb, reps
	}
	tbA, repA := mk("m-6", "m-8", 60e6)
	tbB, repB := mk("m-1", "m-3", 30e6)
	va, _ := tbA.Collector.DataVersion()
	vb, _ := tbB.Collector.DataVersion()
	if va != vb {
		t.Fatalf("the two daemons stand at versions %d and %d; the test needs them equal", va, vb)
	}

	fo, err := collector.DialFailover([]string{repA[0].Addr(), repB[0].Addr()}, collector.FailoverConfig{
		Client: collector.ClientConfig{CallTimeout: 2 * time.Second}, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	reg := telemetry.NewRegistry()
	m := core.New(core.Config{Source: fo, Telemetry: reg})
	misses := func() uint64 { return reg.Snapshot().Counters["modeler.avail_memo_misses"] }
	ctx := context.Background()
	tf := core.TFHistory(10)
	q := dialedQuery{kind: 1, hosts: []graph.NodeID{"m-1", "m-3", "m-6", "m-8"}}
	oracle := func(tb *remos.Testbed) any {
		want, err := q.run(ctx, tb.Modeler, tf)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	if q.diff(oracle(tbA), oracle(tbB), sameBits) == "" {
		t.Fatal("the two daemons hold the same data; the test needs them different")
	}

	for i := 0; i < 8; i++ {
		if i == 4 {
			repA[0].Close()
		}
		got, err := q.run(ctx, m, tf)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := oracle(tbA)
		if i >= 4 {
			want = oracle(tbB)
		}
		if d := q.diff(got, want, sameBits); d != "" {
			t.Fatalf("query %d (daemon A %s): %s", i, map[bool]string{false: "up", true: "killed"}[i >= 4], d)
		}
	}

	// B restarts on its address: the version and the data are what they
	// were, the instance is not.
	before := misses()
	repB[0].Close()
	if err := repB[0].Restart(); err != nil {
		t.Fatal(err)
	}
	// One call finds the old connection dead and redials, so that the
	// query below reaches the new instance with its read.
	if _, err := fo.TopologyCtx(ctx); err != nil {
		if _, err = fo.TopologyCtx(ctx); err != nil {
			t.Fatalf("redial after the restart: %v", err)
		}
	}
	got, err := q.run(ctx, m, tf)
	if err != nil {
		t.Fatalf("after the restart: %v", err)
	}
	if d := q.diff(got, oracle(tbB), sameBits); d != "" {
		t.Fatalf("after the restart: %s", d)
	}
	if misses() == before {
		t.Fatal("a restarted daemon confirmed a validator its predecessor issued")
	}
}

// TestDialedReadHonoursReplicaFence: a read replica fenced on staleness
// refuses the read op with the typed ErrStaleReplica — also when it
// could have answered "not modified" without touching a window — and a
// failover handle routes the Modeler's query on to the collector
// without marking the replica down, as it does for every op.
func TestDialedReadHonoursReplicaFence(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Collector.Stop()
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(40)

	var mu sync.Mutex
	ls := &feedSource{&lockedSource{mu: &mu, col: tb.Collector}}
	feedSrv, err := collector.Serve(ls, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feedSrv.Close()
	colAddr, colStop, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer colStop()
	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr: feedSrv.Addr(), MaxStaleness: 300 * time.Millisecond,
		LagThreshold: 100 * time.Millisecond, ResyncBackoff: 25 * time.Millisecond, Seed: 1,
	})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	repAddr, repStop, err := remos.ServeSource(rep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repStop()

	fo, err := collector.DialFailover([]string{repAddr, colAddr}, collector.FailoverConfig{
		Client: collector.ClientConfig{CallTimeout: 2 * time.Second}, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	m := core.New(core.Config{Source: fo})
	tf := core.TFHistory(10)
	q := dialedQuery{kind: 1, hosts: []graph.NodeID{"m-1", "m-3", "m-6", "m-8"}}
	want, err := q.run(ctx, tb.Modeler, tf)
	if err != nil {
		t.Fatal(err)
	}
	// Served by the replica while it is live: its quartiles are the
	// collector's, its ages its own.
	got, err := q.run(ctx, m, tf)
	if err != nil {
		t.Fatal(err)
	}
	if d := q.diff(got, want, sameQuartileBits); d != "" {
		t.Fatalf("live replica: %s", d)
	}
	if fo.Replicas()[0].Calls == 0 {
		t.Fatal("the live replica, listed first, answered nothing")
	}

	// No poll runs, so the feed goes quiet and the fence trips.
	waitUntil(t, 5*time.Second, "replica fenced", func() bool { return rep.State() == remos.ReplicaFenced })
	direct, err := collector.Dial(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	var ans collector.ReadAnswer
	err = direct.Read(ctx, &collector.ReadRequest{Span: 10}, &ans)
	if !errors.Is(err, collector.ErrStaleReplica) {
		t.Fatalf("fenced replica answered a read: %+v, %v", ans, err)
	}
	got, err = q.run(ctx, m, tf)
	if err != nil {
		t.Fatalf("query during the fence: %v", err)
	}
	if d := q.diff(got, want, sameBits); d != "" {
		t.Fatalf("during the fence the answer is the collector's: %s", d)
	}
	if n := fo.Telemetry().Snapshot().Counters["failover.refusals.stale"]; n == 0 {
		t.Fatal("failover.refusals.stale = 0: the fenced replica was not asked, or did not refuse")
	}
	if st := fo.Replicas()[0].State; st == collector.Down {
		t.Fatal("fenced replica marked Down; a typed refusal proves it alive")
	}
}

// TestDialedModelerFollowsRediscovery: a plain Modeler over a dialed
// collector — no subscription, no Refresh call — notices that the
// collector rediscovered its topology: the read answer names the
// discovery time, and on a difference the query re-runs once against a
// fresh snapshot. A linked Modeler reads the same way and follows too.
func TestDialedModelerFollowsRediscovery(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Collector.Stop()
	tb.Run(20)
	addr, stop, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	fo, err := remos.DialCollectors(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	m := remos.NewModeler(remos.Config{Source: fo})
	ctx := context.Background()
	nodes := []graph.NodeID{"m-1", "m-5"}
	capacityAt := func(g *core.Graph) float64 {
		for _, l := range g.LinksAt("m-1") {
			return l.Capacity.Median
		}
		t.Fatal("m-1 has no link in the answer")
		return 0
	}
	g0, err := m.GetGraphCtx(ctx, nodes, core.TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if c := capacityAt(g0); c != 100e6 {
		t.Fatalf("capacity before = %v", c)
	}

	for _, l := range tb.Network.Graph().LinksAt("m-1") {
		tb.Network.SetLinkCapacity(l.ID, 30e6)
	}
	tb.Run(4)
	if _, err := tb.Collector.Discover(); err != nil {
		t.Fatal(err)
	}
	tb.Run(4)

	for _, tc := range []struct {
		name string
		run  func() (float64, error)
	}{
		{"graph", func() (float64, error) {
			g, err := m.GetGraphCtx(ctx, nodes, core.TFHistory(10))
			if err != nil {
				return 0, err
			}
			if g.Epoch == g0.Epoch {
				return 0, fmt.Errorf("answer still carries snapshot epoch %d", g.Epoch)
			}
			return capacityAt(g), nil
		}},
		{"bandwidth", func() (float64, error) {
			st, err := m.AvailableBandwidthCtx(ctx, "m-1", "m-5", core.TFHistory(10))
			return st.Max, err
		}},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s after the rediscovery: %v", tc.name, err)
		}
		if got > 30e6 {
			t.Fatalf("%s after the rediscovery still reads %v over a 30 Mbps link", tc.name, got)
		}
	}
	want, err := tb.Modeler.GetGraphCtx(ctx, nodes, core.TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if c := capacityAt(want); c != 30e6 {
		t.Fatalf("the linked Modeler, never refreshed, still reads capacity %v", c)
	}
	got, err := m.GetGraphCtx(ctx, nodes, core.TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffGraphs(got, want, sameBits); d != "" {
		t.Fatalf("dialed and refreshed in-process Modelers disagree after the rediscovery: %s", d)
	}
}

// TestDialedFutureMatchesInProcess: the Future timeframe predicts from
// raw windows, and a dialed Modeler fetches them in its query's one read
// (a window read) — its predictions, decayed by the windows' ages, are
// the in-process Modeler's bit for bit, and a repeated query is "not
// modified".
func TestDialedFutureMatchesInProcess(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Collector.Stop()
	hosts := tb.Hosts()
	startOnOff(tb, hosts, 4)
	tb.Run(40)
	srv, err := collector.Serve(tb.Collector, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fo, err := remos.DialCollectors(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	dialed := core.New(core.Config{Source: fo, StaleHalfLife: 5})
	local := core.New(core.Config{Source: tb.Collector, StaleHalfLife: 5})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	tf := core.TFFuture(4)
	for epoch := 0; epoch < 20; epoch++ {
		tb.Run(2)
		q := drawQuery(rng, hosts)
		want, err := q.run(ctx, local, tf)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			reads := opCount(srv, "read")
			got, err := q.run(ctx, dialed, tf)
			if err != nil {
				t.Fatalf("epoch %d %s: %v", epoch, pass, err)
			}
			if d := q.diff(got, want, sameBits); d != "" {
				t.Fatalf("epoch %d %s: dialed Future differs from in-process: %s", epoch, pass, d)
			}
			if n := opCount(srv, "read") - reads; n != 1 {
				t.Fatalf("epoch %d %s: a Future query cost %d reads", epoch, pass, n)
			}
		}
	}
}
