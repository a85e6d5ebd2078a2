package remos_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/ha"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/remos"
)

// TestTiersAgreeOnSharedState runs one seeded fig-3 scenario with
// background traffic for 220 epochs — past the (shortened) sample
// window's wrap and across two rediscoveries — through every holder of
// collector.State: the polling collector, an HA standby following its
// feed (collector.Follow + ApplyFeed), a read replica, a collector
// restored from a mid-run checkpoint and polling on, and a Replay of a
// history dump. At equal epochs they must return the same samples and
// the same quartiles, bit for bit, for every channel and host; ages
// follow each tier's own clock rule. The sixth tier holds no State at
// all: a Modeler over a dialed handle, whose memo the server validates
// inside each query (readwire.go), must annotate the whole graph exactly
// as a Modeler linked to the collector does — across the window wrap,
// and across both rediscoveries without being told of them.
func TestTiersAgreeOnSharedState(t *testing.T) {
	const (
		epochs       = 220
		windowLen    = 64 // wraps after 64 of the 220 epochs
		rediscover   = 150.0
		checkpointAt = 100
	)
	clk := simclock.New()
	net, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	traffic.Blast(net, "m-6", "m-8", 40e6)
	traffic.OnOff(net, "m-1", "m-7", traffic.OnOffConfig{Rate: 30e6, MeanOn: 6, MeanOff: 4, Seed: 7})
	traffic.OnOff(net, "m-5", "m-2", traffic.OnOffConfig{Rate: 20e6, MeanOn: 3, MeanOff: 9, Seed: 8})
	net.SetHostLoad("m-5", 0.25)
	mkCol := func() *collector.Collector {
		return collector.New(collector.Config{
			Client:           snmp.NewClient(att.Registry, snmp.DefaultCommunity),
			Clock:            clk,
			Addrs:            addrs,
			PollPeriod:       2,
			WindowLen:        windowLen,
			RediscoverPeriod: rediscover,
			PerHopLatency:    topology.PerHopLatency,
		})
	}
	col, colStandby, colRestored := mkCol(), mkCol(), mkCol()

	var mu sync.Mutex // serializes the clock, the server's reads and the standby's applies
	locked := func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	}
	srv, err := collector.ServeConfig(&haSource{&feedSource{&lockedSource{mu: &mu, col: col}}},
		"127.0.0.1:0", collector.ServerConfig{DefaultBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	readSrv, err := collector.ServeConfig(&feedSource{&lockedSource{mu: &mu, col: col}},
		"127.0.0.1:0", collector.ServerConfig{DefaultBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer readSrv.Close()
	dialedSrc, err := remos.DialCollectors(readSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialedSrc.Close()
	dialed, linked := remos.NewModeler(remos.Config{Source: dialedSrc}), remos.NewModeler(remos.Config{Source: col})

	lease := ha.NewMemoryLease(clk)
	mkNode := func(c *collector.Collector, id, peer string) *ha.Node {
		n, err := ha.New(ha.Config{Collector: c, Clock: clk, Lease: lease, ID: id, PeerAddr: peer,
			Client: collector.ClientConfig{CallTimeout: 2 * time.Second}, Serialize: locked})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { locked(n.Kill); n.Wait() })
		return n
	}
	leader, standby := mkNode(col, "leader", ""), mkNode(colStandby, "standby", srv.Addr())
	locked(func() {
		if err := leader.Start(true); err != nil {
			t.Fatal(err)
		}
		if err := standby.Start(false); err != nil {
			t.Fatal(err)
		}
	})

	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr: srv.Addr(), MaxStaleness: -1, ResyncBackoff: 25 * time.Millisecond, Seed: 1,
		Telemetry: telemetry.NewRegistry(),
	})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}

	// caughtUp waits for both followers to reach the collector's epoch.
	caughtUp := func(epoch int) {
		t.Helper()
		want, _ := col.DataVersion()
		deadline := time.Now().Add(10 * time.Second)
		for {
			sv, _ := colStandby.DataVersion()
			if sv == want && rep.Status().Epoch == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("epoch %d: collector at version %d, standby at %d, replica at %d",
					epoch, want, sv, rep.Status().Epoch)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	sameQuartiles := func(a, b stats.Stat) bool {
		f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		return f(a.Min, b.Min) && f(a.Q1, b.Q1) && f(a.Median, b.Median) && f(a.Q3, b.Q3) &&
			f(a.Max, b.Max) && a.Samples == b.Samples
	}
	restored := false
	compare := func(epoch int) {
		t.Helper()
		// The dialed Modeler's reads take the simulator lock on the server
		// side, so it is asked first; only this goroutine moves the clock.
		tfs := []remos.Timeframe{remos.TFCurrent(), remos.TFHistory(10), remos.TFHistory(60)}
		var dialedGraphs []*remos.Graph
		for _, tf := range tfs {
			g, err := dialed.GetGraph(nil, tf)
			if err != nil {
				t.Fatalf("epoch %d dialed modeler %+v: %v", epoch, tf, err)
			}
			dialedGraphs = append(dialedGraphs, g)
		}
		mu.Lock()
		defer mu.Unlock()
		linked.Refresh() // redundant since a linked Modeler follows a rediscovery itself (DESIGN §22)
		for i, tf := range tfs {
			want, err := linked.GetGraph(nil, tf)
			if err != nil {
				t.Fatalf("epoch %d linked modeler %+v: %v", epoch, tf, err)
			}
			if d := diffGraphs(dialedGraphs[i], want, sameBits); d != "" {
				t.Fatalf("epoch %d dialed modeler %+v: %s", epoch, tf, d)
			}
		}
		var dump bytes.Buffer
		if err := col.SaveHistory(&dump); err != nil {
			t.Fatal(err)
		}
		replay, err := collector.LoadHistory(&dump)
		if err != nil {
			t.Fatal(err)
		}
		// sameClock tiers read the collector's own clock, so their ages
		// are the collector's; the replica extrapolates in wall time
		// from the last update; a replay is as fresh as it will ever be.
		type tier struct {
			name      string
			src       collector.Source
			sameClock bool
		}
		tiers := []tier{{"standby", colStandby, true}, {"replica", rep, false}, {"replay", replay, false}}
		if restored {
			tiers = append(tiers, tier{"restored", colRestored, true})
		}
		topo, err := col.Topology()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range tiers {
			tt, err := tr.src.Topology()
			if err != nil || tt.Graph.NumLinks() != topo.Graph.NumLinks() || tt.Graph.NumNodes() != topo.Graph.NumNodes() {
				t.Fatalf("epoch %d %s: topology %v (%v)", epoch, tr.name, tt, err)
			}
			for _, l := range topo.Graph.Links() {
				for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
					k := topo.Key(l, d)
					want, err1 := col.Samples(k)
					got, err2 := tr.src.Samples(k)
					if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("epoch %d %s %v: %d samples (%v), collector %d (%v)",
							epoch, tr.name, k, len(got), err2, len(want), err1)
					}
					for _, span := range []float64{0, 10, 60, 1000} {
						want, _ := col.Utilization(k, span)
						got, err := tr.src.Utilization(k, span)
						if err != nil || !sameQuartiles(got, want) {
							t.Fatalf("epoch %d %s %v span %v: %+v (%v), collector %+v", epoch, tr.name, k, span, got, err, want)
						}
						switch {
						case tr.sameClock && got != want:
							t.Fatalf("epoch %d %s %v span %v: age/accuracy %+v, collector %+v", epoch, tr.name, k, span, got, want)
						case tr.name == "replay" && got.Age != 0:
							t.Fatalf("epoch %d replay %v: age %v, want 0", epoch, k, got.Age)
						case tr.name == "replica" && (got.Age < want.Age || got.Age > want.Age+10):
							t.Fatalf("epoch %d replica %v: age %v, collector %v", epoch, k, got.Age, want.Age)
						}
					}
				}
			}
			for _, id := range topo.Graph.ComputeNodes() {
				want, err1 := col.HostLoad(id, 60)
				got, err2 := tr.src.HostLoad(id, 60)
				if (err1 == nil) != (err2 == nil) || !sameQuartiles(got, want) {
					t.Fatalf("epoch %d %s host %s: %+v (%v), collector %+v (%v)", epoch, tr.name, id, got, err2, want, err1)
				}
			}
		}
	}

	for epoch := 1; epoch <= epochs; epoch++ {
		locked(func() { clk.Advance(2) })
		caughtUp(epoch)
		if epoch == checkpointAt {
			locked(func() {
				var ckpt bytes.Buffer
				if err := col.SaveCheckpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				if _, err := colRestored.RestoreCheckpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				if err := colRestored.Start(); err != nil { // warm: polls on from the restored baselines
					t.Fatal(err)
				}
			})
			defer locked(colRestored.Stop)
			restored = true
		}
		if epoch%20 == 0 || (epoch > windowLen-3 && epoch < windowLen+4) || epoch == int(rediscover/2)+1 {
			compare(epoch)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := col.Discoveries(); n < 3 {
		t.Fatalf("scenario ran %d discoveries, want the initial one and two rediscoveries", n)
	}
	if n := opCount(readSrv, "topo"); n != 3 {
		t.Fatalf("the dialed modeler fetched the topology %d times over two rediscoveries, want 3", n)
	}
	topo, _ := col.Topology()
	if s, _ := colStandby.Samples(topo.Key(topo.Graph.Links()[0], graph.AtoB)); len(s) != windowLen {
		t.Fatalf("standby window holds %d samples after %d epochs, want the wrapped %d", len(s), epochs, windowLen)
	}
	if restoredTopo, _ := colRestored.Topology(); colRestored.Polls() <= uint64(checkpointAt) || restoredTopo == nil {
		t.Fatalf("restored collector did not poll on: %d polls", colRestored.Polls())
	}
}
