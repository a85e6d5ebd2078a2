// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§8), plus ablations over the design choices DESIGN.md
// calls out. Each table benchmark executes the full experiment —
// selection, traffic, program run — once per iteration; the reported
// ns/op is the wall cost of regenerating that artifact (all network time
// is virtual).
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fx"
	"repro/internal/graph"
	"repro/internal/ha"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/remos"

	airshedapp "repro/internal/apps/airshed"
	fftapp "repro/internal/apps/fft"
)

// --- Figures -------------------------------------------------------------

// BenchmarkFigure1Aggregate regenerates Figure 1's two readings: edge
// links vs switch backplanes as the bottleneck.
func BenchmarkFigure1Aggregate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast, slow := experiments.Figure1()
		if fast.AggregateBandwidth != 40e6 || slow.AggregateBandwidth != 10e6 {
			b.Fatalf("aggregate = %v / %v", fast.AggregateBandwidth, slow.AggregateBandwidth)
		}
	}
}

// BenchmarkFigure4Clustering regenerates Figure 4: greedy selection
// around busy links.
func BenchmarkFigure4Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4()
		if len(r.Selected) != 4 {
			b.Fatalf("selected %v", r.Selected)
		}
	}
}

// --- Table 1: static node selection --------------------------------------

func benchTable1Row(b *testing.B, program string, nodes int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		found := false
		for _, r := range rows {
			if r.Program == program && r.Nodes == nodes {
				found = true
				b.ReportMetric(r.RemosTime, "virtualSec/run")
			}
		}
		if !found {
			b.Fatalf("row %s/%d missing", program, nodes)
		}
	}
}

// BenchmarkTable1 regenerates the full Table 1 (all six rows).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable1FFT512x2 regenerates the table's first row and reports
// the measured virtual execution time (paper: 0.462 s).
func BenchmarkTable1FFT512x2(b *testing.B) { benchTable1Row(b, "FFT (512)", 2) }

// BenchmarkTable1Airshed5 regenerates the table's last row (paper: 650 s).
func BenchmarkTable1Airshed5(b *testing.B) { benchTable1Row(b, "Airshed", 5) }

// --- Table 2: node selection under traffic --------------------------------

// BenchmarkTable2 regenerates the full Table 2.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		for _, r := range rows {
			if r.PercentIncrease < 40 {
				b.Fatalf("%s/%d: static penalty %.0f%%", r.Program, r.Nodes, r.PercentIncrease)
			}
		}
	}
}

// --- Table 3: runtime adaptation ------------------------------------------

// BenchmarkTable3 regenerates the full Table 3 (eight adaptive/fixed
// Airshed runs). Expensive: seconds per iteration.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Extension studies ------------------------------------------------------

// BenchmarkPredictionStudy regenerates the future-timeframe study
// (4 traffic patterns × 4 predictors).
func BenchmarkPredictionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if evals := experiments.PredictionStudy(); len(evals) != 16 {
			b.Fatalf("cells = %d", len(evals))
		}
	}
}

// BenchmarkScaleStudy regenerates the federated scale study, one
// sub-benchmark per generated size so bench.sh -compare gates the
// build + poll-round + federated-merge cost growth at each scale point
// independently.
func BenchmarkScaleStudy(b *testing.B) {
	for _, n := range experiments.ScaleStudySizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.ScaleStudyAt(n)
				if r.IntraMbps <= 0 || r.CrossMbps <= 0 {
					b.Fatalf("federated queries failed: %+v", r)
				}
			}
		})
	}
}

// BenchmarkOverheadStudy regenerates the poll-period sweep.
func BenchmarkOverheadStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rs := experiments.OverheadStudy(); len(rs) != 5 {
			b.Fatalf("rows = %d", len(rs))
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationSelfTraffic regenerates the §8.3 self-migration
// fallacy comparison.
func BenchmarkAblationSelfTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationSelfTraffic()
		if r.NaiveMigrations <= r.DiscountMigrations {
			b.Fatalf("fallacy did not reproduce: %d vs %d", r.NaiveMigrations, r.DiscountMigrations)
		}
	}
}

// BenchmarkAblationSimultaneousFlowQuery measures the §4.2 design choice
// of answering simultaneous flow queries in one solve, versus issuing
// per-flow queries that ignore internal sharing (and get the answer
// wrong — the benchmark reports the overestimate factor).
func BenchmarkAblationSimultaneousFlowQuery(b *testing.B) {
	tb, err := remos.NewTestbed()
	if err != nil {
		b.Fatal(err)
	}
	tb.Run(10)
	flows := []remos.Flow{
		{Src: "m-4", Dst: "m-7", Kind: remos.IndependentFlow},
		{Src: "m-5", Dst: "m-8", Kind: remos.IndependentFlow},
		{Src: "m-6", Dst: "m-7", Kind: remos.IndependentFlow},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joint, err := tb.Modeler.QueryFlowInfo(nil, nil, flows, remos.TFCapacity())
		if err != nil {
			b.Fatal(err)
		}
		var solo float64
		for _, f := range flows {
			fi, err := tb.Modeler.QueryFlowInfo(nil, nil, []remos.Flow{f}, remos.TFCapacity())
			if err != nil {
				b.Fatal(err)
			}
			solo += fi.Independent[0].Bandwidth.Median
		}
		var shared float64
		for _, r := range joint.Independent {
			shared += r.Bandwidth.Median
		}
		b.ReportMetric(solo/shared, "soloOverestimate")
	}
}

// BenchmarkAblationSharingPolicy compares max-min against the naive
// proportional sharing model on the same query; the reported metric is
// the fraction of the true leftover bandwidth the proportional model
// fails to promise (§4.2's sharing-policy design choice).
func BenchmarkAblationSharingPolicy(b *testing.B) {
	mk := func(policy core.SharingPolicy) *core.Modeler {
		e := experiments.NewEnvOn(topology.Dumbbell(2, 100, 10))
		for _, l := range e.Net.Graph().Links() {
			if (l.A == "l0" && l.B == "L") || (l.A == "L" && l.B == "l0") {
				e.Net.SetLinkCapacity(l.ID, 2e6)
			}
		}
		if _, err := e.Col.Discover(); err != nil {
			b.Fatal(err)
		}
		mod := core.New(core.Config{Source: e.Col, Sharing: policy})
		e.Clk.Advance(5)
		return mod
	}
	maxminMod := mk(core.ShareMaxMin)
	propMod := mk(core.ShareProportional)
	flows := []core.Flow{
		{Src: "l0", Dst: "r0", Kind: core.IndependentFlow},
		{Src: "l1", Dst: "r1", Kind: core.IndependentFlow},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm, err := maxminMod.QueryFlowInfo(nil, nil, flows, core.TFCapacity())
		if err != nil {
			b.Fatal(err)
		}
		pp, err := propMod.QueryFlowInfo(nil, nil, flows, core.TFCapacity())
		if err != nil {
			b.Fatal(err)
		}
		under := 1 - pp.Independent[1].Bandwidth.Median/mm.Independent[1].Bandwidth.Median
		b.ReportMetric(under, "underPromiseFrac")
	}
}

// BenchmarkAblationTopologyVsFlowMatrix measures the §7.3 observation
// that building the clustering distance matrix from one topology query
// beats O(n²) flow queries.
func BenchmarkAblationTopologyVsFlowMatrix(b *testing.B) {
	tb, err := remos.NewTestbed()
	if err != nil {
		b.Fatal(err)
	}
	tb.Run(10)
	hosts := remos.TestbedHosts()
	b.Run("topology-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.Modeler.BandwidthMatrix(hosts, remos.TFHistory(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-pair-flow-queries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range hosts {
				for _, d := range hosts {
					if s == d {
						continue
					}
					_, err := tb.Modeler.QueryFlowInfo(nil, nil,
						[]remos.Flow{{Src: s, Dst: d, Kind: remos.IndependentFlow}}, remos.TFHistory(10))
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// --- End-to-end micro-costs -------------------------------------------------

// writeSideTestbed builds one of the benchmark's two fixtures — the
// Figure 3 testbed (11 agents) or topogen hier-300 (300 agents) — with
// cross traffic and `history` virtual seconds of polling behind it.
func writeSideTestbed(b *testing.B, fixture string, history float64) *remos.Testbed {
	b.Helper()
	g := topology.Testbed()
	if fixture == "hier300" {
		tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
		if err != nil {
			b.Fatal(err)
		}
		g = tp.Graph
	}
	tb, err := remos.NewTestbedOn(g)
	if err != nil {
		b.Fatal(err)
	}
	hosts := tb.Hosts()
	for i := 0; i < 3; i++ {
		traffic.OnOff(tb.Network, hosts[i*5%len(hosts)], hosts[(i*5+len(hosts)/2)%len(hosts)],
			traffic.OnOffConfig{Rate: float64(20+10*i) * 1e6, MeanOn: 6, MeanOff: 4, Seed: int64(100 + i)})
	}
	tb.Run(history)
	return tb
}

// BenchmarkCollectorPollRound measures one full SNMP poll round — the
// recurring cost a deployment pays, which the paper argues must stay
// low — on the Figure 3 testbed and on hier-300. requests/round is the
// SNMP requests the agents served per round (one per agent in steady
// state); us/agent is the round's wall time per agent.
func BenchmarkCollectorPollRound(b *testing.B) {
	for _, fixture := range []string{"fig3", "hier300"} {
		b.Run(fixture, func(b *testing.B) {
			tb := writeSideTestbed(b, fixture, 30)
			requests := func() (n uint64) {
				for _, a := range tb.Agents.Agents {
					n += a.Requests()
				}
				return n
			}
			before := requests()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.Run(2) // one poll period
			}
			b.StopTimer()
			agents := float64(len(tb.Agents.Agents))
			b.ReportMetric(float64(requests()-before)/float64(b.N), "requests/round")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/agents/1e3, "us/agent")
		})
	}
}

// BenchmarkFeedSinceDelta measures collecting one epoch's replication
// delta on hier-300 with full (512-sample) windows: the time the feed
// holds the collector's lock per subscriber per epoch, which must not
// depend on how much history the windows retain.
func BenchmarkFeedSinceDelta(b *testing.B) {
	b.Run("hier300", func(b *testing.B) {
		tb := writeSideTestbed(b, "hier300", 1100)
		cur := &collector.FeedCursor{}
		if _, err := tb.Collector.FeedSince(cur); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb.Run(2)
			b.StartTimer()
			if p, err := tb.Collector.FeedSince(cur); err != nil || p == nil || p.Full {
				b.Fatalf("FeedSince: %+v, %v", p, err)
			}
		}
	})
}

// BenchmarkWindowAppendFull measures the replica's append — fork the
// previous view, add one sample — on a full 512-sample window. B/op is
// the point: it must not be the 8 KiB of the window.
func BenchmarkWindowAppendFull(b *testing.B) {
	w := stats.NewWindow(512, 0)
	for i := 0; i < 1024; i++ {
		if err := w.Add(float64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w = w.Fork()
		if err := w.Add(float64(1024+i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelerGetGraph measures one remos_get_graph over the full
// testbed with history annotations.
func BenchmarkModelerGetGraph(b *testing.B) {
	e := experiments.NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 60e6)
	e.Warmup()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Mod.GetGraph(nil, core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelerFlowQuery measures one remos_flow_info with all three
// classes populated.
func BenchmarkModelerFlowQuery(b *testing.B) {
	e := experiments.NewEnv()
	e.Warmup()
	fixed := []core.Flow{{Src: "m-1", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 2e6}}
	variable := []core.Flow{
		{Src: "m-2", Dst: "m-7", Kind: core.VariableFlow, Bandwidth: 1},
		{Src: "m-3", Dst: "m-8", Kind: core.VariableFlow, Bandwidth: 3},
	}
	ind := []core.Flow{{Src: "m-4", Dst: "m-8", Kind: core.IndependentFlow}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Mod.QueryFlowInfo(fixed, variable, ind, core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// runConcurrent spreads b.N iterations of fn across exactly `workers`
// goroutines (b.RunParallel pins the goroutine count to GOMAXPROCS,
// which would make the 1/4/16 scaling points machine-dependent).
func runConcurrent(b *testing.B, workers int, fn func() error) {
	b.Helper()
	b.ResetTimer()
	b.ReportAllocs()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := fn(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkModelerGetGraphParallel measures remos_get_graph throughput
// under concurrent callers at 1/4/16 goroutines. Readers share one
// immutable snapshot, plan, and availability memo, so per-op cost should
// stay near-flat as workers are added.
func BenchmarkModelerGetGraphParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			e := experiments.NewEnv()
			traffic.Blast(e.Net, "m-6", "m-8", 60e6)
			e.Warmup()
			ctx := context.Background()
			runConcurrent(b, workers, func() error {
				_, err := e.Mod.GetGraphCtx(ctx, nil, core.TFHistory(10))
				return err
			})
		})
	}
}

// BenchmarkModelerFlowQueryParallel measures remos_flow_info throughput
// under concurrent callers at 1/4/16 goroutines.
func BenchmarkModelerFlowQueryParallel(b *testing.B) {
	fixed := []core.Flow{{Src: "m-1", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 2e6}}
	variable := []core.Flow{
		{Src: "m-2", Dst: "m-7", Kind: core.VariableFlow, Bandwidth: 1},
		{Src: "m-3", Dst: "m-8", Kind: core.VariableFlow, Bandwidth: 3},
	}
	ind := []core.Flow{{Src: "m-4", Dst: "m-8", Kind: core.IndependentFlow}}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			e := experiments.NewEnv()
			e.Warmup()
			ctx := context.Background()
			runConcurrent(b, workers, func() error {
				_, err := e.Mod.QueryFlowInfoCtx(ctx, fixed, variable, ind, core.TFHistory(10))
				return err
			})
		})
	}
}

// BenchmarkWatchFanout measures the push path end to end: one source
// epoch (a full poll round) fanned out to 1/16/128 TCP watch
// subscribers, each on its own multiplexed connection. ns/op is the
// wall cost of one epoch — poll, change evaluation, and every
// subscriber observing the new version; the spread across sub-counts
// is the fan-out overhead proper.
func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			e := experiments.NewEnv()
			e.Warmup()
			srv, err := collector.ServeConfig(e.Col, "127.0.0.1:0", collector.ServerConfig{
				MaxConns: 2 * subs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := make([]atomic.Uint64, subs)
			clients := make([]*collector.Client, subs)
			for i := 0; i < subs; i++ {
				cl, err := collector.Dial(srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = cl
				h, err := cl.Watch(ctx, collector.WatchRequest{Kind: collector.WatchVersion})
				if err != nil {
					b.Fatal(err)
				}
				go func(i int, h *collector.WatchHandle) {
					for u := range h.C {
						if u.Epoch > seen[i].Load() {
							seen[i].Store(u.Epoch)
						}
					}
				}(i, h)
			}
			defer func() {
				for _, cl := range clients {
					cl.Close()
				}
			}()

			waitAll := func(target uint64) {
				for i := range seen {
					for seen[i].Load() < target {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}
			// Prime: one epoch through the whole fan-out before timing,
			// so subscription setup is not measured.
			e.Clk.Advance(2)
			if v, ok := e.Col.DataVersion(); ok {
				waitAll(v)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				e.Clk.Advance(2) // one poll period: exactly one version bump
				target, _ := e.Col.DataVersion()
				waitAll(target)
			}
		})
	}
}

// benchFederationEnv is the shared steady-state federation for the
// micro-benchmarks: 100 generated nodes, 3 regions, warmed up.
func benchFederationEnv() *experiments.FederationEnv {
	e := experiments.NewFederationEnv(topogen.Spec{Kind: topogen.KindHier, N: 100, Seed: 11, Regions: 3})
	e.Warmup()
	return e
}

// BenchmarkFederatedMerge measures one federated topology read — the
// local region's full partial composed with two peer regions' summaries
// through the merge — at steady state.
func BenchmarkFederatedMerge(b *testing.B) {
	e := benchFederationEnv()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Views[0].TopologyCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederatedCrossQuery measures one cross-region availability
// query answered through the summarized links, against the intra-region
// full-fidelity baseline in the same view.
func BenchmarkFederatedCrossQuery(b *testing.B) {
	e := benchFederationEnv()
	r0 := e.Topo.Hosts(e.Topo.Regions[0])
	r2 := e.Topo.Hosts(e.Topo.Regions[2])
	mod := e.Mods[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFxIterationUnderContention measures one BSP iteration (compute
// + all-to-all) on the simulator with competing traffic — the simulator's
// end-to-end event cost.
func BenchmarkFxIterationUnderContention(b *testing.B) {
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		b.Fatal(err)
	}
	traffic.Blast(n, "m-6", "m-8", 60e6)
	rt := &fx.Runtime{Net: n}
	prog := &fx.Program{
		Name: "bench", Iterations: 1,
		Steps: []fx.Step{
			{Name: "w", WorkPerNode: func(p int) float64 { return 0.1 / float64(p) }},
			{Name: "x", Comm: fx.AllToAll(1e6)},
		},
	}
	nodes := []graph.NodeID{"m-1", "m-2", "m-4", "m-5"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.RunToCompletion(prog, nodes)
	}
}

// BenchmarkRealFFT2D runs the actual 2-D FFT computation (the real
// algorithm behind the modeled application).
func BenchmarkRealFFT2D(b *testing.B) {
	n := 256
	m := make([]complex128, n*n)
	for i := range m {
		m[i] = complex(float64(i%31), float64(i%17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fftapp.Transform2D(m, n)
	}
}

// BenchmarkRealAirshedStep runs the actual advection+chemistry kernel.
func BenchmarkRealAirshedStep(b *testing.B) {
	g := airshedapp.NewGrid(128, 4)
	for s := 0; s < g.Species; s++ {
		for i := range g.C[s] {
			g.C[s][i] = float64(i % 7)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step(0.5, -0.5, 0.01)
	}
}

// BenchmarkReplicaCatchup measures a cold replica resync end to end —
// dial, feed subscription, Full feed payload over TCP, copy-on-write
// store rebuild — against synthetic star topologies of 8/100/1000
// hosts with seven poll rounds of history. ns/op is the wall time for
// a fresh replica to reach Live; this is the cost a deployment pays
// per partition heal (and its scaling in topology size).
func BenchmarkReplicaCatchup(b *testing.B) {
	for _, hosts := range []int{8, 100, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", hosts), func(b *testing.B) {
			e := experiments.NewEnvOn(topology.Star(hosts, 100, 1000))
			e.Warmup() // seven poll rounds of window history to ship
			srv, err := collector.Serve(e.Col, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := remos.NewReadReplica(remos.ReplicaConfig{
					FeedAddr: srv.Addr(),
					Seed:     int64(i) + 1,
				})
				rep.Start()
				if err := rep.WaitSynced(ctx); err != nil {
					b.Fatal(err)
				}
				rep.Close()
			}
		})
	}
}

// benchReplicaModeler wires a Modeler over a live read replica fed by a
// served collector, for comparing the replica query path against the
// direct BenchmarkModelerGetGraph/FlowQuery baselines: the PR 5
// lock-free envelope says sourcing from a replica must stay within 10%
// of sourcing from the collector (enforced by bench.sh -compare against
// the committed baselines).
func benchReplicaModeler(b *testing.B) (*experiments.Env, *core.Modeler, func()) {
	b.Helper()
	e := experiments.NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 60e6)
	e.Warmup()
	srv, err := collector.Serve(e.Col, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr:     srv.Addr(),
		MaxStaleness: -1, // quiescent clock: never fence mid-benchmark
		Seed:         1,
	})
	rep.Start()
	if err := rep.WaitSynced(context.Background()); err != nil {
		b.Fatal(err)
	}
	return e, core.New(core.Config{Source: rep}), func() {
		rep.Close()
		srv.Close()
	}
}

// BenchmarkReplicaModelerGetGraph is BenchmarkModelerGetGraph with the
// Modeler sourced from a read replica instead of the collector.
func BenchmarkReplicaModelerGetGraph(b *testing.B) {
	_, mod, stop := benchReplicaModeler(b)
	defer stop()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.GetGraph(nil, core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaModelerFlowQuery is BenchmarkModelerFlowQuery with
// the Modeler sourced from a read replica.
func BenchmarkReplicaModelerFlowQuery(b *testing.B) {
	_, mod, stop := benchReplicaModeler(b)
	defer stop()
	fixed := []core.Flow{{Src: "m-1", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 2e6}}
	variable := []core.Flow{
		{Src: "m-2", Dst: "m-7", Kind: core.VariableFlow, Bandwidth: 1},
		{Src: "m-3", Dst: "m-8", Kind: core.VariableFlow, Bandwidth: 3},
	}
	ind := []core.Flow{{Src: "m-4", Dst: "m-8", Kind: core.IndependentFlow}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.QueryFlowInfo(fixed, variable, ind, core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The dialed Modeler (DESIGN.md §20) ---------------------------------

// benchDialedModeler serves a warmed-up collector on the loopback and
// returns a Modeler over a dialed failover handle, the paper's own
// deployment. Beside ns/op and allocs/op the benchmarks report rtt/op,
// the wire round trips a query cost, read from the server's server.op.*
// counters: one, where the same query over per-key fetches cost a dozen.
func benchDialedModeler(b *testing.B) (*experiments.Env, *core.Modeler, func() float64, func()) {
	b.Helper()
	e := experiments.NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 60e6)
	e.Warmup()
	srv, err := collector.Serve(e.Col, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fo, err := remos.DialCollectors(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	ops := func() float64 {
		var n uint64
		for name, v := range srv.Telemetry().Snapshot().Counters {
			if strings.HasPrefix(name, "server.op.") {
				n += v
			}
		}
		return float64(n)
	}
	return e, core.New(core.Config{Source: fo}), ops, func() {
		fo.Close()
		srv.Close()
	}
}

// BenchmarkDialedModelerFlowQuery is BenchmarkModelerFlowQuery over the
// loopback: warm repeats the query between polls (the server answers
// "not modified"), cold runs a poll round before every query (the one
// frame carries the stats), future-cold is cold under TFFuture (the one
// frame carries each channel's raw window, and the Modeler predicts).
func BenchmarkDialedModelerFlowQuery(b *testing.B) {
	fixed := []core.Flow{{Src: "m-1", Dst: "m-7", Kind: core.FixedFlow, Bandwidth: 2e6}}
	variable := []core.Flow{
		{Src: "m-2", Dst: "m-7", Kind: core.VariableFlow, Bandwidth: 1},
		{Src: "m-3", Dst: "m-8", Kind: core.VariableFlow, Bandwidth: 3},
	}
	ind := []core.Flow{{Src: "m-4", Dst: "m-8", Kind: core.IndependentFlow}}
	for _, mode := range []string{"warm", "cold", "future-cold"} {
		b.Run(mode, func(b *testing.B) {
			e, mod, ops, stop := benchDialedModeler(b)
			defer stop()
			tf := core.TFHistory(10)
			if mode == "future-cold" {
				tf = core.TFFuture(4)
			}
			query := func() {
				if _, err := mod.QueryFlowInfo(fixed, variable, ind, tf); err != nil {
					b.Fatal(err)
				}
			}
			query() // the topology fetch is set-up
			before := ops()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode != "warm" {
					b.StopTimer()
					e.Clk.Advance(2)
					b.StartTimer()
				}
				query()
			}
			b.ReportMetric((ops()-before)/float64(b.N), "rtt/op")
		})
	}
}

// BenchmarkDialedModelerGetGraph is BenchmarkModelerGetGraph over the
// loopback, warm.
func BenchmarkDialedModelerGetGraph(b *testing.B) {
	_, mod, ops, stop := benchDialedModeler(b)
	defer stop()
	if _, err := mod.GetGraph(nil, core.TFHistory(10)); err != nil {
		b.Fatal(err)
	}
	before := ops()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.GetGraph(nil, core.TFHistory(10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((ops()-before)/float64(b.N), "rtt/op")
}

// BenchmarkWireRoundTrip times one util round trip over the loopback:
// the Figure 3 collector served with the daemon's admission defaults,
// each client goroutine on its own failover handle as
// remos.DialCollectors gives it. Beside ns/op and allocs/op it reports
// tick_cluster_pct, the share of round trips in [3.8, 4.8) ms: a thread
// hand-off that waits out a 250 Hz scheduler tick (DESIGN.md §21).
func BenchmarkWireRoundTrip(b *testing.B) {
	tb := writeSideTestbed(b, "fig3", 60)
	srv, err := collector.ServeConfig(tb.Collector, "127.0.0.1:0", collector.ServerConfig{
		MaxConns: 256, MaxInflight: 64, QueueDepth: 128, DefaultBudget: 2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	topo, err := tb.Collector.TopologyCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var keys []collector.ChannelKey
	for _, l := range topo.Graph.Links() {
		keys = append(keys, topo.Key(l, graph.AtoB), topo.Key(l, graph.BtoA))
	}
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			handles := make([]*remos.FailoverSource, clients)
			for i := range handles {
				h, err := remos.DialCollectors(srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer h.Close()
				handles[i] = h
			}
			ctx := context.Background()
			rtts := make([][]time.Duration, clients)
			b.ResetTimer()
			b.ReportAllocs()
			var wg sync.WaitGroup
			for c, h := range handles {
				n := b.N / clients
				if c < b.N%clients {
					n++
				}
				rtts[c] = make([]time.Duration, 0, n)
				wg.Add(1)
				go func(c int, h *remos.FailoverSource, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						t0 := time.Now()
						if _, err := h.UtilizationCtx(ctx, keys[(c+i)%len(keys)], 10); err != nil {
							b.Error(err)
							return
						}
						rtts[c] = append(rtts[c], time.Since(t0))
					}
				}(c, h, n)
			}
			wg.Wait()
			b.StopTimer()
			in, all := 0, 0
			for _, rs := range rtts {
				for _, d := range rs {
					if d >= 3800*time.Microsecond && d < 4800*time.Microsecond {
						in++
					}
				}
				all += len(rs)
			}
			b.ReportMetric(100*float64(in)/float64(max(all, 1)), "tick_cluster_pct")
		})
	}
}

// --- Collector HA (DESIGN.md §14) ---------------------------------------

// benchPair builds two collectors over one simulated estate for the HA
// benchmarks: one polls as leader, the other stays warm over the feed.
func benchPair(b *testing.B) (*simclock.Clock, [2]*collector.Collector) {
	b.Helper()
	clk := simclock.New()
	net, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		b.Fatal(err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	mk := func() *collector.Collector {
		return collector.New(collector.Config{
			Client:        snmp.NewClient(att.Registry, snmp.DefaultCommunity),
			Clock:         clk,
			Addrs:         addrs,
			PollPeriod:    2,
			PerHopLatency: topology.PerHopLatency,
		})
	}
	traffic.Blast(net, "m-6", "m-8", 60e6)
	return clk, [2]*collector.Collector{mk(), mk()}
}

// BenchmarkPromotionTime measures one leader-failover cycle of a
// hot-standby pair on the virtual clock: kill the leader, drive
// heartbeats until the standby acquires the expired lease and starts
// polling warm, then let the killed daemon rejoin as standby for the
// next iteration. ns/op is the wall cost of the promotion machinery
// (lease churn, role flip, warm collector start); vsec/promotion is
// the virtual promotion delay, bounded by lease TTL + heartbeat
// (TestChaosLeaderFailover asserts the bound).
func BenchmarkPromotionTime(b *testing.B) {
	const ttl, hb = 3.0, 1.0
	clk, cols := benchPair(b)
	lease := ha.NewMemoryLease(clk)
	ids := [2]string{"bench-a", "bench-b"}
	mkNode := func(i int) *ha.Node {
		n, err := ha.New(ha.Config{
			Collector: cols[i],
			Clock:     clk,
			Lease:     lease,
			ID:        ids[i],
			LeaseTTL:  ttl,
			Heartbeat: hb,
		})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	var nodes [2]*ha.Node
	nodes[0], nodes[1] = mkNode(0), mkNode(1)
	if err := nodes[0].Start(true); err != nil {
		b.Fatal(err)
	}
	if err := nodes[1].Start(false); err != nil {
		b.Fatal(err)
	}
	clk.Advance(6) // steady state: leader polling, standby observing

	leader := 0
	var vtotal float64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		standby := 1 - leader
		nodes[leader].Kill()
		killedAt := clk.Now()
		for nodes[standby].Role() != ha.RoleLeader {
			clk.Advance(hb)
		}
		vtotal += float64(clk.Now() - killedAt)
		// Heal: a fresh node over the deposed collector observes the
		// higher term and rejoins as standby.
		nodes[leader].Wait()
		nodes[leader] = mkNode(leader)
		if err := nodes[leader].Start(true); err != nil {
			b.Fatal(err)
		}
		leader = standby
	}
	b.StopTimer()
	b.ReportMetric(vtotal/float64(b.N), "vsec/promotion")
	for _, n := range nodes {
		n.Kill()
		n.Wait()
	}
}

// BenchmarkStandbyFeedLag measures the standby's steady-state sync
// cost: applying one poll round's feed delta onto an already-warm
// collector. This is the per-round lag a standby carries behind its
// leader — the window of samples a promotion could lose.
func BenchmarkStandbyFeedLag(b *testing.B) {
	clk, cols := benchPair(b)
	leader, standby := cols[0], cols[1]
	if err := leader.Start(); err != nil {
		b.Fatal(err)
	}
	defer leader.Stop()
	clk.Advance(14) // window history to ship

	cur := &collector.FeedCursor{}
	full, err := leader.FeedSince(cur)
	if err != nil {
		b.Fatal(err)
	}
	if err := standby.ApplyFeed(full); err != nil {
		b.Fatal(err)
	}
	// Pre-collect the deltas so the timed loop is apply-only.
	payloads := make([]*collector.FeedPayload, 0, b.N)
	for len(payloads) < b.N {
		clk.Advance(2)
		p, err := leader.FeedSince(cur)
		if err != nil {
			b.Fatal(err)
		}
		if p != nil {
			payloads = append(payloads, p)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for _, p := range payloads {
		if err := standby.ApplyFeed(p); err != nil {
			b.Fatal(err)
		}
	}
}
