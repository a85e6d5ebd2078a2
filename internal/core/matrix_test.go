package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// rigHosts enumerates the rig's compute nodes from the collector's map.
func rigHosts(t testing.TB, r *rig) []graph.NodeID {
	t.Helper()
	topo, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return topo.Graph.ComputeNodes()
}

// TestMatrixEquivalencePerPair pins the kernel's core contract: every
// entry of the batched sweep — Valid, and the bits of Bandwidth and
// Latency — equals the per-pair AvailableBandwidthCtx/PathLatencyCtx
// answer (a per-pair error reads as a zero, invalid entry), for every
// timeframe kind, on three rigs:
//
//   - the Figure 3 testbed under asymmetric load;
//   - Figure 1 with switch internal bandwidths below the host links and
//     a load that pushes some channels below them, so the router cap
//     binds on some paths and not on others;
//   - a generated hier topology with one router agent dark from t=5 and
//     a node the collector does not know in the request (its row and
//     column are invalid).
func TestMatrixEquivalencePerPair(t *testing.T) {
	cases := []struct {
		name     string
		allValid bool // every host reaches every other
		setup    func(t *testing.T) (*rig, []graph.NodeID)
	}{
		{"figure3", true, func(t *testing.T) (*rig, []graph.NodeID) {
			r := testbedRig(t)
			traffic.Blast(r.net, "m-6", "m-8", 60e6)
			traffic.Blast(r.net, "m-1", "m-4", 25e6)
			r.clk.RunUntil(30)
			return r, rigHosts(t, r)
		}},
		{"figure1-capped", true, func(t *testing.T) (*rig, []graph.NodeID) {
			cfg := topology.Figure1FastSwitches()
			cfg.InternalAMbps, cfg.InternalBMbps = 9, 9.5
			r := newRig(t, topology.Figure1(cfg), nil)
			traffic.Blast(r.net, "n1", "n5", 8e6)
			traffic.Blast(r.net, "n6", "n2", 5e6)
			r.clk.RunUntil(30)
			return r, rigHosts(t, r)
		}},
		{"hier-blackholed", false, func(t *testing.T) (*rig, []graph.NodeID) {
			tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 60, Seed: 3, Regions: 1})
			if err != nil {
				t.Fatal(err)
			}
			hosts := tp.Graph.ComputeNodes()
			var router graph.NodeID
			for _, id := range tp.Graph.Nodes() {
				if tp.Graph.Node(id).Kind == graph.Network {
					router = id
					break
				}
			}
			r, inj := newFaultRig(t, tp.Graph, 0)
			inj.Blackhole(snmp.Addr(router), 5, 0)
			for i := 0; i+1 < len(hosts); i += 7 {
				traffic.Blast(r.net, hosts[i], hosts[i+1], 3e6*float64(1+i%4))
			}
			r.clk.RunUntil(30)
			return r, append(hosts, "ghost-host")
		}},
	}
	ctx := context.Background()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, hosts := c.setup(t)
			topo, err := r.col.TopologyCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			caps := map[float64]bool{}
			for _, id := range topo.Graph.Nodes() {
				if bw := topo.Graph.Node(id).InternalBW; bw > 0 {
					caps[bw] = true
				}
			}
			var invalid, capped, uncapped int
			for _, tf := range []Timeframe{TFCapacity(), TFCurrent(), TFHistory(20), TFFuture(10)} {
				mi, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, tf)
				if err != nil {
					t.Fatalf("%v: matrix: %v", tf.Kind, err)
				}
				for i, src := range hosts {
					for j, dst := range hosts {
						st, err := r.mod.AvailableBandwidthCtx(ctx, src, dst, tf)
						if err != nil {
							st = stats.NoData()
						}
						lat, err := r.mod.PathLatencyCtx(ctx, src, dst)
						if err != nil {
							lat = stats.NoData()
						}
						if mi.Valid[i][j] != st.Valid() || !same(mi.Bandwidth[i][j], st.Median) ||
							!same(mi.Latency[i][j], lat.Median) {
							t.Fatalf("%v: %s->%s matrix (valid %v, bw %v, lat %v) != per-pair (valid %v, bw %v, lat %v)",
								tf.Kind, src, dst, mi.Valid[i][j], mi.Bandwidth[i][j], mi.Latency[i][j],
								st.Valid(), st.Median, lat.Median)
						}
						if !mi.Valid[i][j] {
							if c.allValid {
								t.Fatalf("%v: entry %s->%s invalid on a fully connected rig", tf.Kind, src, dst)
							}
							invalid++
						}
						if st.Valid() && src != dst {
							if caps[st.Median] {
								capped++
							} else {
								uncapped++
							}
						}
					}
				}
			}
			t.Logf("%d hosts: %d invalid entries, %d bound by a router cap, %d by a channel", len(hosts), invalid, capped, uncapped)
			switch c.name {
			case "figure1-capped":
				if capped == 0 || uncapped == 0 {
					t.Fatal("the cap binds on all paths or on none: the rig does not exercise the cap step")
				}
			case "hier-blackholed":
				if invalid == 0 {
					t.Fatal("no invalid entry: the rig does not exercise validity")
				}
			}
		})
	}
}

// TestMatrixEpochAndLatencyCtx pins the snapshot stamping satellite:
// matrix answers carry the same epoch the graph answer reports, repeat
// answers reuse the snapshot, Refresh moves the epoch, and
// LatencyMatrixCtx/BandwidthMatrixCtx agree with the full kernel.
func TestMatrixEpochAndLatencyCtx(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	ctx := context.Background()
	hosts := rigHosts(t, r)

	g, err := r.mod.GetGraphCtx(ctx, nil, TFHistory(5))
	if err != nil {
		t.Fatal(err)
	}
	mi, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, TFHistory(5))
	if err != nil {
		t.Fatal(err)
	}
	if mi.Epoch == 0 || mi.Epoch != g.Epoch {
		t.Fatalf("matrix epoch %d, graph epoch %d", mi.Epoch, g.Epoch)
	}
	mi2, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, TFHistory(5))
	if err != nil {
		t.Fatal(err)
	}
	if mi2.Epoch != mi.Epoch {
		t.Fatalf("repeat matrix moved epoch %d -> %d without refresh", mi.Epoch, mi2.Epoch)
	}
	r.mod.Refresh()
	mi3, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, TFHistory(5))
	if err != nil {
		t.Fatal(err)
	}
	if mi3.Epoch <= mi.Epoch {
		t.Fatalf("epoch after Refresh = %d, want > %d", mi3.Epoch, mi.Epoch)
	}

	lat, err := r.mod.LatencyMatrixCtx(ctx, hosts)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := r.mod.BandwidthMatrixCtx(ctx, hosts, TFHistory(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range hosts {
		for j := range hosts {
			if lat[i][j] != mi3.Latency[i][j] {
				t.Fatalf("LatencyMatrixCtx[%d][%d] = %v, kernel %v", i, j, lat[i][j], mi3.Latency[i][j])
			}
			if i != j && bw[i][j] != mi3.Bandwidth[i][j] {
				t.Fatalf("BandwidthMatrixCtx[%d][%d] = %v, kernel %v", i, j, bw[i][j], mi3.Bandwidth[i][j])
			}
		}
	}
}

// TestMatrixPartialValidity pins per-entry degradation: unknown nodes
// and network (non-compute) nodes in the request invalidate exactly
// their rows and columns — the batch itself still answers, and the
// diagonal of a known-but-unroutable source stays valid.
func TestMatrixPartialValidity(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	ctx := context.Background()

	nodes := []graph.NodeID{"m-1", "ghost-node", "timberline", "m-7"}
	mi, err := r.mod.QueryMatrixCtx(ctx, nodes, nodes, TFHistory(5))
	if err != nil {
		t.Fatalf("matrix with bad nodes should degrade per entry, got %v", err)
	}
	for i, src := range nodes {
		for j, dst := range nodes {
			bad := src == "ghost-node" || dst == "ghost-node" ||
				src == "timberline" || dst == "timberline"
			if i == j && src != "ghost-node" && src != "timberline" {
				bad = false
			}
			if i == j && (src == "ghost-node" || src == "timberline") {
				// Diagonal answers Inf/0 even for nodes the matrix
				// cannot route: src==dst needs no route, matching the
				// scalar query's short-circuit.
				if !mi.Valid[i][j] {
					t.Fatalf("diagonal %s invalid", src)
				}
				continue
			}
			if mi.Valid[i][j] == bad {
				t.Fatalf("Valid[%s][%s] = %v, want %v", src, dst, mi.Valid[i][j], !bad)
			}
			if bad && (mi.Bandwidth[i][j] != 0 || mi.Latency[i][j] != 0) {
				t.Fatalf("invalid entry %s->%s not zero-filled: bw %v lat %v",
					src, dst, mi.Bandwidth[i][j], mi.Latency[i][j])
			}
		}
	}
}

// TestMatrixSurvivesAgentDown pins the no-mid-matrix-abort satellite:
// with an agent marked Down (circuit broken, health map reports it) the
// matrix still answers every entry rather than aborting the batch.
func TestMatrixSurvivesAgentDown(t *testing.T) {
	r, inj := newFaultRig(t, topology.Testbed(), 2)
	mod := r.mod

	r.clk.RunUntil(10)
	// Kill m-7's agent and advance past DownAfter consecutive failures.
	inj.Blackhole(snmp.Addr("m-7"), 10, 0)
	r.clk.RunUntil(30)
	if h := mod.Health(); h["m-7"].State != collector.Down {
		t.Fatalf("m-7 health = %v, want Down", h["m-7"].State)
	}

	ctx := context.Background()
	hosts := rigHosts(t, r)
	mi, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, TFCurrent())
	if err != nil {
		t.Fatalf("matrix with a down agent aborted: %v", err)
	}
	for i := range hosts {
		for j := range hosts {
			if !mi.Valid[i][j] {
				t.Fatalf("entry %s->%s invalid: down agents should degrade, not invalidate",
					hosts[i], hosts[j])
			}
		}
	}
}

// TestMatrixConcurrentWithPollRounds hammers the matrix path from many
// goroutines while poll rounds advance the clock and another goroutine
// churns snapshots — run under -race this exercises the shared scratch
// pools, the tree memo, and the snapshot's sweep cache.
func TestMatrixConcurrentWithPollRounds(t *testing.T) {
	r := testbedRig(t)
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(10)

	ctx := context.Background()
	hosts := rigHosts(t, r)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tfs := []Timeframe{TFHistory(10), TFCurrent(), TFCapacity()}
			var lastEpoch uint64
			for i := 0; i < 60; i++ {
				mi, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, tfs[(i+w)%len(tfs)])
				if err != nil {
					errs <- err
					return
				}
				if mi.Epoch < lastEpoch {
					errs <- errEpochBack(w, mi.Epoch, lastEpoch)
					return
				}
				lastEpoch = mi.Epoch
				for a := range hosts {
					for b := range hosts {
						if !mi.Valid[a][b] {
							errs <- errInvalidEntry(hosts[a], hosts[b], mi.Epoch)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			r.mod.Refresh()
		}
	}()
	// Poll rounds run concurrently with the queries, exactly like the
	// real-time daemon's clock driver.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			r.clk.RunUntil(simclock.Time(10 + float64(i)*0.5))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func errEpochBack(w int, got, last uint64) error {
	return &matrixTestErr{s: "epoch went backwards"}
}

func errInvalidEntry(a, b graph.NodeID, epoch uint64) error {
	return &matrixTestErr{s: "unexpected invalid entry " + string(a) + "->" + string(b)}
}

// TestCompiledSweepFootprint pins what the snapshot's sweep cache holds
// per source on the wire-matrix fixture (topogen hier N=300 Seed=11):
// every compiled sweep's slices sized exactly, the interior steps only
// into nodes that forward, and at most 11 kB per sweep, counted as
// element sizes times capacities. A full sweep of 299 steps with its
// reached and latency planes held about 10 kB.
func TestCompiledSweepFootprint(t *testing.T) {
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, tp.Graph, nil)
	s, err := r.mod.snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := s.topo.Graph
	hosts, ids := g.ComputeNodes(), g.Nodes()
	for _, h := range hosts {
		cs := s.sweepAt(s.computeSlot(h), h)
		if cs == nil {
			t.Fatalf("%s: no sweep", h)
		}
		if len(cs.steps) != cap(cs.steps) || len(cs.hops) != cap(cs.hops) || len(cs.hops) != len(s.nodeSlot) {
			t.Fatalf("%s: sweep not sized exactly: %d/%d steps, %d/%d hops for %d nodes",
				h, len(cs.steps), cap(cs.steps), len(cs.hops), cap(cs.hops), len(s.nodeSlot))
		}
		for _, st := range cs.steps {
			if g.Node(ids[st.vSlot]).Kind != graph.Network {
				t.Fatalf("%s: an interior step enters compute node slot %d", h, st.vSlot)
			}
		}
		bytes := int(unsafe.Sizeof(*cs)) + cap(cs.steps)*int(unsafe.Sizeof(compiledStep{})) +
			cap(cs.hops)*int(unsafe.Sizeof(lastHop{}))
		if bytes > 11_000 {
			t.Fatalf("%s: compiled sweep holds %d bytes (%d interior steps, %d hops), want <= 11 kB",
				h, bytes, len(cs.steps), len(cs.hops))
		}
	}
	cs := s.sweepAt(s.computeSlot(hosts[0]), hosts[0])
	t.Logf("%d nodes, %d hosts: %d interior steps, %d bytes per sweep", len(s.nodeSlot), len(hosts), len(cs.steps),
		int(unsafe.Sizeof(*cs))+cap(cs.steps)*int(unsafe.Sizeof(compiledStep{}))+cap(cs.hops)*int(unsafe.Sizeof(lastHop{})))
}

// newFaultRig is newRig with a fault injector between the collector and
// the agents and the collector's DownAfter set.
func newFaultRig(t testing.TB, g *graph.Graph, downAfter int) (*rig, *faults.Injector) {
	t.Helper()
	clk := simclock.New()
	net, err := netsim.New(clk, g)
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)
	inj := faults.New(att.Registry, clk, 1)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := collector.New(collector.Config{
		Client:        snmp.NewClient(inj, snmp.DefaultCommunity),
		Clock:         clk,
		Addrs:         addrs,
		PollPeriod:    1,
		PerHopLatency: topology.PerHopLatency,
		DownAfter:     downAfter,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, net: net, col: col, mod: New(Config{Source: col})}, inj
}

type matrixTestErr struct{ s string }

func (e *matrixTestErr) Error() string { return e.s }

// benchTopo builds a generated topology with at least n hosts and
// returns the rig plus the first n host IDs, with enough simulated
// polling behind it that history queries answer from real windows.
func benchMatrixRig(b *testing.B, n int) (*rig, []graph.NodeID) {
	tp, err := topogen.Generate(topogen.Spec{Kind: "hier", N: 3 * n, Seed: 7, Regions: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := newRig(b, tp.Graph, nil)
	r.clk.RunUntil(5)
	hosts := tp.Graph.ComputeNodes()
	if len(hosts) < n {
		b.Fatalf("generated topology has %d hosts, want >= %d", len(hosts), n)
	}
	return r, hosts[:n]
}

// BenchmarkMatrixKernel is the kernel's ablation: a 64-host flow matrix
// via the per-pair scalar loop (the old BandwidthMatrixCtx+LatencyMatrix
// shape — one bandwidth and one latency answer per pair) versus the
// batched single-snapshot kernel producing the same two planes in one
// call, on a generated hier topology of 192 nodes. The measured rows
// are in BENCH_remos.json and EXPERIMENTS.md ("Matrix sweep on one
// median"). hier300 is the kernel alone on the benchmark module's
// wire-matrix fixture and request: topogen hier N=300 Seed=11, 64
// consecutive hosts, TFHistory(10).
func BenchmarkMatrixKernel(b *testing.B) {
	const n = 64
	r, hosts := benchMatrixRig(b, n)
	ctx := context.Background()
	tf := TFHistory(4)

	b.Run("per-pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range hosts {
				for _, dst := range hosts {
					if src == dst {
						continue
					}
					if _, err := r.mod.AvailableBandwidthCtx(ctx, src, dst, tf); err != nil {
						b.Fatal(err)
					}
					if _, err := r.mod.PathLatencyCtx(ctx, src, dst); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, tf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hier300", func(b *testing.B) {
		tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
		if err != nil {
			b.Fatal(err)
		}
		r := newRig(b, tp.Graph, nil)
		r.clk.RunUntil(20)
		hosts := tp.Graph.ComputeNodes()
		slices.Sort(hosts)
		side := hosts[100 : 100+n]
		// The first query builds the snapshot and compiles the sweeps.
		if _, err := r.mod.QueryMatrixCtx(ctx, side, side, TFHistory(10)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.mod.QueryMatrixCtx(ctx, side, side, TFHistory(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// foldBytes hands out a fuzz input byte by byte, zeros once it runs dry.
type foldBytes []byte

func (b *foldBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value picks a median or a cap: mostly from the values min has special
// rules for, else eight bytes of any float64 but a NaN. Availability
// medians are never NaN (they are clamped to +0 or above), and the
// builtin min and math.Min disagree on a NaN's bits.
func (b *foldBytes) value() float64 {
	special := [...]float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2, 4e6, 1e8}
	c := b.next()
	if int(c) < 2*len(special) {
		return special[int(c)%len(special)]
	}
	var u uint64
	for range 8 {
		u = u<<8 | uint64(b.next())
	}
	if v := math.Float64frombits(u); !math.IsNaN(v) {
		return v
	}
	return 3
}

// FuzzMatrixFold checks one compiled row — compileSweep's interior
// steps and last-hop table, folded by matrixRow over the channel plane —
// against the fold it replaces: full stats.Stats combined with
// stats.MinStat along the tree path, the cap before the channel, and the
// path latency summed in step order. Trees, the source, per-channel
// availabilities and caps (binding or not, +Inf included) come from the
// input. Every channel is valid, as availabilityOf answers
// (TestAvailabilityIsNeverInvalid), with any median but a NaN. Every
// node the tree reaches must read valid with the reference's median and
// latency bit for bit, every other node invalid and zero-filled, and
// the source as the diagonal.
func FuzzMatrixFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 5, 0, 0, 0, 4, 0, 1, 0, 4}) // a cap of 1 below a channel of 2
	f.Add([]byte{5, 3, 1, 2, 0, 7, 1, 1, 2, 0, 3, 0, 0, 0, 4, 1, 1, 2, 2, 0, 1, 1})
	f.Add([]byte{12, 4, 0, 0, 0, 3, 1, 5, 2, 6, 3, 0, 0, 0, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 2, 1, 4, 1, 1, 0, 2, 2, 5})
	f.Add([]byte{9, 2, 0, 200, 64, 0, 0, 0, 0, 0, 0, 0, 1, 9, 1, 0, 0, 0, 1, 0, 1, 1, 8, 2, 1, 0, 0, 1, 0})
	f.Add([]byte{6, 3, 4, 1, 6, 2, 7, 3, 5, 0, 0, 0, 1, 3, 0, 1, 1, 2, 6, 9, 0, 2, 0, 7, 12, 2, 3, 1, 4, 3, 2, 0, 5, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := foldBytes(data)
		nodes := 2 + int(in.next()%30)
		chans := 1 + int(in.next()%16)

		avail := make([]stats.Stat, chans)
		chanMed := make([]float64, chans)
		for k := range avail {
			kind := in.next()
			avail[k] = stats.Exact(in.value())
			avail[k].Samples = 1 + int(kind%5)
			avail[k].Accuracy = float64(kind) / 255
			chanMed[k] = avail[k].Median
		}

		// Every node but the source joins the tree under a node already
		// in it, or stays out of it (unreachable). A node some step
		// hangs under forwards, like a router; the rest are leaves, like
		// hosts.
		src := int32(in.next()) % int32(nodes)
		var edges []sweepEdge
		var capped []bool
		inTree := []int32{src}
		for v := int32(0); v < int32(nodes); v++ {
			if v == src {
				continue
			}
			c := in.next()
			if c%8 == 7 {
				continue
			}
			e := sweepEdge{compiledStep: compiledStep{
				pSlot:     inTree[int(in.next())%len(inTree)],
				vSlot:     v,
				availSlot: int32(int(in.next()) % chans),
				limit:     math.Inf(1),
			}, latency: float64(in.next()) / 1e3}
			binds := false
			if c%3 == 0 {
				if lim := in.value(); lim > 0 {
					binds, e.limit = true, lim
				}
			}
			edges = append(edges, e)
			capped = append(capped, binds)
			inTree = append(inTree, v)
		}

		cs := compileSweep(src, nodes, edges)
		if len(cs.steps) != cap(cs.steps) || len(cs.hops) != nodes || cap(cs.hops) != nodes {
			t.Fatalf("compiled sweep not sized exactly: %d/%d steps, %d/%d hops for %d nodes",
				len(cs.steps), cap(cs.steps), len(cs.hops), cap(cs.hops), nodes)
		}
		ids := make([]graph.NodeID, nodes)
		dstSlots := make([]int32, nodes)
		for v := range ids {
			ids[v] = graph.NodeID(fmt.Sprint("n", v))
			dstSlots[v] = int32(v)
		}
		out := &MatrixInfo{
			Bandwidth: [][]float64{make([]float64, nodes)},
			Latency:   [][]float64{make([]float64, nodes)},
			Valid:     [][]bool{make([]bool, nodes)},
		}
		rs := &rowScratch{med: make([]float64, nodes)}
		for i := range rs.med { // what an earlier row left behind
			rs.med[i] = -1
		}
		matrixRow(chanMed, rs, cs, ids[src], ids, dstSlots, out, 0)

		ref := make([]stats.Stat, nodes)
		lat := make([]float64, nodes)
		reached := make([]bool, nodes)
		ref[src] = stats.NoData()
		for k, e := range edges {
			base := ref[e.pSlot]
			if capped[k] {
				base = stats.MinStat(base, stats.Exact(e.limit))
			}
			ref[e.vSlot] = stats.MinStat(base, avail[e.availSlot])
			lat[e.vSlot] = lat[e.pSlot] + e.latency
			reached[e.vSlot] = true
		}
		bw, gotLat, ok := out.Bandwidth[0], out.Latency[0], out.Valid[0]
		for v := range nodes {
			switch {
			case int32(v) == src:
				if !ok[v] || !math.IsInf(bw[v], 1) || gotLat[v] != 0 {
					t.Fatalf("source %d: valid %v, bw %v, lat %v; want the diagonal", v, ok[v], bw[v], gotLat[v])
				}
			case !reached[v]:
				if ok[v] || bw[v] != 0 || gotLat[v] != 0 {
					t.Fatalf("unreached node %d: valid %v, bw %v, lat %v; want invalid and zero", v, ok[v], bw[v], gotLat[v])
				}
			default:
				want := ref[v]
				if !want.Valid() || !ok[v] {
					t.Fatalf("reached node %d: row valid %v, MinStat fold %v", v, ok[v], want)
				}
				if math.Float64bits(bw[v]) != math.Float64bits(want.Median) {
					t.Fatalf("node %d: row median %v (%#x), MinStat fold %v (%#x)",
						v, bw[v], math.Float64bits(bw[v]), want.Median, math.Float64bits(want.Median))
				}
				if math.Float64bits(gotLat[v]) != math.Float64bits(lat[v]) {
					t.Fatalf("node %d: row latency %v, summed in step order %v", v, gotLat[v], lat[v])
				}
			}
		}
	})
}
