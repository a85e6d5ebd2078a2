package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
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

// TestMatrixEquivalencePerPair pins the kernel's core contract: the
// batched DP sweep produces byte-identical medians and latencies to the
// per-pair fold, for every timeframe kind, on the Figure 3 testbed
// under asymmetric load.
func TestMatrixEquivalencePerPair(t *testing.T) {
	r := testbedRig(t)
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	traffic.Blast(r.net, "m-1", "m-4", 25e6)
	r.clk.RunUntil(30)

	ctx := context.Background()
	hosts := rigHosts(t, r)
	if len(hosts) != 8 {
		t.Fatalf("testbed hosts = %d, want 8", len(hosts))
	}
	for _, tf := range []Timeframe{TFCapacity(), TFCurrent(), TFHistory(20), TFFuture(10)} {
		mi, err := r.mod.QueryMatrixCtx(ctx, hosts, hosts, tf)
		if err != nil {
			t.Fatalf("%v: matrix: %v", tf.Kind, err)
		}
		for i, src := range hosts {
			for j, dst := range hosts {
				if !mi.Valid[i][j] {
					t.Fatalf("%v: entry %s->%s invalid on a fully connected testbed", tf.Kind, src, dst)
				}
				if src == dst {
					if !math.IsInf(mi.Bandwidth[i][j], 1) || mi.Latency[i][j] != 0 {
						t.Fatalf("%v: diagonal %s = bw %v lat %v", tf.Kind, src, mi.Bandwidth[i][j], mi.Latency[i][j])
					}
					continue
				}
				st, err := r.mod.AvailableBandwidthCtx(ctx, src, dst, tf)
				if err != nil {
					t.Fatalf("%v: per-pair %s->%s: %v", tf.Kind, src, dst, err)
				}
				if mi.Bandwidth[i][j] != st.Median {
					t.Fatalf("%v: %s->%s matrix bw %v != per-pair %v",
						tf.Kind, src, dst, mi.Bandwidth[i][j], st.Median)
				}
				lat, err := r.mod.PathLatencyCtx(ctx, src, dst)
				if err != nil {
					t.Fatalf("%v: per-pair latency %s->%s: %v", tf.Kind, src, dst, err)
				}
				if mi.Latency[i][j] != lat.Median {
					t.Fatalf("%v: %s->%s matrix latency %v != per-pair %v",
						tf.Kind, src, dst, mi.Latency[i][j], lat.Median)
				}
			}
		}
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
	clk := simclock.New()
	net, err := netsim.New(clk, topology.Testbed())
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
		DownAfter:     2,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	mod := New(Config{Source: col})
	r := &rig{clk: clk, net: net, col: col, mod: mod}

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
// pools, the tree memo, and the row worker pool.
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

// BenchmarkMatrixKernel is the tentpole ablation: a 64-host flow matrix
// via the per-pair scalar loop (the old BandwidthMatrixCtx+LatencyMatrix
// shape — one bandwidth and one latency answer per pair) versus the
// batched single-snapshot kernel producing the same two planes in one
// call. The kernel must show ≥5× lower latency and ≥10× fewer
// allocs/op.
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
}
