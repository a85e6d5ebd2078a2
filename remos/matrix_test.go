package remos_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/remos"
)

// TestMatrixOverWire proves the matrix op crosses the wire unchanged: a
// modeler over a dialed client forwards the whole batch as one "matrix"
// frame, and the answer is entry-for-entry identical to the local
// kernel over the same collector — same floats, same validity, same
// epoch stamp.
func TestMatrixOverWire(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.StartCBR("m-1", "m-4", 25e6)
	tb.Run(30)
	addr, shutdown, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	src, err := remos.DialCollector(addr)
	if err != nil {
		t.Fatal(err)
	}

	remote := remos.NewModeler(remos.Config{Source: src})
	local := remos.NewModeler(remos.Config{Source: tb.Collector})
	hosts := tb.Hosts()
	tf := remos.TFHistory(20)

	rm, err := remote.QueryMatrix(hosts, hosts, tf)
	if err != nil {
		t.Fatalf("matrix over wire: %v", err)
	}
	lm, err := local.QueryMatrix(hosts, hosts, tf)
	if err != nil {
		t.Fatalf("matrix locally: %v", err)
	}
	if rm.Epoch == 0 || rm.Epoch != lm.Epoch {
		t.Fatalf("epoch over wire %d, local %d; want equal and nonzero", rm.Epoch, lm.Epoch)
	}
	for i := range hosts {
		for j := range hosts {
			if rm.Valid[i][j] != lm.Valid[i][j] ||
				rm.Bandwidth[i][j] != lm.Bandwidth[i][j] ||
				rm.Latency[i][j] != lm.Latency[i][j] {
				t.Fatalf("entry (%s,%s): wire (%v %v %v) != local (%v %v %v)",
					hosts[i], hosts[j],
					rm.Bandwidth[i][j], rm.Latency[i][j], rm.Valid[i][j],
					lm.Bandwidth[i][j], lm.Latency[i][j], lm.Valid[i][j])
			}
			if !rm.Valid[i][j] {
				t.Fatalf("entry (%s,%s) invalid on a healthy testbed", hosts[i], hosts[j])
			}
		}
	}

	// Rectangular N×M shape survives the round trip.
	srcs, dsts := hosts[:3], hosts[3:]
	rect, err := remote.QueryMatrix(srcs, dsts, tf)
	if err != nil {
		t.Fatalf("rectangular matrix over wire: %v", err)
	}
	if len(rect.Bandwidth) != len(srcs) || len(rect.Bandwidth[0]) != len(dsts) {
		t.Fatalf("rectangular shape %dx%d, want %dx%d",
			len(rect.Bandwidth), len(rect.Bandwidth[0]), len(srcs), len(dsts))
	}
}

// TestMatrixAdmissionRefusal proves a matrix is priced by its area: a
// batch whose weight the server's admission gate can never grant is
// refused with the typed, non-retryable ErrMatrixTooLarge — before any
// computation — while small matrices keep flowing through the same
// gate.
func TestMatrixAdmissionRefusal(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(10)

	mod := core.New(core.Config{Source: tb.Collector})
	srv, err := collector.ServeConfig(tb.Collector, "127.0.0.1:0", collector.ServerConfig{
		MaxInflight: 4, // weight 17 of a 64×64 batch can never be granted
		Matrix:      core.MatrixHandler(mod),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dialed, err := remos.DialCollector(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	src := dialed.(remos.MatrixSource)

	big := make([]remos.NodeID, 64)
	for i := range big {
		big[i] = remos.NodeID(fmt.Sprintf("h-%d", i))
	}
	ctx := context.Background()
	_, err = src.MatrixQuery(ctx, &remos.MatrixRequest{Srcs: big, Dsts: big, TFKind: 1})
	if !errors.Is(err, remos.ErrMatrixTooLarge) {
		t.Fatalf("64x64 batch against a 4-unit gate: err = %v, want ErrMatrixTooLarge", err)
	}
	if remos.IsLifecycleError(err) {
		t.Fatalf("ErrMatrixTooLarge must be authoritative, not a retryable lifecycle refusal: %v", err)
	}

	hosts := tb.Hosts()[:2]
	if _, err := src.MatrixQuery(ctx, &remos.MatrixRequest{Srcs: hosts, Dsts: hosts, TFKind: 1}); err != nil {
		t.Fatalf("small matrix through the same gate: %v", err)
	}

	// The absolute cell cap refuses independently of the gate.
	capped, err := collector.ServeConfig(tb.Collector, "127.0.0.1:0", collector.ServerConfig{
		MaxMatrixCells: 16,
		Matrix:         core.MatrixHandler(mod),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	cdialed, err := remos.DialCollector(capped.Addr())
	if err != nil {
		t.Fatal(err)
	}
	csrc := cdialed.(remos.MatrixSource)
	five := tb.Hosts()[:5]
	if _, err := csrc.MatrixQuery(ctx, &remos.MatrixRequest{Srcs: five, Dsts: five, TFKind: 1}); !errors.Is(err, remos.ErrMatrixTooLarge) {
		t.Fatalf("5x5 batch against MaxMatrixCells 16: err = %v, want ErrMatrixTooLarge", err)
	}
}

// TestMatrixFencedReplica proves the matrix op honors replica staleness
// fencing: a read replica serves matrices while its feed is fresh and
// refuses them with the typed ErrStaleReplica once the feed dies and
// the fence trips — the serving modeler re-checks freshness per call,
// cached snapshot or not.
func TestMatrixFencedReplica(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(20)

	feedSrv, err := collector.ServeConfig(tb.Collector, "127.0.0.1:0", collector.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr:      feedSrv.Addr(),
		MaxStaleness:  400 * time.Millisecond,
		LagThreshold:  150 * time.Millisecond,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          1,
	})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatalf("replica never synced: %v", err)
	}
	repAddr, repStop, err := remos.ServeSource(rep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repStop()
	rdialed, err := remos.DialCollector(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	src := rdialed.(remos.MatrixSource)

	hosts := tb.Hosts()[:4]
	mi, err := src.MatrixQuery(ctx, &remos.MatrixRequest{Srcs: hosts, Dsts: hosts, TFKind: 2, Span: 10})
	if err != nil {
		t.Fatalf("matrix from a fresh replica: %v", err)
	}
	if mi.Epoch == 0 {
		t.Fatal("replica-served matrix missing epoch stamp")
	}

	feedSrv.Close()
	waitUntil(t, 5*time.Second, "replica fenced", func() bool {
		return rep.State() == remos.ReplicaFenced
	})
	_, err = src.MatrixQuery(ctx, &remos.MatrixRequest{Srcs: hosts, Dsts: hosts, TFKind: 2, Span: 10})
	if !errors.Is(err, remos.ErrStaleReplica) {
		t.Fatalf("matrix from a fenced replica: err = %v, want ErrStaleReplica", err)
	}
}

// BenchmarkMatrixWire measures the wire-level win the matrix op exists
// for: answering an 8×8 flow matrix as one batched round trip versus
// 2·8·7 scalar round trips (bandwidth and latency per pair — what the
// old per-pair surface cost a remote consumer). The batched op's p99 is
// reported as p99_ms and gated by scripts/bench.sh -compare.
func BenchmarkMatrixWire(b *testing.B) {
	tb, err := remos.NewTestbed()
	if err != nil {
		b.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(30)
	addr, shutdown, err := tb.ServeCollector("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	src, err := remos.DialCollector(addr)
	if err != nil {
		b.Fatal(err)
	}
	mod := remos.NewModeler(remos.Config{Source: src})
	hosts := tb.Hosts()
	tf := remos.TFHistory(20)
	ctx := context.Background()

	b.Run("per-pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range hosts {
				for _, d := range hosts {
					if s == d {
						continue
					}
					if _, err := mod.AvailableBandwidthCtx(ctx, s, d, tf); err != nil {
						b.Fatal(err)
					}
					if _, err := mod.PathLatencyCtx(ctx, s, d); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("matrix", func(b *testing.B) {
		b.ReportAllocs()
		lat := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := mod.QueryMatrixCtx(ctx, hosts, hosts, tf); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		}
		sort.Float64s(lat)
		b.ReportMetric(lat[(len(lat)-1)*99/100], "p99_ms")
	})
}
