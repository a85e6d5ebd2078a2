package remos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
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

// TestMatrixReplicaSetUnderLoad drives a two-replica set the way a
// fleet of clients does: four failover handles whose shuffled routing
// orders cover both replicas, eight goroutines, and a seeded half and
// half mix of 8×8 matrices and point reads. The virtual clock stands
// still, so every answer must equal the in-process one bit for bit. An
// op that hangs fails on its own deadline, and outside -race the point
// reads' p99.9 stays within 250 ms.
func TestMatrixReplicaSetUnderLoad(t *testing.T) {
	const (
		handles      = 4 // FailoverConfig seeds 1–4: two prefer each replica
		workers      = 8
		opsPerWorker = 400
		span         = 10
		opTimeout    = 5 * time.Second
		p999Bound    = 250 * time.Millisecond
	)
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(30)
	reps, err := tb.ServeReplicas(2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.Addr()
		defer r.Close()
	}

	ctx := context.Background()
	hosts := tb.Hosts()
	wantMatrix, err := tb.Modeler.QueryMatrixCtx(ctx, hosts, hosts, core.TFHistory(span))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := tb.Collector.TopologyCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var keys []remos.ChannelKey
	for _, l := range topo.Graph.Links() {
		keys = append(keys, topo.Key(l, graph.AtoB), topo.Key(l, graph.BtoA))
	}
	wantUtil := make([]remos.Stat, len(keys))
	for i, k := range keys {
		if wantUtil[i], err = tb.Collector.UtilizationCtx(ctx, k, span); err != nil {
			t.Fatal(err)
		}
	}
	srcs := make([]*collector.FailoverSource, handles)
	for i := range srcs {
		if srcs[i], err = collector.DialFailover(addrs, collector.FailoverConfig{Shuffle: true, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		defer srcs[i].Close()
	}

	// drive issues one worker's ops in order and returns the point reads'
	// latencies, how many ops were refused, and the first failure.
	drive := func(src *collector.FailoverSource, rng *rand.Rand) (lat []time.Duration, refused int, err error) {
		for i := 0; i < opsPerWorker; i++ {
			opCtx, cancel := context.WithTimeout(ctx, opTimeout)
			start := time.Now()
			var same bool
			if rng.Intn(2) == 0 {
				var got *remos.MatrixAnswer
				got, err = src.MatrixQuery(opCtx, &remos.MatrixRequest{Srcs: hosts, Dsts: hosts, TFKind: int(core.History), Span: span})
				same = err == nil && sameMatrix(got, wantMatrix)
			} else {
				k := rng.Intn(len(keys))
				var got remos.Stat
				got, err = src.UtilizationCtx(opCtx, keys[k], span)
				lat = append(lat, time.Since(start))
				same = err == nil && got == wantUtil[k]
			}
			cancel()
			switch {
			case err == nil && !same:
				return lat, refused, fmt.Errorf("op %d: answer differs from the in-process one", i)
			case err == nil:
			case remos.IsLifecycleError(err) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, remos.ErrDeadlineExceeded):
				refused++
			default:
				return lat, refused, fmt.Errorf("op %d: %w", i, err)
			}
		}
		return lat, refused, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lat      []time.Duration
		refusals int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, refused, err := drive(srcs[w%handles], rand.New(rand.NewSource(int64(w+1))))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			mu.Lock()
			lat = append(lat, l...)
			refusals += refused
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	calls := map[string]uint64{}
	for _, src := range srcs {
		for _, st := range src.Replicas() {
			calls[st.Addr] += st.Calls
		}
	}
	for _, a := range addrs {
		if calls[a] == 0 {
			t.Errorf("replica %s answered no calls: %v", a, calls)
		}
	}
	if len(lat) == 0 {
		t.Fatal("no point reads were issued")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p999 := lat[(len(lat)-1)*999/1000]
	t.Logf("%d point reads: p50 %v, p99.9 %v; %d refusals; calls per replica %v",
		len(lat), lat[len(lat)/2], p999, refusals, calls)
	if !raceEnabled && p999 > p999Bound {
		t.Errorf("point-read p99.9 %v, want at most %v", p999, p999Bound)
	}
}

// sameMatrix reports whether a wire answer equals the in-process one
// in every cell and in its epoch, floats compared by their bits.
func sameMatrix(got *remos.MatrixAnswer, want *core.MatrixInfo) bool {
	if got.Epoch != want.Epoch || len(got.Bandwidth) != len(want.Bandwidth) {
		return false
	}
	for i := range got.Bandwidth {
		if len(got.Bandwidth[i]) != len(want.Bandwidth[i]) {
			return false
		}
		for j := range got.Bandwidth[i] {
			if got.Valid[i][j] != want.Valid[i][j] ||
				math.Float64bits(got.Bandwidth[i][j]) != math.Float64bits(want.Bandwidth[i][j]) ||
				math.Float64bits(got.Latency[i][j]) != math.Float64bits(want.Latency[i][j]) {
				return false
			}
		}
	}
	return true
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
