package replica

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// TestReplicaEqualsCollectorAcrossWrap drives 700 epochs through
// collector → feed → replica, past the 512-sample window length, and
// requires the replica to answer exactly what the collector answers at
// every epoch checked: samples and quartiles bit for bit, on every
// channel and host. Two apply failures are injected on the way: a delta
// that dies half-way and is applied again from the same store (windows
// the failed attempt already appended to are no longer at the tip), and
// one followed by a resync from a Full payload.
func TestReplicaEqualsCollectorAcrossWrap(t *testing.T) {
	r := newRig(t)
	traffic.OnOff(r.net, "m-1", "m-7", traffic.OnOffConfig{Rate: 30e6, MeanOn: 6, MeanOff: 4, Seed: 7})
	traffic.OnOff(r.net, "m-5", "m-2", traffic.OnOffConfig{Rate: 20e6, MeanOn: 3, MeanOff: 9, Seed: 8})
	r.net.SetHostLoad("m-5", 0.25)

	rep := New(Config{MaxStaleness: -1, Seed: 1})
	wall := time.Unix(1000, 0)
	rep.now = func() time.Time { return wall } // ages are then the collector's own
	cur := &collector.FeedCursor{}
	feed := func() *collector.FeedPayload {
		t.Helper()
		p, err := r.col.FeedSince(cur)
		if err != nil || p == nil {
			t.Fatalf("FeedSince: %v, %v", p, err)
		}
		return p
	}
	if err := rep.apply(feed()); err != nil {
		t.Fatal(err)
	}
	topo, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sameStat := func(a, b stats.Stat) bool {
		f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		return f(a.Min, b.Min) && f(a.Q1, b.Q1) && f(a.Median, b.Median) && f(a.Q3, b.Q3) && f(a.Max, b.Max) &&
			f(a.Accuracy, b.Accuracy) && f(a.Age, b.Age) && a.Samples == b.Samples
	}
	compare := func(epoch int) {
		t.Helper()
		if got, _ := rep.DataVersion(); got != mustVersion(r.col) {
			t.Fatalf("epoch %d: replica at version %d, collector at %d", epoch, got, mustVersion(r.col))
		}
		for _, l := range topo.Graph.Links() {
			for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
				k := topo.Key(l, d)
				want, err1 := r.col.SamplesCtx(context.Background(), k)
				got, err2 := rep.SamplesCtx(context.Background(), k)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d %v: replica has %d samples, collector %d (%v, %v)", epoch, k, len(got), len(want), err2, err1)
				}
				for _, span := range []float64{0, 10, 120, 2000} {
					want, _ := r.col.UtilizationCtx(context.Background(), k, span)
					got, _ := rep.UtilizationCtx(context.Background(), k, span)
					if !sameStat(got, want) {
						t.Fatalf("epoch %d %v span %v: replica %+v, collector %+v", epoch, k, span, got, want)
					}
				}
			}
		}
		for _, id := range topo.Graph.ComputeNodes() {
			want, err1 := r.col.HostLoadCtx(context.Background(), id, 60)
			got, err2 := rep.HostLoadCtx(context.Background(), id, 60)
			if (err1 == nil) != (err2 == nil) || !sameStat(got, want) {
				t.Fatalf("epoch %d host %s: replica %+v (%v), collector %+v (%v)", epoch, id, got, err2, want, err1)
			}
		}
	}

	// poisoned returns p with its last channel's newest sample made
	// non-finite: Extend extends every window before it, then fails on
	// that one.
	poisoned := func(p *collector.FeedPayload) *collector.FeedPayload {
		cp := *p
		cp.Channels = slices.Clone(p.Channels)
		last := &cp.Channels[len(cp.Channels)-1]
		last.Samples = slices.Clone(last.Samples)
		last.Samples[len(last.Samples)-1].Value = math.NaN()
		return &cp
	}

	for epoch := 1; epoch <= 700; epoch++ {
		r.clk.Advance(2)
		p := feed()
		switch epoch {
		case 300, 650:
			// Half-applied, then applied again from the same store.
			before := rep.cur.Load()
			if err := rep.apply(poisoned(p)); err == nil {
				t.Fatal("poisoned delta applied")
			}
			if rep.cur.Load() != before {
				t.Fatal("a failed apply published a store")
			}
		case 600:
			// Half-applied, then the replica's real recovery: a fresh
			// subscription, whose first payload is Full.
			if err := rep.apply(poisoned(p)); err == nil {
				t.Fatal("poisoned delta applied")
			}
			cur = &collector.FeedCursor{}
			if p = feed(); !p.Full {
				t.Fatal("fresh cursor did not get a Full payload")
			}
		}
		if err := rep.apply(p); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if epoch%50 == 0 || epoch == 301 || epoch == 601 || (epoch > 505 && epoch < 520) {
			compare(epoch)
		}
	}
	// The window wrapped: the collector has dropped samples, and so has
	// the replica, by the same count.
	k := topo.Key(topo.Graph.Links()[0], graph.AtoB)
	if got, _ := rep.SamplesCtx(context.Background(), k); len(got) != 512 {
		t.Fatalf("window holds %d samples after 700 epochs, want 512", len(got))
	}
}

func mustVersion(c *collector.Collector) uint64 {
	v, _ := c.DataVersion()
	return v
}

// hier300Rig is a collector over topogen hier-300 (the benchmark's large
// fixture) with full 512-sample windows.
func hier300Rig(t testing.TB) *rig {
	t.Helper()
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRigOn(t, tp.Graph)
	r.clk.Advance(1100)
	return r
}

// BenchmarkReplicaApplyDelta measures applying one epoch's delta — one
// sample per channel and host — to a hier-300 store whose windows are
// full. B/op is the point: the successor store shares its windows'
// storage with the one it replaces.
func BenchmarkReplicaApplyDelta(b *testing.B) {
	b.Run("hier300", func(b *testing.B) {
		r := hier300Rig(b)
		cur := &collector.FeedCursor{}
		p, err := r.col.FeedSince(cur)
		if err != nil {
			b.Fatal(err)
		}
		st, err := collector.StateFromPayload(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r.clk.Advance(2)
			if p, err = r.col.FeedSince(cur); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if st, err = st.Extend(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestApplyDeltaCopiesNoWindow: on hier-300 with full windows, a
// one-sample-per-channel delta allocates a small constant per window it
// touches (its header in the slab, amortised chunk share) — not the
// window's 8 KiB.
func TestApplyDeltaCopiesNoWindow(t *testing.T) {
	r := hier300Rig(t)
	cur := &collector.FeedCursor{}
	p, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	st, err := collector.StateFromPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 64 // two chunk lengths, so chunk allocations are averaged in
	var total uint64
	windows := 0
	for i := 0; i < rounds; i++ {
		r.clk.Advance(2)
		if p, err = r.col.FeedSince(cur); err != nil {
			t.Fatal(err)
		}
		windows = len(p.Channels) + len(p.Loads)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if st, err = st.Extend(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if windows < 500 {
		t.Fatalf("delta touches %d windows: not the hier-300 fixture", windows)
	}
	// The copied slot slices are the window headers' one slab, 72 B a
	// window, and a chunk every 32 samples adds ~20 B an epoch: 120 B
	// measured. A window copy would add 8,192 B per touched window.
	perWindow := float64(total) / rounds / float64(windows)
	if perWindow > 144 { // 1.2 x the 120 measured
		t.Fatalf("Extend allocates %.0f B per touched window per epoch", perWindow)
	}
}
