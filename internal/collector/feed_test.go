package collector

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// feedRig is a rig with traffic and a few completed poll rounds, so
// feed payloads have real samples to carry.
func feedRig(t testing.TB) *rig {
	t.Helper()
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.Advance(10)
	return r
}

func TestFeedSinceFullThenDelta(t *testing.T) {
	r := feedRig(t)
	cur := &FeedCursor{}

	p, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || !p.Full {
		t.Fatalf("first payload = %+v, want full", p)
	}
	if topo, err := p.Topology(); err != nil || topo == nil {
		t.Fatalf("full payload topology = %v, %v", topo, err)
	}
	if len(p.Channels) == 0 || len(p.Capacity) == 0 {
		t.Fatalf("full payload missing data: %d channels, %d capacities",
			len(p.Channels), len(p.Capacity))
	}
	ver, _ := r.col.DataVersion()
	if p.Epoch != ver {
		t.Fatalf("epoch = %d, want DataVersion %d", p.Epoch, ver)
	}
	total := 0
	for _, s := range p.Channels {
		total += len(s)
	}
	if total == 0 {
		t.Fatal("full payload carries no samples")
	}

	// Nothing new: nil payload.
	p2, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != nil {
		t.Fatalf("no-change payload = %+v, want nil", p2)
	}

	// Two more poll rounds: a delta with exactly the new samples.
	r.clk.Advance(4)
	p3, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == nil || p3.Full {
		t.Fatalf("delta payload = %+v, want non-full", p3)
	}
	for k, s := range p3.Channels {
		if len(s) > 2 {
			t.Fatalf("channel %v delta carries %d samples, want <= 2 poll rounds", k, len(s))
		}
	}
	if p3.Epoch <= p.Epoch {
		t.Fatalf("delta epoch %d not after full epoch %d", p3.Epoch, p.Epoch)
	}
}

// TestFeedSinceDeltaExtendsCleanly replays full + deltas into plain
// windows and checks the result matches the collector's own samples —
// the property the read replica depends on.
func TestFeedSinceDeltaExtendsCleanly(t *testing.T) {
	r := feedRig(t)
	cur := &FeedCursor{}
	got := make(map[ChannelKey][]stats.Sample)
	for i := 0; i < 5; i++ {
		r.clk.Advance(2)
		p, err := r.col.FeedSince(cur)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			for k, s := range p.Channels {
				got[k] = append(got[k], s...)
			}
		}
	}
	topo, _ := r.col.TopologyCtx(context.Background())
	key := keyFor(t, topo, "m-6", "timberline")
	want, err := r.col.SamplesCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[key]) != len(want) {
		t.Fatalf("replayed %d samples, collector holds %d", len(got[key]), len(want))
	}
	for i := range want {
		if got[key][i] != want[i] {
			t.Fatalf("sample %d: replayed %+v, collector %+v", i, got[key][i], want[i])
		}
	}
}

// TestStandbyDeltaApplyIsAtomic: a delta that re-ships the topology and
// carries one out-of-order channel among many must fail and leave the
// standby exactly as it was — every window, the topology, the version.
func TestStandbyDeltaApplyIsAtomic(t *testing.T) {
	r := feedRig(t)
	r.net.SetHostLoad("m-5", 0.25)
	cur := &FeedCursor{}
	standby := New(Config{Clock: r.clk, PollPeriod: 2})
	full, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.ApplyFeed(full); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(4)
	if _, err := r.col.Discover(); err != nil {
		t.Fatal(err)
	}
	delta, err := r.col.FeedSince(cur)
	if err != nil || delta == nil || delta.Full || delta.Topo == nil || len(delta.Channels) < 10 {
		t.Fatalf("delta = %+v, %v; want a topology-carrying delta over many channels", delta, err)
	}
	topo, _ := r.col.TopologyCtx(context.Background())
	bad := keyFor(t, topo, "m-6", "timberline")
	delta.Channels[bad] = []stats.Sample{{Time: 1, Value: 1}} // older than everything applied

	snapshot := func() (*Topology, uint64, *FeedPayload) {
		tp, err := standby.TopologyCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		v, _ := standby.DataVersion()
		standby.mu.Lock()
		defer standby.mu.Unlock()
		return tp, v, standby.st.Payload()
	}
	topoBefore, verBefore, stateBefore := snapshot()
	if err := standby.ApplyFeed(delta); err == nil {
		t.Fatal("delta with an out-of-order channel applied")
	}
	topoAfter, verAfter, stateAfter := snapshot()
	if topoAfter != topoBefore {
		t.Fatal("failed delta swapped the topology")
	}
	if verAfter != verBefore {
		t.Fatalf("failed delta moved DataVersion %d -> %d", verBefore, verAfter)
	}
	if !reflect.DeepEqual(stateAfter, stateBefore) {
		t.Fatal("failed delta left windows, capacities or health changed")
	}
}

// TestFeedStateGenForcesFull: restoring a checkpoint replaces the
// window state wholesale, so an existing cursor must be re-based with
// a full snapshot, not a delta against windows that no longer exist.
func TestFeedStateGenForcesFull(t *testing.T) {
	r := feedRig(t)
	cur := &FeedCursor{}
	if _, err := r.col.FeedSince(cur); err != nil {
		t.Fatal(err)
	}

	f, err := os.CreateTemp(t.TempDir(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.col.SaveCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.col.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || !p.Full {
		t.Fatalf("post-restore payload = %+v, want full re-snapshot", p)
	}
}

// TestRestoreCheckpointWakesWatchers is the warm-restart regression
// test: RestoreCheckpoint must bump DataVersion and notify, so
// version watchers (and feed subscriptions) learn about the state
// replacement instead of silently holding a pre-restart epoch.
func TestRestoreCheckpointWakesWatchers(t *testing.T) {
	r := feedRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	hv, err := r.col.Watch(ctx, WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer hv.Cancel()
	hf, err := r.col.Watch(ctx, WatchRequest{Kind: WatchFeed})
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Cancel()
	first := recvUpdate(t, hv, 2*time.Second) // initial version baseline
	ff := recvUpdate(t, hf, 2*time.Second)
	if ff.Feed == nil || !ff.Feed.Full {
		t.Fatalf("first feed update = %+v, want full payload", ff)
	}

	f, err := os.CreateTemp(t.TempDir(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.col.SaveCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.col.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	u := recvUpdate(t, hv, 2*time.Second)
	if u.Epoch <= first.Epoch {
		t.Fatalf("post-restore version epoch = %d, want > %d", u.Epoch, first.Epoch)
	}
	fu := recvUpdate(t, hf, 2*time.Second)
	if fu.Feed == nil {
		t.Fatalf("post-restore feed update = %+v, want payload", fu)
	}
	if !fu.Feed.Full {
		t.Fatal("post-restore feed update is a delta; state was replaced wholesale, want full")
	}
}

// TestWatchFeedCapabilityRefused: a server over a Source that cannot
// produce feed payloads must refuse the subscription cleanly.
func TestWatchFeedCapabilityRefused(t *testing.T) {
	v := newVersionedFake()
	srv, err := Serve(v, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Watch(context.Background(), WatchRequest{Kind: WatchFeed})
	if err == nil {
		t.Fatal("feed subscription on a feedless source succeeded")
	}
}

// TestFailoverProbeBackoffJitter: consecutive failures must schedule
// re-probes with seeded jitter, not in lockstep — two clients with
// different seeds that watch the same replica die must diverge.
func TestFailoverProbeBackoffJitter(t *testing.T) {
	mk := func(seed int64) *FailoverSource {
		cfg := FailoverConfig{BackoffBase: time.Second, Seed: seed}
		cfg.fill()
		return &FailoverSource{
			cfg:      cfg,
			replicas: []*replica{{addr: "x"}},
			tel:      telemetry.NewRegistry(),
			stop:     make(chan struct{}),
			rng:      rand.New(rand.NewSource(cfg.Seed)),
		}
	}
	offsets := func(f *FailoverSource) []time.Duration {
		var out []time.Duration
		for i := 0; i < 6; i++ {
			before := time.Now()
			f.recordFailure(0, errors.New("boom"))
			out = append(out, f.replicas[0].nextAttempt.Sub(before))
		}
		return out
	}
	a, b := offsets(mk(1)), offsets(mk(2))
	same := true
	for i := range a {
		// The deterministic ladder is 1s,2s,4s,...; jitter must move
		// each step off the exact power of two, within ±25%.
		base := time.Second << uint(i)
		if base > 16*time.Second {
			base = 16 * time.Second
		}
		lo := time.Duration(float64(base) * (1 - DefaultFailoverJitter - 0.05))
		hi := time.Duration(float64(base) * (1 + DefaultFailoverJitter + 0.05))
		if a[i] < lo || a[i] > hi {
			t.Fatalf("seed 1 step %d backoff %v outside [%v, %v]", i, a[i], lo, hi)
		}
		if a[i]/time.Millisecond != b[i]/time.Millisecond {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced identical probe schedules; jitter is not applied")
	}
	// Same seed must reproduce exactly (determinism for tests).
	c, d := offsets(mk(7)), offsets(mk(7))
	for i := range c {
		if c[i]-d[i] > time.Millisecond || d[i]-c[i] > time.Millisecond {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, c[i], d[i])
		}
	}
}

// TestStaleReplicaOverWire: an ErrStaleReplica from a source must cross
// the wire as the typed error (code path: appError -> codeStale ->
// decodeResponse).
func TestStaleReplicaOverWire(t *testing.T) {
	v := &staleFake{}
	srv, err := Serve(v, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.TopologyCtx(context.Background()); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("Topology err = %v, want ErrStaleReplica", err)
	}
	if _, err := cl.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 0); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("Utilization err = %v, want ErrStaleReplica", err)
	}
}

// staleFake refuses everything with ErrStaleReplica, like a fenced
// replica.
type staleFake struct{ fakeSource }

func (s *staleFake) TopologyCtx(ctx context.Context) (*Topology, error) { return nil, ErrStaleReplica }
func (s *staleFake) UtilizationCtx(context.Context, ChannelKey, float64) (stats.Stat, error) {
	return stats.NoData(), ErrStaleReplica
}
