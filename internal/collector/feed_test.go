package collector

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
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
	for _, e := range p.Channels {
		total += len(e.Samples)
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
	for _, e := range p3.Channels {
		if len(e.Samples) > 2 {
			t.Fatalf("channel %v delta carries %d samples, want <= 2 poll rounds", e.Key, len(e.Samples))
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
			for _, e := range p.Channels {
				got[e.Key] = append(got[e.Key], e.Samples...)
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
	for i := range delta.Channels {
		if delta.Channels[i].Key == bad {
			delta.Channels[i].Samples = []stats.Sample{{Time: 1, Value: 1}} // older than everything applied
		}
	}

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
	srv, err := ServeConfig(v, "127.0.0.1:0", ServerConfig{})
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
	srv, err := ServeConfig(v, "127.0.0.1:0", ServerConfig{})
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

// TestFeedDeltaAllocBudget: one epoch's replication on hier-300, from
// FeedSince through the wire body to a replica's Extend, allocates per
// section and per chunk of window storage, not per window: with the
// state, the cursor and the payload sections held in maps it took
// 2,535.
func TestFeedDeltaAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes what allocates")
	}
	r := hierRig(t, 32)
	cur := &FeedCursor{}
	full, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StateFromPayload(full)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	const epochs = 64 // two chunk lengths, so chunk allocations are averaged in
	var mallocs uint64
	for i := 0; i < epochs; i++ {
		r.clk.Advance(2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := r.col.FeedSince(cur)
		if err != nil || p == nil || p.Full {
			t.Fatalf("epoch %d: FeedSince = %+v, %v; want a delta", i, p, err)
		}
		body = AppendFeedPayload(body[:0], p)
		if p, err = DecodeFeedPayload(body); err != nil {
			t.Fatal(err)
		}
		if st, err = st.Extend(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	per := float64(mallocs) / epochs
	t.Logf("%.1f allocations per epoch", per)
	const want = 93 // 1.2 x the 77 measured
	if per > want {
		t.Fatalf("a hier-300 delta took %.0f allocations from FeedSince to Extend, want <= %d", per, want)
	}
}

// outsideTopology returns copies of a fig3 Full payload carrying, one
// each, a channel and a host load that its topology does not have.
func outsideTopology(t testing.TB, full *FeedPayload) map[string]*FeedPayload {
	t.Helper()
	samples := []stats.Sample{{Time: 1, Value: 1}}
	channel := *full
	channel.Channels = append(slices.Clone(full.Channels), ChannelSamples{Key: ChannelKey{Global: 99999}, Samples: samples})
	load := *full
	at, found := slices.BinarySearchFunc(full.Loads, graph.NodeID("no-such-host"),
		func(e NodeSamples, id graph.NodeID) int { return strings.Compare(string(e.Node), string(id)) })
	if found {
		t.Fatal("fig3 has a host named no-such-host")
	}
	load.Loads = slices.Insert(slices.Clone(full.Loads), at, NodeSamples{Node: "no-such-host", Samples: samples})
	return map[string]*FeedPayload{"channel {Global: 99999}": &channel, "load of no-such-host": &load}
}

// TestPayloadOutsideTopologyRefused: a payload naming a channel or a
// host its topology does not have is refused whole, by each of the
// three readers of a state body — the feed (a replica's Extend, a
// standby's ApplyFeed), RestoreCheckpoint and LoadHistory — and
// nothing is applied. No live collector ships one: its windows are its
// topology's channels and hosts.
func TestPayloadOutsideTopologyRefused(t *testing.T) {
	r := feedRig(t)
	r.net.SetHostLoad("m-5", 0.25)
	r.clk.Advance(4)
	full, err := r.col.FeedSince(&FeedCursor{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := StateFromPayload(full)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range outsideTopology(t, full) {
		// The feed: the payload crosses the wire (its keys are in
		// order), then fails to build a state.
		wire, err := DecodeFeedPayload(AppendFeedPayload(nil, bad))
		if err != nil {
			t.Fatalf("%s: the body does not decode: %v", name, err)
		}
		if _, err := StateFromPayload(wire); err == nil || !strings.Contains(err.Error(), "not in the topology") {
			t.Fatalf("%s: StateFromPayload err = %v", name, err)
		}
		delta := *wire
		delta.Full, delta.Topo, delta.Capacity = false, nil, nil
		if _, err := base.Extend(&delta); err == nil {
			t.Fatalf("%s: Extend accepted it as a delta", name)
		}
		standby := New(Config{Clock: r.clk, PollPeriod: 2})
		if err := standby.ApplyFeed(bad); err == nil {
			t.Fatalf("%s: a standby applied it", name)
		}
		if _, err := standby.TopologyCtx(context.Background()); err == nil {
			t.Fatalf("%s: a refused feed left the standby a topology", name)
		}

		// RestoreCheckpoint: the collector it was offered to is as cold
		// as before.
		ckpt := appendStateFile(nil, checkpointMagic, CheckpointVersion, func(b []byte) []byte {
			return appendCheckpoint(b, &checkpointDump{SavedAt: 40, Polls: 20, State: *bad})
		})
		cold := New(Config{Clock: r.clk, PollPeriod: 2})
		if _, err := cold.RestoreCheckpoint(bytes.NewReader(ckpt)); err == nil {
			t.Fatalf("%s: RestoreCheckpoint accepted it", name)
		}
		if _, err := cold.TopologyCtx(context.Background()); err == nil || cold.Polls() != 0 {
			t.Fatalf("%s: a refused checkpoint left state behind", name)
		}

		// LoadHistory.
		hist := appendStateFile(nil, historyMagic, historyVersion, func(b []byte) []byte { return AppendFeedPayload(b, bad) })
		if _, err := LoadHistory(bytes.NewReader(hist)); err == nil {
			t.Fatalf("%s: LoadHistory accepted it", name)
		}
	}
	// A checkpoint's counter table is held by channel slot too.
	ckpt := appendStateFile(nil, checkpointMagic, CheckpointVersion, func(b []byte) []byte {
		return appendCheckpoint(b, &checkpointDump{SavedAt: 40, State: *full,
			Counters: []channelCounter{{ChannelKey{Global: 99999}, counterState{At: 38, Octets: 7, Valid: true}}}})
	})
	cold := New(Config{Clock: r.clk, PollPeriod: 2})
	if _, err := cold.RestoreCheckpoint(bytes.NewReader(ckpt)); err == nil || !strings.Contains(err.Error(), "not in the topology") {
		t.Fatalf("a counter baseline outside the topology: RestoreCheckpoint err = %v", err)
	}
	if _, err := cold.TopologyCtx(context.Background()); err == nil {
		t.Fatal("a refused checkpoint left a topology behind")
	}
}
