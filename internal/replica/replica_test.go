package replica

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ---------------------------------------------------------------------
// State machine.

func TestStateFor(t *testing.T) {
	const (
		lag   = 5 * time.Second
		fence = 30 * time.Second
	)
	cases := []struct {
		name       string
		synced     bool
		sinceApply time.Duration
		lag, fence time.Duration
		want       State
	}{
		{"unsynced is syncing", false, 0, lag, fence, Syncing},
		{"unsynced stays syncing however old", false, time.Hour, lag, fence, Syncing},
		{"fresh is live", true, 0, lag, fence, Live},
		{"at lag threshold still live", true, lag, lag, fence, Live},
		{"past lag threshold lagging", true, lag + time.Millisecond, lag, fence, Lagging},
		{"at fence still lagging", true, fence, lag, fence, Lagging},
		{"past fence fenced", true, fence + time.Millisecond, lag, fence, Fenced},
		{"way past fence fenced", true, time.Hour, lag, fence, Fenced},
		{"fence disabled never fences", true, time.Hour, lag, -1, Lagging},
		{"lag disabled skips lagging", true, fence, -1, fence, Live},
		{"both disabled always live", true, time.Hour, -1, -1, Live},
		{"recovery: fresh apply after fence", true, time.Millisecond, lag, fence, Live},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := StateFor(c.synced, c.sinceApply, c.lag, c.fence); got != c.want {
				t.Fatalf("StateFor(%v, %v, %v, %v) = %v, want %v",
					c.synced, c.sinceApply, c.lag, c.fence, got, c.want)
			}
		})
	}
}

func TestNeedsResync(t *testing.T) {
	u := func(seq uint64, overflowed, resync bool) collector.WatchUpdate {
		return collector.WatchUpdate{Seq: seq, Overflowed: overflowed, Resync: resync}
	}
	withFeed := func(u collector.WatchUpdate, full bool) collector.WatchUpdate {
		u.Feed = &collector.FeedPayload{Full: full}
		return u
	}
	cases := []struct {
		name     string
		lastSeq  uint64
		u        collector.WatchUpdate
		progress bool
		want     bool
	}{
		{"first update accepted at any seq", 0, u(7, false, false), false, false},
		{"dense successor ok", 3, u(4, false, false), true, false},
		{"seq gap forces resync", 3, u(5, false, false), true, true},
		{"seq going backward forces resync", 3, u(3, false, false), true, true},
		{"overflow forces resync", 3, u(4, true, false), true, true},
		{"overflow on first update forces resync", 0, u(1, true, false), false, true},
		{"resync mark after progress forces resync", 3, u(4, false, true), true, true},
		{"resync mark before progress is benign", 0, u(1, false, true), false, false},
		{"seq 0 (terminal) ignored by gap check", 3, u(0, false, false), true, false},
		{"in-band full re-base is benign",
			3, withFeed(u(4, false, true), true), true, false},
		{"resync with a delta payload still forces resync",
			3, withFeed(u(4, false, true), false), true, true},
		{"overflow trumps an in-band full",
			3, withFeed(u(4, true, true), true), true, true},
		{"seq gap trumps an in-band full",
			3, withFeed(u(6, false, true), true), true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := collector.NeedsResync(c.lastSeq, c.u, c.progress); got != c.want {
				t.Fatalf("NeedsResync(%d, %+v, %v) = %v, want %v",
					c.lastSeq, c.u, c.progress, got, c.want)
			}
		})
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Syncing: "syncing", Live: "live", Lagging: "lagging", Fenced: "fenced",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// ---------------------------------------------------------------------
// collector.State build and extend, against payloads from a real
// collector. (These tests predate the shared State and stay here, under
// their names, with the rig they use.)

// rig is an in-process testbed collector producing real feed payloads.
type rig struct {
	clk *simclock.Clock
	net *netsim.Network
	col *collector.Collector
}

func newRig(t testing.TB) *rig {
	t.Helper()
	r := newRigOn(t, topology.Testbed())
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.Advance(10)
	return r
}

func newRigOn(t testing.TB, g *graph.Graph) *rig {
	t.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	col := collector.New(collector.Config{
		Client:        snmp.NewClient(att.Registry, snmp.DefaultCommunity),
		Clock:         clk,
		Addrs:         addrs,
		PollPeriod:    2,
		PerHopLatency: topology.PerHopLatency,
	})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, net: n, col: col}
}

func chanKey(t testing.TB, col *collector.Collector, from, to graph.NodeID) collector.ChannelKey {
	t.Helper()
	topo, err := col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range topo.Graph.Links() {
		if (l.A == from && l.B == to) || (l.A == to && l.B == from) {
			return topo.Key(l, l.DirFrom(from))
		}
	}
	t.Fatalf("no link %s--%s", from, to)
	return collector.ChannelKey{}
}

func TestStoreApplyFullThenDeltas(t *testing.T) {
	r := newRig(t)
	cur := &collector.FeedCursor{}

	p, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	st, err := collector.StateFromPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Topology() == nil {
		t.Fatal("state after full has no topology")
	}

	// Three delta rounds; the final state must agree with the collector
	// sample for sample.
	key := chanKey(t, r.col, "m-6", "timberline")
	for i := 0; i < 3; i++ {
		r.clk.Advance(2)
		p, err := r.col.FeedSince(cur)
		if err != nil {
			t.Fatal(err)
		}
		prev := st
		before, _ := prev.Samples(key)
		st, err = st.Extend(p)
		if err != nil {
			t.Fatal(err)
		}
		// COW: the previous state must be untouched by the extend.
		after, _ := prev.Samples(key)
		if st == prev || !reflect.DeepEqual(before, after) {
			t.Fatal("Extend mutated the state it extended")
		}
	}

	want, err := r.col.SamplesCtx(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Samples(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("state has %d samples, collector %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: state %+v, collector %+v", i, got[i], want[i])
		}
	}

	// Utilization through the state must match the collector's answer
	// up to the age term (a replica reads it at an extrapolated clock).
	cs, err := r.col.UtilizationCtx(context.Background(), key, 6)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Utilization(key, 6, float64(r.clk.Now())+3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.Median-ss.Median) > 1e-6 {
		t.Fatalf("median: state %v, collector %v", ss.Median, cs.Median)
	}
}

func TestStoreApplyRejectsIncoherentPayloads(t *testing.T) {
	r := newRig(t)
	cur := &collector.FeedCursor{}
	p, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}

	// A full payload stripped of its topology must fail.
	noTopo := *p
	noTopo.Topo = nil
	if _, err := collector.StateFromPayload(&noTopo); err == nil {
		t.Fatal("StateFromPayload accepted a full payload without topology")
	}

	// A full payload whose link names an undeclared endpoint must fail
	// with an error, not a panic from the graph package.
	dangling := *p
	topo := *p.Topo
	topo.Links = append([]collector.WireLink{{A: "no-such-node", B: topo.Nodes[0].ID, Capacity: 1e6}}, topo.Links...)
	dangling.Topo = &topo
	if _, err := collector.StateFromPayload(&dangling); err == nil {
		t.Fatal("StateFromPayload accepted a link with an undeclared endpoint")
	}

	st, err := collector.StateFromPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Extend(&dangling); err == nil {
		t.Fatal("Extend accepted a link with an undeclared endpoint")
	}

	// Replaying the same samples again violates per-channel sample
	// monotonicity — the extend must fail (the replica then resyncs)
	// rather than silently corrupt the windows.
	replay := *p
	replay.Full = false
	replay.Topo = nil
	replay.Epoch = p.Epoch + 1
	if _, err := st.Extend(&replay); err == nil {
		t.Fatal("Extend accepted out-of-order samples")
	}

	// Non-finite samples are rejected.
	bad := collector.FeedPayload{
		Epoch: p.Epoch + 1,
		Channels: map[collector.ChannelKey][]stats.Sample{
			{Global: 0}: {{Time: math.NaN(), Value: 1}},
		},
	}
	if _, err := st.Extend(&bad); err == nil {
		t.Fatal("Extend accepted a NaN sample time")
	}

	// A delta has nothing to extend before the first full payload.
	var none *collector.State
	if _, err := none.Extend(&replay); err == nil {
		t.Fatal("Extend of no state accepted a delta")
	}
}

// ---------------------------------------------------------------------
// End-to-end: replica over a served collector feed.

// lockedFeedSource serializes collector access between the TCP server's
// handler goroutines and the test goroutine driving the virtual clock
// (simclock has no internal locking). DataVersion and SubscribeVersion
// are internally synchronized and skip the lock — the server's watch
// loop blocks on them while holding nothing.
type lockedFeedSource struct {
	mu  *sync.Mutex
	col *collector.Collector
}

func (s *lockedFeedSource) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.TopologyCtx(ctx)
}

func (s *lockedFeedSource) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.UtilizationCtx(ctx, key, span)
}

func (s *lockedFeedSource) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.SamplesCtx(ctx, key)
}

func (s *lockedFeedSource) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.HostLoadCtx(ctx, node, span)
}

func (s *lockedFeedSource) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.DataAgeCtx(ctx, key)
}

func (s *lockedFeedSource) Health() map[graph.NodeID]collector.AgentHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Health()
}

func (s *lockedFeedSource) FeedSince(cur *collector.FeedCursor) (*collector.FeedPayload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.FeedSince(cur)
}

func (s *lockedFeedSource) DataVersion() (uint64, bool) { return s.col.DataVersion() }

func (s *lockedFeedSource) SubscribeVersion() (<-chan struct{}, func()) {
	return s.col.SubscribeVersion()
}

// clockDriver advances the virtual clock from a goroutine, like the
// daemon's real-time driver: 20 virtual seconds per wall second, so
// the 2s poll period produces a feed heartbeat every ~100ms wall.
func clockDriver(mu *sync.Mutex, clk *simclock.Clock) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mu.Lock()
				clk.Advance(0.2)
				mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", within, what)
}

func TestReplicaSyncServeFenceRecover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := newRig(t)
	var mu sync.Mutex
	src := &lockedFeedSource{mu: &mu, col: r.col}
	srv, err := collector.Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	stopClock := clockDriver(&mu, r.clk)

	rep := New(Config{
		FeedAddr:      addr,
		MaxStaleness:  1200 * time.Millisecond,
		LagThreshold:  300 * time.Millisecond,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          1,
		Telemetry:     telemetry.NewRegistry(),
	})
	rep.Start()
	defer rep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatalf("replica never synced: %v", err)
	}

	// Live answers must agree with the collector.
	key := func() collector.ChannelKey {
		mu.Lock()
		defer mu.Unlock()
		return chanKey(t, r.col, "m-6", "timberline")
	}()
	repTopo, err := rep.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	colTopo, _ := r.col.TopologyCtx(context.Background())
	mu.Unlock()
	if repTopo.Graph.NumLinks() != colTopo.Graph.NumLinks() {
		t.Fatalf("replica topo has %d links, collector %d",
			repTopo.Graph.NumLinks(), colTopo.Graph.NumLinks())
	}
	waitFor(t, 3*time.Second, "replica live", func() bool { return rep.State() == Live })
	if _, err := rep.UtilizationCtx(context.Background(), key, 6); err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Capacity(key); !ok || v != 100e6 {
		t.Fatalf("replica capacity = %v, %v; want 100e6", v, ok)
	}
	if len(rep.Health()) == 0 {
		t.Fatal("replica serves no health data")
	}
	if ver, ok := rep.DataVersion(); !ok || ver == 0 {
		t.Fatalf("replica DataVersion = %d, %v", ver, ok)
	}

	// Partition: kill the feed server. The replica serves increasingly
	// old answers (ages growing in wall time), then fences.
	epochAtKill, _ := rep.DataVersion()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(400 * time.Millisecond) // inside the fence
	st, err := rep.UtilizationCtx(context.Background(), key, 6)
	if err != nil {
		t.Fatalf("pre-fence query refused: %v", err)
	}
	if st.Age < 0.3 {
		t.Fatalf("pre-fence age %.3fs does not reflect the partition", st.Age)
	}

	waitFor(t, 3*time.Second, "replica fenced", func() bool { return rep.State() == Fenced })
	// Dwell in the fenced state: every query across the window must be
	// the typed refusal — zero unmarked-fresh answers — and the state
	// ticker must get to observe the transition.
	fencedUntil := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(fencedUntil) {
		if _, err := rep.UtilizationCtx(context.Background(), key, 6); !errors.Is(err, collector.ErrStaleReplica) {
			t.Fatalf("fenced query err = %v, want ErrStaleReplica", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := rep.TopologyCtx(context.Background()); !errors.Is(err, collector.ErrStaleReplica) {
		t.Fatalf("fenced topology err = %v, want ErrStaleReplica", err)
	}
	// Lifecycle classification: stale is routable-around, not semantic.
	if _, err := rep.UtilizationCtx(context.Background(), key, 6); !collector.IsLifecycleError(err) {
		t.Fatal("ErrStaleReplica must classify as a lifecycle error")
	}

	// Heal: re-serve on the same address; the replica resyncs with a
	// fresh full snapshot and catches up past its pre-partition epoch.
	srv2, err := collector.Serve(src, addr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica recovered", func() bool {
		if rep.State() != Live {
			return false
		}
		ver, _ := rep.DataVersion()
		return ver > epochAtKill
	})
	if _, err := rep.UtilizationCtx(context.Background(), key, 6); err != nil {
		t.Fatalf("post-recovery query refused: %v", err)
	}
	tel := rep.Telemetry().Snapshot()
	if tel.Counters["replica.updates.full"] < 2 {
		t.Fatalf("expected a full re-snapshot after the partition; fulls = %d",
			tel.Counters["replica.updates.full"])
	}
	if tel.Counters["replica.fence.trips"] == 0 {
		t.Fatal("fence trip not counted")
	}
	if tel.Counters["replica.queries.fenced"] == 0 {
		t.Fatal("fenced queries not counted")
	}
	// The rest of the replica.* names remos-stat's REPLICA line reads:
	// feed errors while the server was down, one completed re-base
	// after the heal. (Whether a delta landed before the partition is
	// timing; TestReplicaTermFencing counts those.)
	for _, name := range []string{"replica.updates.err", "replica.resyncs"} {
		if tel.Counters[name] == 0 {
			t.Fatalf("%s not counted across a partition and heal (counters: %v)", name, tel.Counters)
		}
	}
	for _, name := range []string{"replica.updates.delta", "replica.fencing.rejections"} {
		if _, ok := tel.Counters[name]; !ok {
			t.Fatalf("%s not registered (counters: %v)", name, tel.Counters)
		}
	}
	for _, name := range []string{"replica.epoch", "replica.term", "replica.state", "replica.lag.epochs", "replica.lag.seconds"} {
		if _, ok := tel.Gauges[name]; !ok {
			t.Fatalf("gauge %s not registered (gauges: %v)", name, tel.Gauges)
		}
	}
	if ver, _ := rep.DataVersion(); tel.Gauges["replica.epoch"] == 0 || tel.Gauges["replica.epoch"] > float64(ver) {
		t.Fatalf("replica.epoch gauge = %v with DataVersion %d", tel.Gauges["replica.epoch"], ver)
	}

	// Teardown everything and verify no goroutines leak.
	srv2.Close()
	stopClock()
	rep.Close()
	waitFor(t, 10*time.Second, fmt.Sprintf("goroutines back to ~%d", baseline), func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

func TestReplicaServesWatches(t *testing.T) {
	r := newRig(t)
	var mu sync.Mutex
	src := &lockedFeedSource{mu: &mu, col: r.col}
	srv, err := collector.Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stopClock := clockDriver(&mu, r.clk)
	defer stopClock()

	rep := New(Config{FeedAddr: srv.Addr(), Seed: 1})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}

	// Serve the replica itself over TCP and subscribe a version watch
	// to it: epoch numbers must advance as the feed applies.
	rsrv, err := collector.Serve(rep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cl, err := collector.Dial(rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Watch(ctx, collector.WatchRequest{Kind: collector.WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Cancel()
	var first, second collector.WatchUpdate
	select {
	case first = <-h.C:
	case <-ctx.Done():
		t.Fatal("no first watch update through the replica")
	}
	select {
	case second = <-h.C:
	case <-ctx.Done():
		t.Fatal("no second watch update through the replica")
	}
	if second.Epoch <= first.Epoch {
		t.Fatalf("watch epochs through replica did not advance: %d then %d",
			first.Epoch, second.Epoch)
	}

	// The feed kind must be refused by a replica's server (replicas
	// do not re-feed; chaining goes through the collector).
	if _, err := cl.Watch(ctx, collector.WatchRequest{Kind: collector.WatchFeed}); err == nil {
		t.Fatal("feed subscription on a replica succeeded; replicas do not chain")
	}
}

// TestReplicaTermFencing drives payloads with explicit lease terms
// through Replica.apply and checks the split-brain fencing rules: a
// payload stamped with a term below the applied one (a deposed leader
// still feeding) is rejected and counted, and a term advance is only
// coherent as a fresh Full snapshot — a delta across terms chains from
// state the new leader never had.
func TestReplicaTermFencing(t *testing.T) {
	r := newRig(t)
	p, err := r.col.FeedSince(&collector.FeedCursor{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		term    uint64
		full    bool
		wantErr bool
		fenced  bool // counts toward replica.fencing.rejections
	}{
		{name: "same-term delta", term: 2, full: false, wantErr: false},
		{name: "stale-term full", term: 1, full: true, wantErr: true, fenced: true},
		{name: "stale-term delta", term: 1, full: false, wantErr: true, fenced: true},
		{name: "term advance as delta", term: 3, full: false, wantErr: true},
		{name: "term advance as full", term: 3, full: true, wantErr: false},
	}

	rep := New(Config{FeedAddrs: []string{"unused:0"}, Telemetry: telemetry.NewRegistry()})
	base := *p
	base.Term = 2
	if err := rep.apply(&base); err != nil {
		t.Fatalf("seed full at term 2: %v", err)
	}

	var wantFenced uint64
	nextEpoch := p.Epoch
	for _, tc := range cases {
		nextEpoch++
		q := collector.FeedPayload{Epoch: nextEpoch, Term: tc.term, Full: tc.full}
		if tc.full {
			full := *p
			full.Epoch = nextEpoch
			full.Term = tc.term
			q = full
		}
		err := rep.apply(&q)
		if tc.wantErr && err == nil {
			t.Errorf("%s: apply accepted the payload", tc.name)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: apply rejected the payload: %v", tc.name, err)
		}
		if tc.fenced {
			wantFenced++
		}
		got := rep.Telemetry().Snapshot().Counters["replica.fencing.rejections"]
		if got != wantFenced {
			t.Errorf("%s: replica.fencing.rejections = %d, want %d", tc.name, got, wantFenced)
		}
	}

	// The survivor state is the term-3 full; its term is visible to
	// clients through Status.
	if got := rep.Status().Term; got != 3 {
		t.Fatalf("final term = %d, want 3", got)
	}
	// Only what passed the fence is counted as an update: the seed and
	// the term-3 full (a re-base over an existing store), one delta.
	snap := rep.Telemetry().Snapshot()
	if c := snap.Counters; c["replica.updates.full"] != 2 || c["replica.updates.delta"] != 1 ||
		c["replica.resyncs"] != 1 || snap.Gauges["replica.term"] != 3 {
		t.Fatalf("update counters after the script: %v, replica.term = %v", c, snap.Gauges["replica.term"])
	}
}
