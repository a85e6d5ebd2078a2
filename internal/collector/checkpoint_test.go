package collector

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkpointedRig runs a collector long enough to have real state and
// returns it plus its serialized checkpoint.
func checkpointedRig(t *testing.T) (*rig, []byte) {
	t.Helper()
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.net.SetHostLoad("m-5", 0.25)
	r.clk.RunUntil(40)
	var buf bytes.Buffer
	if err := r.col.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// restoreInto restores a checkpoint into a fresh collector whose clock
// has been advanced to `at` virtual seconds.
func restoreInto(t *testing.T, ckpt []byte, at float64) *Collector {
	t.Helper()
	clk := simclock.New()
	clk.Advance(at)
	col := New(Config{Clock: clk, PollPeriod: 2, PerHopLatency: topology.PerHopLatency})
	info, err := col.RestoreCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != CheckpointVersion {
		t.Fatalf("restored version %d", info.Version)
	}
	return col
}

// TestCheckpointRoundTrip saves, restores into a fresh collector at the
// same virtual time, and asserts Topology/Utilization/Health/DataAge
// agree bit-for-bit.
func TestCheckpointRoundTrip(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	col2 := restoreInto(t, ckpt, float64(r.clk.Now()))

	// Topology: identical structure, kinds, capacities, global IDs.
	t1, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := col2.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topoToWire(t1), topoToWire(t2)) {
		t.Fatal("topology did not round-trip bit-for-bit")
	}

	// Every channel: Utilization (several spans), Samples, DataAge.
	for _, l := range t1.Graph.Links() {
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			k := t1.Key(l, d)
			for _, span := range []float64{0, 5, 20} {
				u1, e1 := r.col.UtilizationCtx(context.Background(), k, span)
				u2, e2 := col2.UtilizationCtx(context.Background(), k, span)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("util(%v,%v) error mismatch: %v vs %v", k, span, e1, e2)
				}
				if e1 == nil && !reflect.DeepEqual(u1, u2) {
					t.Fatalf("util(%v,%v) = %+v, restored %+v", k, span, u1, u2)
				}
			}
			s1, e1 := r.col.SamplesCtx(context.Background(), k)
			s2, e2 := col2.SamplesCtx(context.Background(), k)
			if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("samples(%v) mismatch", k)
			}
			a1, e1 := r.col.DataAgeCtx(context.Background(), k)
			a2, e2 := col2.DataAgeCtx(context.Background(), k)
			if (e1 == nil) != (e2 == nil) || a1 != a2 {
				t.Fatalf("age(%v) = %v/%v, restored %v/%v", k, a1, e1, a2, e2)
			}
		}
	}

	// Host loads.
	l1, err := r.col.HostLoadCtx(context.Background(), "m-5", 20)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := col2.HostLoadCtx(context.Background(), "m-5", 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("load = %+v, restored %+v", l1, l2)
	}

	// Health and poll statistics.
	if !reflect.DeepEqual(r.col.Health(), col2.Health()) {
		t.Fatal("health map did not round-trip")
	}
	if n := r.col.Telemetry().Snapshot(); n.Counters["collector.checkpoint.saves"] != 1 ||
		n.Quantiles["collector.checkpoint.save_ms"].Count != 1 ||
		col2.Telemetry().Snapshot().Counters["collector.checkpoint.restores"] != 1 {
		t.Fatalf("checkpoint metrics: saver %v, restorer %v", n.Counters, col2.Telemetry().Snapshot().Counters)
	}
	if r.col.Polls() != col2.Polls() || r.col.PollErrors() != col2.PollErrors() ||
		r.col.Discoveries() != col2.Discoveries() {
		t.Fatalf("poll statistics lost: %d/%d/%d vs %d/%d/%d",
			r.col.Polls(), r.col.PollErrors(), r.col.Discoveries(),
			col2.Polls(), col2.PollErrors(), col2.Discoveries())
	}
}

// TestCheckpointHonestAges: restored at a later virtual time (the
// downtime), reported data ages include the gap instead of resetting.
func TestCheckpointHonestAges(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	saveAt := float64(r.clk.Now())
	const downtime = 60.0
	col2 := restoreInto(t, ckpt, saveAt+downtime)

	topo, _ := col2.TopologyCtx(context.Background())
	k := keyFor(t, topo, "timberline", "whiteface")
	ageBefore, err := r.col.DataAgeCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	ageAfter, err := col2.DataAgeCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ageAfter-(ageBefore+downtime)) > 1e-9 {
		t.Fatalf("age after restart = %v, want %v (pre-crash %v + downtime %v)",
			ageAfter, ageBefore+downtime, ageBefore, downtime)
	}
	// The staleness shows up as decayed accuracy too.
	st, err := col2.UtilizationCtx(context.Background(), k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Age < downtime {
		t.Fatalf("stat age %v does not include downtime %v", st.Age, downtime)
	}
	fresh, _ := r.col.UtilizationCtx(context.Background(), k, 20)
	if st.Accuracy >= fresh.Accuracy {
		t.Fatalf("accuracy did not decay across downtime: %v >= %v", st.Accuracy, fresh.Accuracy)
	}
}

// TestWarmStartSkipsDiscovery: a restored collector starts warm — no
// new discovery cycle; polling resumes on the restored topology.
func TestWarmStartSkipsDiscovery(t *testing.T) {
	r, ckpt := checkpointedRig(t)
	preDiscoveries := r.col.Discoveries()

	// Fresh collector over the same live network and clock.
	col2 := New(Config{
		Client:        r.col.cfg.Client,
		Clock:         r.clk,
		Addrs:         r.col.cfg.Addrs,
		PollPeriod:    2,
		PerHopLatency: topology.PerHopLatency,
	})
	if _, err := col2.RestoreCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if err := col2.Start(); err != nil {
		t.Fatal(err)
	}
	defer col2.Stop()
	if got := col2.Discoveries(); got != preDiscoveries {
		t.Fatalf("warm start ran a new discovery: %d -> %d", preDiscoveries, got)
	}
	// Queries are answerable immediately, and polling still works: new
	// samples keep arriving on the restored windows.
	topo2, err := col2.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(t, topo2, "timberline", "whiteface")
	before, err := col2.SamplesCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(r.clk.Now() + 10)
	after, err := col2.SamplesCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("polling did not resume after warm start: %d -> %d samples", len(before), len(after))
	}
}

// TestCheckpointRejection: corrupt, truncated, alien, and
// wrong-version files — the gob checkpoints of version 2 among them —
// are rejected with a clear error and leave the collector untouched.
func TestCheckpointRejection(t *testing.T) {
	_, ckpt := checkpointedRig(t)

	fresh := func() *Collector {
		clk := simclock.New()
		return New(Config{Clock: clk, PollPeriod: 2})
	}
	expectErr := func(name string, data []byte, wantSub string) {
		t.Helper()
		col := fresh()
		_, err := col.RestoreCheckpoint(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: restore succeeded", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
		// The failed restore must not have half-applied state.
		if _, terr := col.TopologyCtx(context.Background()); terr == nil {
			t.Fatalf("%s: collector has a topology after failed restore", name)
		}
	}

	expectErr("empty", nil, "header")
	expectErr("garbage", []byte("definitely not a checkpoint"), "not a collector checkpoint")
	expectErr("alien magic", []byte("SOMETHING-ELSE\x03\x00\x00\x00\x00"), "not a collector checkpoint")
	for i := 0; i < 64; i++ {
		expectErr("truncated", ckpt[:i*len(ckpt)/64], "")
	}
	// The body starts after the magic, the version byte and the checksum.
	body := len(checkpointMagic) + 1 + 4
	for i := 0; i < 64; i++ {
		flipped := append([]byte(nil), ckpt...)
		flipped[body+i*(len(ckpt)-body)/64] ^= 0x5a
		expectErr("flipped body byte", flipped, "corrupt checkpoint")
	}

	r, _ := checkpointedRig(t)
	file := func(version uint64, dump *checkpointDump) []byte {
		return appendStateFile(nil, checkpointMagic, version, func(b []byte) []byte { return appendCheckpoint(b, dump) })
	}
	live := &checkpointDump{Counters: r.col.baselinesLocked(), State: *r.col.st.Payload()}
	expectErr("future version", file(CheckpointVersion+1, live), "unsupported checkpoint version 5")
	// Version 3 is this layout with its maps in iteration order.
	expectErr("map-order version", file(3, live), "unsupported checkpoint version 3 (want 4)")

	// A checkpoint written by the previous format (v2: a gob header
	// value, then a gob dump) is refused by the version check, and the
	// collector it was offered to cold-starts.
	type checkpointHeader struct {
		Magic   string
		Version int
	}
	type v2Dump struct {
		SavedAt float64
		Polls   uint64
		State   FeedPayload
	}
	var v2 bytes.Buffer
	enc := gob.NewEncoder(&v2)
	if err := enc.Encode(&checkpointHeader{Magic: checkpointMagic, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&v2Dump{SavedAt: 40, Polls: 20, State: live.State}); err != nil {
		t.Fatal(err)
	}
	expectErr("previous version", v2.Bytes(), "unsupported checkpoint version: a gob file from before version 4")
	cold := New(Config{Client: r.col.cfg.Client, Clock: r.clk, Addrs: r.col.cfg.Addrs, PollPeriod: 2})
	if _, err := cold.RestoreCheckpoint(bytes.NewReader(v2.Bytes())); err == nil {
		t.Fatal("v2 checkpoint restored")
	}
	if err := cold.Start(); err != nil {
		t.Fatal(err)
	}
	defer cold.Stop()
	if cold.Discoveries() != 1 || cold.Polls() != 1 {
		t.Fatalf("after a refused restore: %d discoveries, %d polls; want a cold start's 1 and 1",
			cold.Discoveries(), cold.Polls())
	}

	// Non-finite samples and times never enter a window, whichever way
	// the state arrives.
	for name, poison := range map[string]stats.Sample{
		"NaN value":  {Time: 1e6, Value: math.NaN()},
		"+Inf value": {Time: 1e6, Value: math.Inf(1)},
		"+Inf time":  {Time: math.Inf(1), Value: 1},
		"-Inf time":  {Time: math.Inf(-1), Value: 1},
	} {
		dump := checkpointDump{State: *r.col.st.Payload()}
		ch := &dump.State.Channels[0]
		ch.Samples = append(ch.Samples, poison)
		expectErr(name, file(CheckpointVersion, &dump), "corrupt checkpoint")
	}
}

// lockedFeedCol serializes a collector and its virtual clock behind one
// mutex so watch evaluators, a restore storm, and the test's clock
// driver can interleave under -race. (Production deployments get this
// ordering from the TCP server; in-process tests must provide it.)
type lockedFeedCol struct {
	mu  *sync.Mutex
	col *Collector
}

func (l *lockedFeedCol) TopologyCtx(ctx context.Context) (*Topology, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.TopologyCtx(ctx)
}

func (l *lockedFeedCol) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.UtilizationCtx(ctx, key, span)
}

func (l *lockedFeedCol) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.SamplesCtx(ctx, key)
}

func (l *lockedFeedCol) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.HostLoadCtx(ctx, node, span)
}

func (l *lockedFeedCol) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.DataAgeCtx(ctx, key)
}

func (l *lockedFeedCol) FeedSince(cur *FeedCursor) (*FeedPayload, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.col.FeedSince(cur)
}

func (l *lockedFeedCol) DataVersion() (uint64, bool) { return l.col.DataVersion() }

func (l *lockedFeedCol) SubscribeVersion() (<-chan struct{}, func()) {
	return l.col.SubscribeVersion()
}

// TestRestoreCheckpointRacingSubscriptions: a restore replaces the
// collector's windows wholesale while watch/feed subscriptions are
// live. Every feed subscriber must observe the replacement as a
// Resync-marked Full payload — never a torn delta that chains new
// samples onto windows that no longer exist, and never a Resync mark
// without the self-contained snapshot that makes it safe to apply in
// place. Run under -race: restores, polls, and subscription evaluators
// all interleave here.
func TestRestoreCheckpointRacingSubscriptions(t *testing.T) {
	cases := []struct {
		name  string
		kinds []string
	}{
		{"one feed", []string{WatchFeed}},
		{"feed plus version watch", []string{WatchFeed, WatchVersion}},
		{"two independent feeds", []string{WatchFeed, WatchFeed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, ckpt := checkpointedRig(t)
			defer r.col.Stop()
			var mu sync.Mutex
			locked := &lockedFeedCol{mu: &mu, col: r.col}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			type result struct {
				updates     int
				resyncFulls int
				torn        string // first violation, "" if clean
			}
			results := make([]result, len(tc.kinds))
			started := make([]chan struct{}, len(tc.kinds))
			var wg sync.WaitGroup
			for i, kind := range tc.kinds {
				h, err := WatchLocal(ctx, locked, WatchRequest{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				defer h.Cancel()
				started[i] = make(chan struct{})
				wg.Add(1)
				go func(i, idx int, kind string, h *WatchHandle) {
					defer wg.Done()
					res := &results[i]
					lastEpoch := uint64(0)
					// Per-channel newest sample time the subscriber has
					// applied; nil means "must receive a Full first".
					var last map[ChannelKey]float64
					firstDone := false
					for u := range h.C {
						res.updates++
						if !firstDone {
							firstDone = true
							close(started[i])
						}
						if u.Err != "" {
							continue
						}
						if u.Epoch < lastEpoch && res.torn == "" {
							res.torn = "epoch went backwards"
						}
						lastEpoch = u.Epoch
						if kind != WatchFeed {
							continue
						}
						p := u.Feed
						if p == nil {
							continue
						}
						if u.Overflowed {
							// Queue fold: continuity is unknowable until
							// the next Full; a real replica resubscribes.
							last = nil
							continue
						}
						if u.Resync && !p.Full && res.torn == "" {
							res.torn = "Resync mark without a Full payload"
						}
						if p.Full {
							if u.Resync {
								res.resyncFulls++
							}
							last = make(map[ChannelKey]float64)
							for _, e := range p.Channels {
								last[e.Key] = e.Samples[len(e.Samples)-1].Time
							}
							continue
						}
						if last == nil {
							if res.torn == "" {
								res.torn = "delta before any Full payload"
							}
							continue
						}
						// A delta must extend the applied windows: its
						// samples strictly newer, per channel. A delta
						// computed against pre-restore windows ships
						// samples at or before what we already hold.
						for _, e := range p.Channels {
							k, ss := e.Key, e.Samples
							if prev, ok := last[k]; ok && ss[0].Time <= prev && res.torn == "" {
								res.torn = "torn delta: sample not newer than applied window"
							}
							last[k] = ss[len(ss)-1].Time
						}
					}
				}(i, i, kind, h)
			}

			// Let every subscription receive its baseline before the storm.
			advance := func(d float64) {
				mu.Lock()
				r.clk.Advance(d)
				mu.Unlock()
				time.Sleep(time.Millisecond) // let evaluators drain
			}
			advance(2)
			for _, ch := range started {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatal("subscription never delivered its baseline update")
				}
			}

			// The storm: restores from another goroutine racing poll
			// rounds and subscription evaluation.
			const restores = 6
			restoreDone := make(chan error, 1)
			go func() {
				for i := 0; i < restores; i++ {
					mu.Lock()
					_, err := r.col.RestoreCheckpoint(bytes.NewReader(ckpt))
					mu.Unlock()
					if err != nil {
						restoreDone <- err
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				restoreDone <- nil
			}()
			for i := 0; i < 30; i++ {
				advance(2)
			}
			if err := <-restoreDone; err != nil {
				t.Fatalf("restore: %v", err)
			}
			advance(2) // one more round so the final restore's Full ships

			cancel()
			wg.Wait()
			for i, res := range results {
				if res.torn != "" {
					t.Errorf("subscriber %d (%s): %s", i, tc.kinds[i], res.torn)
				}
				if tc.kinds[i] == WatchFeed && res.resyncFulls == 0 {
					t.Errorf("subscriber %d: no Resync-marked Full observed across %d restores (%d updates)",
						i, restores, res.updates)
				}
			}
		})
	}
}
