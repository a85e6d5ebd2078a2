package collector

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// versionedFake is a fakeSource with a data version and change
// notifications, standing in for a live collector in watch tests.
type versionedFake struct {
	fakeSource

	ver  atomic.Uint64
	disc atomic.Uint64 // DiscoveredAt, as an integer for atomic bumps
	util atomic.Uint64 // Utilization median, bits/s

	mu   sync.Mutex
	subs map[chan struct{}]struct{}
}

func newVersionedFake() *versionedFake {
	v := &versionedFake{subs: make(map[chan struct{}]struct{})}
	v.ver.Store(1)
	return v
}

func (v *versionedFake) DataVersion() (uint64, bool) { return v.ver.Load(), true }

func (v *versionedFake) SubscribeVersion() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	v.mu.Lock()
	v.subs[ch] = struct{}{}
	v.mu.Unlock()
	return ch, func() {
		v.mu.Lock()
		delete(v.subs, ch)
		v.mu.Unlock()
	}
}

func (v *versionedFake) bump() {
	v.ver.Add(1)
	v.mu.Lock()
	for ch := range v.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	v.mu.Unlock()
}

func (v *versionedFake) TopologyCtx(ctx context.Context) (*Topology, error) {
	t := fakeTopo()
	t.DiscoveredAt = float64(v.disc.Load())
	return t, nil
}

func (v *versionedFake) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	return stats.Exact(float64(v.util.Load())), nil
}

func recvUpdate(t *testing.T, h *WatchHandle, within time.Duration) WatchUpdate {
	t.Helper()
	select {
	case u, ok := <-h.C:
		if !ok {
			t.Fatalf("watch channel closed early (err %v)", h.Err())
		}
		return u
	case <-time.After(within):
		t.Fatal("no watch update within deadline")
	}
	panic("unreachable")
}

// TestWatchQueueOverflow: the bounded queue drops its oldest entry at
// capacity and folds the loss into the next pop's Overflowed mark; a
// Final push seals it against stragglers.
func TestWatchQueueOverflow(t *testing.T) {
	q := newWatchQueue(3)
	for i := uint64(1); i <= 5; i++ {
		q.push(WatchUpdate{Seq: i})
	}
	u, ok := q.pop()
	if !ok || u.Seq != 3 || !u.Overflowed {
		t.Fatalf("first pop after overflow = %+v, %v; want Seq 3 with Overflowed", u, ok)
	}
	u, _ = q.pop()
	if u.Seq != 4 || u.Overflowed {
		t.Fatalf("second pop = %+v; want Seq 4 without Overflowed", u)
	}
	q.push(WatchUpdate{Final: true})
	q.push(WatchUpdate{Seq: 99}) // after Final: discarded
	if u, _ = q.pop(); u.Seq != 5 {
		t.Fatalf("pop = %+v, want Seq 5", u)
	}
	u, ok = q.pop()
	if !ok || !u.Final {
		t.Fatalf("pop after seal = %+v, %v; want Final", u, ok)
	}
	if u, ok = q.pop(); ok {
		t.Fatalf("queue yielded %+v after Final", u)
	}
}

// TestWatchThresholdGating: a util watch pushes only when the median
// moved by at least Threshold since the last delivered update.
func TestWatchThresholdGating(t *testing.T) {
	src := newVersionedFake()
	src.util.Store(1000)
	e := watchEval{req: WatchRequest{Kind: WatchUtil, Key: ChannelKey{Global: 1}, Threshold: 100}}

	u, ok := e.eval(context.Background(), src, 1)
	if !ok || u.Stat.Median != 1000 {
		t.Fatalf("first eval = %+v, %v; want initial baseline push", u, ok)
	}
	src.util.Store(1050) // +50 < threshold
	if u, ok = e.eval(context.Background(), src, 2); ok {
		t.Fatalf("sub-threshold change pushed %+v", u)
	}
	src.util.Store(1120) // +120 vs last DELIVERED (1000) >= threshold
	u, ok = e.eval(context.Background(), src, 3)
	if !ok || u.Stat.Median != 1120 || u.Seq != 2 {
		t.Fatalf("material change eval = %+v, %v; want Seq 2 at 1120", u, ok)
	}
	// Same epoch: never re-pushed.
	if u, ok = e.eval(context.Background(), src, 3); ok {
		t.Fatalf("unchanged epoch pushed %+v", u)
	}
}

// TestWatchOverWire: a TCP subscriber sees one update per version bump
// with dense Seqs, and TopoChanged exactly when the discovery time
// moved.
func TestWatchOverWire(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Cancel()

	u := recvUpdate(t, h, 5*time.Second)
	if u.Seq != 1 || u.TopoChanged {
		t.Fatalf("baseline update = %+v; want Seq 1 without TopoChanged", u)
	}
	src.bump()
	u = recvUpdate(t, h, 5*time.Second)
	if u.Seq != 2 || u.TopoChanged {
		t.Fatalf("version-only update = %+v; want Seq 2 without TopoChanged", u)
	}
	src.disc.Store(7) // topology rediscovered
	src.bump()
	u = recvUpdate(t, h, 5*time.Second)
	if u.Seq != 3 || !u.TopoChanged {
		t.Fatalf("rediscovery update = %+v; want Seq 3 with TopoChanged", u)
	}
}

// TestWatchSlowConsumerOverflow: a consumer that stops reading while
// epochs churn loses intermediate updates — bounded queues guarantee
// that — and the first update it does read says so via Overflowed and
// a Seq gap.
func TestWatchSlowConsumerOverflow(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tel := telemetry.NewRegistry()
	cli, err := DialConfig(srv.Addr(), ClientConfig{
		CallTimeout: 5 * time.Second, WatchQueueDepth: 4, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Cancel()

	u := recvUpdate(t, h, 5*time.Second)
	if u.Seq != 1 {
		t.Fatalf("baseline Seq = %d, want 1", u.Seq)
	}
	// Churn epochs without reading until the client-side queue provably
	// dropped something.
	drops := tel.Counter("client.watch.drops.overflow")
	deadline := time.Now().Add(10 * time.Second)
	for drops.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client queue never overflowed")
		}
		src.bump()
		time.Sleep(time.Millisecond)
	}
	// One update may already be parked in the forwarder from before the
	// overflow; the marked one is right behind it.
	last := u.Seq
	for i := 0; ; i++ {
		u = recvUpdate(t, h, 5*time.Second)
		if u.Overflowed {
			break
		}
		if i >= 2 {
			t.Fatalf("no Overflowed mark within %d updates of a recorded drop", i+1)
		}
	}
	if u.Seq <= last+1 {
		t.Fatalf("Seq %d after overflow (prev %d); want a gap past the dropped updates", u.Seq, last)
	}
}

// TestWatchStalledSubscriberEvicted is the headline robustness
// scenario: one subscriber wedges completely (never reads its socket)
// while epochs churn. The server must evict it within the
// write-deadline budget once its socket jams, count the eviction as a
// stall, and meanwhile keep a healthy subscriber on another connection
// and ordinary pipelined queries completely unaffected.
func TestWatchStalledSubscriberEvicted(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{
		WatchWriteDeadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy subscriber on its own connection.
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Cancel()
	recvUpdate(t, h, 5*time.Second)

	// Stalled subscriber: a raw connection that subscribes and then
	// never reads again. A small receive buffer jams its stream fast.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(raw, &muxFrame{Stream: 1, Kind: mfRequest,
		Req: &request{Op: "watch", Watch: &WatchRequest{Kind: WatchVersion}}}, 0); err != nil {
		t.Fatal(err)
	}
	var ack muxFrame
	if err := readFrame(raw, &ack, 0); err != nil {
		t.Fatal(err)
	}
	if ack.Kind != mfResponse || ack.Resp == nil || ack.Resp.Err != "" {
		t.Fatalf("subscribe ack = %+v", ack)
	}
	// From here on the raw conn reads nothing: its updates pile into
	// the socket buffers until the server's write blocks.

	evicted := srv.Telemetry().Counter("server.watch.evictions.stalled")
	stop := make(chan struct{})
	var bumps atomic.Uint64
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src.bump()
			bumps.Add(1)
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	defer close(stop)

	deadline := time.Now().Add(15 * time.Second)
	for evicted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber never evicted (%d bumps)", bumps.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The healthy subscriber is still being served...
	drained := false
	for !drained { // skip the backlog accumulated during the churn
		select {
		case <-h.C:
		default:
			drained = true
		}
	}
	src.bump()
	recvUpdate(t, h, 5*time.Second)
	// ... and so are ordinary queries.
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("ordinary query failed during watch churn: %v", err)
	}
	// The evicted subscriber's connection was closed server-side.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := raw.Read(buf); err != nil {
			break // EOF or reset: evicted
		}
	}
}

// TestWatchPipelining: with multiplexed framing, a fast query on the
// same connection overtakes a slow one instead of queueing behind it.
func TestWatchPipelining(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	utilDone := make(chan error, 1)
	go func() {
		_, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
		utilDone <- err
	}()
	<-entered // the slow call is now blocked inside the handler

	start := time.Now()
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("pipelined topo failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("topo waited %v behind a slow call on the same conn", elapsed)
	}
	select {
	case err := <-utilDone:
		t.Fatalf("slow call finished early (err %v) — not actually pipelined", err)
	default:
	}
	release()
	if err := <-utilDone; err != nil {
		t.Fatalf("slow call failed after release: %v", err)
	}
}

// TestWatchServerDrainFinal: graceful shutdown delivers a terminal
// Final update; the handle's channel closes cleanly with a nil Err.
func TestWatchServerDrainFinal(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	recvUpdate(t, h, 5*time.Second)

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()

	sawFinal := false
	for u := range h.C {
		if u.Final {
			sawFinal = true
		}
	}
	if !sawFinal {
		t.Fatal("watch channel closed without a Final update")
	}
	if err := h.Err(); err != nil {
		t.Fatalf("clean drain surfaced err %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWatchCancelStopsServer: cancelling a watch tells the server,
// which forgets the subscription (active gauge back to zero) while the
// connection keeps serving ordinary queries.
func TestWatchCancelStopsServer(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	recvUpdate(t, h, 5*time.Second)
	h.Cancel()
	for range h.C {
	}

	active := srv.Telemetry().Gauge("server.watch.active")
	deadline := time.Now().Add(5 * time.Second)
	for active.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still tracks %v subscriptions after cancel", active.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("connection unusable after watch cancel: %v", err)
	}
}

// TestWatchMaxSubsRefusal: the WatchMaxSubs cap refuses extra
// subscriptions with the typed error, and a freed slot is reusable.
func TestWatchMaxSubsRefusal(t *testing.T) {
	src := newVersionedFake()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{WatchMaxSubs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 5 * time.Second, SingleAttempt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	h1, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion}); !errors.Is(err, ErrTooManySubscriptions) {
		t.Fatalf("over-cap subscribe err = %v, want ErrTooManySubscriptions", err)
	}
	h1.Cancel()
	for range h1.C {
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h2, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
		if err == nil {
			h2.Cancel()
			break
		}
		if !errors.Is(err, ErrTooManySubscriptions) || time.Now().After(deadline) {
			t.Fatalf("freed watch slot not reusable: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverWatchResubscribe: when the serving replica dies, the
// failover watch re-subscribes on the next one and marks the first
// update from the new stream Resync.
func TestFailoverWatchResubscribe(t *testing.T) {
	srcA, srcB := newVersionedFake(), newVersionedFake()
	srvA, err := ServeConfig(srcA, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := ServeConfig(srcB, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	f, err := DialFailover([]string{srvA.Addr(), srvB.Addr()}, FailoverConfig{
		Client:        ClientConfig{CallTimeout: 5 * time.Second, RetryBackoff: 10 * time.Millisecond},
		ProbeInterval: -1, BackoffBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	h, err := f.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Cancel()
	if u := recvUpdate(t, h, 5*time.Second); u.Resync {
		t.Fatalf("first update marked Resync: %+v", u)
	}

	srvA.Close() // abrupt: no drain, the stream just dies

	// The proxy re-subscribes on B; its first update is the baseline
	// eval at subscribe time, marked Resync.
	u := recvUpdate(t, h, 10*time.Second)
	if !u.Resync {
		t.Fatalf("first post-failover update = %+v; want Resync", u)
	}
	// And the stream keeps flowing from B.
	srcB.bump()
	u = recvUpdate(t, h, 5*time.Second)
	if u.Resync {
		t.Fatalf("steady-state update still marked Resync: %+v", u)
	}
	if got := f.Telemetry().Counter("failover.watch.resubscribes").Value(); got != 1 {
		t.Fatalf("resubscribes = %d, want 1", got)
	}
}

// TestCollectorLocalWatch: the in-process Watch on a bare source-side
// evaluation loop (no wire) delivers the same semantics.
func TestCollectorLocalWatch(t *testing.T) {
	src := newVersionedFake()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := watchLocal(ctx, src, src, WatchRequest{Kind: WatchVersion}, 8)
	defer h.Cancel()

	if u := recvUpdate(t, h, 5*time.Second); u.Seq != 1 {
		t.Fatalf("baseline = %+v; want Seq 1", u)
	}
	src.bump()
	if u := recvUpdate(t, h, 5*time.Second); u.Seq != 2 {
		t.Fatalf("second update = %+v; want Seq 2", u)
	}
	cancel()
	for range h.C {
	}
	if err := h.Err(); err != nil {
		t.Fatalf("cancel surfaced err %v", err)
	}
}

// TestCloseCancelsUpstreamWatchRound: a server over a dialed upstream
// evaluates its watches through that upstream. Close cancels the
// evaluation round in flight instead of waiting out the upstream's
// CallTimeout.
func TestCloseCancelsUpstreamWatchRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	asked := make(chan struct{}, 1)
	go func() { // an upstream that accepts, reads, and never answers
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 512)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case asked <- struct{}{}:
					default:
					}
				}
			}()
		}
	}()
	up, err := DialConfig(ln.Addr().String(), ClientConfig{CallTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	srv, err := Serve(up, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer cli.Close()
	h, err := cli.Watch(context.Background(), WatchRequest{Kind: WatchVersion})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer h.Cancel()
	select {
	case <-asked: // the evaluation round is waiting on the upstream
	case <-time.After(5 * time.Second):
		srv.Close()
		t.Fatal("the watch evaluator never asked the upstream")
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with an upstream watch round in flight, want under 1s", d)
	}
}
