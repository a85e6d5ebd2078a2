package collector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Watch subscriptions: the push half of the query interface. A client
// registers a query plus a change threshold; the server evaluates the
// query whenever the source's data version (epoch) moves and pushes a
// delta only when the answer changed materially. Robustness discipline:
//
//   - every subscriber gets a bounded FIFO delta queue that drops its
//     oldest entry on overflow and marks the next delivered update
//     Overflowed, so a slow consumer sees fresh state plus an explicit
//     "you missed some" signal instead of an ever-growing backlog;
//   - a stalled subscriber (TCP write blocked past the write-deadline
//     budget) is evicted — its connection closed — instead of wedging
//     the fan-out;
//   - server shutdown drains every subscription with a terminal Final
//     update before closing the connection;
//   - the failover client re-subscribes on a fresh replica after a
//     transport loss and marks the first update from the new replica
//     Resync, because epochs are per-replica and not comparable.

// Watch kinds: what a subscription evaluates each epoch.
const (
	// WatchVersion pushes one update per data-version change, with
	// TopoChanged set when the topology's discovery time moved. This is
	// the kind the Modeler's WatchGraph/WatchFlowInfo ride on.
	WatchVersion = "version"
	// WatchUtil pushes the utilization Stat of one channel when its
	// median moved by at least Threshold (bits/s) since the last push.
	WatchUtil = "util"
	// WatchLoad pushes the CPU-load Stat of one host when its median
	// moved by at least Threshold since the last push.
	WatchLoad = "load"
	// WatchFeed (feed.go) streams the source's full state to read
	// replicas: a Full snapshot payload first, epoch deltas after.
)

// WatchRequest names the query a subscription evaluates.
type WatchRequest struct {
	// Kind selects the query: WatchVersion, WatchUtil, or WatchLoad
	// ("" means WatchVersion).
	Kind string
	// Key is the channel for WatchUtil.
	Key ChannelKey
	// Node is the host for WatchLoad.
	Node string
	// Span is the trailing summary window (seconds) for util/load.
	Span float64
	// Threshold is the minimum |change in median| since the last
	// delivered update that counts as material; 0 pushes every epoch.
	Threshold float64
}

// WatchUpdate is one pushed delta.
type WatchUpdate struct {
	// Seq numbers generated updates densely per subscription (1, 2,
	// ...). A gap in delivered Seqs means queue overflow dropped the
	// missing updates — always accompanied by Overflowed on the first
	// update after the gap. Final updates carry Seq 0.
	Seq uint64
	// Epoch is the source data version the update was evaluated at.
	Epoch uint64
	// Overflowed marks the first update delivered after the bounded
	// queue dropped older ones: states were missed.
	Overflowed bool
	// Resync marks the first update after the failover client
	// re-subscribed on a different replica: epochs restart and the
	// value is a fresh baseline, not a delta from the previous one.
	Resync bool
	// Final is the terminal update: the server drained the
	// subscription (graceful shutdown) or the stream ended cleanly.
	// No further updates follow.
	Final bool
	// TopoChanged reports that the topology's discovery time moved
	// since the last update (WatchVersion kind).
	TopoChanged bool
	// Term is the source's HA lease term at evaluation time (0 when the
	// source is not part of a hot-standby pair). Feed consumers fence on
	// it: a payload with a lower term than one already applied is from a
	// deposed leader and must be rejected.
	Term uint64
	// Stat is the evaluated answer for util/load kinds.
	Stat stats.Stat
	// Feed is the replication payload for WatchFeed subscriptions
	// (nil for every other kind; costs nothing on the wire unset).
	Feed *FeedPayload
	// Summary is the federation payload for WatchRegionSummary
	// subscriptions (region.go); nil for every other kind.
	Summary *RegionSummary
	// Err carries a non-terminal evaluation error (e.g. "unknown
	// channel"); the subscription stays live and recovers when the
	// query evaluates cleanly again.
	Err string
}

// WatchHandle is a live subscription: receive on C, stop with Cancel.
type WatchHandle struct {
	// C delivers updates in order. It closes after a Final update, a
	// Cancel, or a transport failure (then Err is non-nil).
	C <-chan WatchUpdate

	out      chan WatchUpdate
	ctx      context.Context // done once Cancel is called
	stop     context.CancelFunc
	cancelFn func() // extra teardown (sends mfCancel, unsubscribes, ...)
	once     sync.Once

	mu  sync.Mutex
	err error
}

func newWatchHandle(buf int) *WatchHandle {
	out := make(chan WatchUpdate, buf)
	h := &WatchHandle{C: out, out: out}
	h.ctx, h.stop = context.WithCancel(context.Background())
	return h
}

// Cancel stops the subscription. Idempotent; C closes shortly after.
func (h *WatchHandle) Cancel() {
	h.once.Do(func() {
		h.stop()
		if h.cancelFn != nil {
			h.cancelFn()
		}
	})
}

// Err reports why C closed: nil after a clean Final or Cancel, the
// transport error otherwise.
func (h *WatchHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

func (h *WatchHandle) setErr(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.mu.Unlock()
}

// WatchSource is a Source that supports watch subscriptions.
// Implemented by *Collector (in-process), *Client (TCP), and
// *FailoverSource (replicated, with transparent re-subscribe).
type WatchSource interface {
	Watch(ctx context.Context, req WatchRequest) (*WatchHandle, error)
}

// VersionNotifier is an optional refinement of VersionedSource: a
// cheap edge-triggered signal that DataVersion may have advanced, so
// watchers wake on change instead of polling. SubscribeVersion returns
// a channel that receives (coalesced) after each version bump and a
// release func. Implemented by *Collector.
type VersionNotifier interface {
	SubscribeVersion() (<-chan struct{}, func())
}

// VersionBell is the one VersionNotifier implementation: sources hold
// one and Ring it after every data-version bump. The zero value is
// ready to use.
type VersionBell struct {
	mu   sync.Mutex
	subs map[chan struct{}]struct{}
}

// SubscribeVersion implements VersionNotifier: ch receives (coalesced)
// after every Ring until release is called.
func (b *VersionBell) SubscribeVersion() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	b.mu.Lock()
	if b.subs == nil {
		b.subs = make(map[chan struct{}]struct{})
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, ch)
		b.mu.Unlock()
	}
}

// Ring signals every subscriber without blocking: one that has not
// consumed the previous signal is already going to re-read the latest
// version.
func (b *VersionBell) Ring() {
	b.mu.Lock()
	for ch := range b.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	b.mu.Unlock()
}

// ErrTooManySubscriptions is the typed refusal a server at its
// WatchMaxSubs cap answers new watch requests with. Like other
// overload refusals it proves the server alive; the failover client
// tries the next replica.
var ErrTooManySubscriptions = errors.New("collector: too many subscriptions")

// SubscribeRaw performs one watch handshake on an existing connection
// at the wire level — subscribe frame out, ack frame back — and then
// leaves every subsequent read to the caller. It exists for low-level
// diagnostics and misbehaving-subscriber tests (a client that
// deliberately never reads its updates); real consumers should use
// Client.Watch, which demultiplexes and bounds the stream properly.
//
//reach:keep TestChaosLifecycle's stalled subscriber, which never reads; a Client always drains its socket
func SubscribeRaw(conn net.Conn, req WatchRequest) error {
	if err := writeFrame(conn, &muxFrame{Stream: 1, Kind: mfRequest,
		Req: &request{Op: "watch", Watch: &req}}, 0); err != nil {
		return err
	}
	var ack muxFrame
	if err := readFrame(conn, &ack, 0); err != nil {
		return err
	}
	if ack.Kind != mfResponse || ack.Resp == nil {
		return fmt.Errorf("collector: unexpected subscribe ack (kind %d)", ack.Kind)
	}
	_, err := decodeResponse(ack.Resp)
	return err
}

// watchQueue is the bounded per-subscriber FIFO. push never blocks: at
// capacity it drops the oldest entry and remembers the overflow, which
// pop folds into the next delivered update's Overflowed mark. A Final
// push seals the queue — later pushes are discarded — so drain frames
// cannot be followed by stragglers.
type watchQueue struct {
	mu       sync.Mutex
	buf      []WatchUpdate
	head, n  int
	overflow bool
	sealed   bool
	wake     chan struct{} // cap 1, coalesced
}

func newWatchQueue(depth int) *watchQueue {
	if depth <= 0 {
		depth = DefaultWatchQueueDepth
	}
	return &watchQueue{buf: make([]WatchUpdate, depth), wake: make(chan struct{}, 1)}
}

// push enqueues u, dropping the oldest entry when full. It reports
// how many updates are pending after it and whether one was dropped.
func (q *watchQueue) push(u WatchUpdate) (n int, dropped bool) {
	q.mu.Lock()
	if q.sealed {
		q.mu.Unlock()
		return q.n, false
	}
	if u.Final {
		q.sealed = true
	}
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.overflow = true
		dropped = true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = u
	q.n++
	n = q.n
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return n, dropped
}

// pop dequeues the oldest pending update, folding a pending overflow
// into its Overflowed mark.
func (q *watchQueue) pop() (WatchUpdate, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return WatchUpdate{}, false
	}
	u := q.buf[q.head]
	q.buf[q.head] = WatchUpdate{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.overflow {
		u.Overflowed = true
		q.overflow = false
	}
	return u, true
}

// watchEval is one subscription's evaluation state, owned by its hub's
// evaluator goroutine. It decides, per epoch, whether the answer
// changed enough to push.
type watchEval struct {
	req     WatchRequest
	started bool

	lastEpoch uint64
	lastDisc  float64
	lastStat  stats.Stat
	lastErr   string
	seq       uint64
	cursor    *FeedCursor // WatchFeed replication progress
}

// eval evaluates the subscription at epoch against src under ctx.
// ok=false means nothing to push (epoch unchanged, or change below
// threshold).
func (e *watchEval) eval(ctx context.Context, src Source, epoch uint64) (WatchUpdate, bool) {
	if e.started && epoch == e.lastEpoch {
		return WatchUpdate{}, false
	}
	e.lastEpoch = epoch
	u := WatchUpdate{Epoch: epoch}
	var median float64
	switch e.req.Kind {
	case WatchVersion, "":
		t, err := src.TopologyCtx(ctx)
		if err != nil {
			return e.errUpdate(u, err)
		}
		u.TopoChanged = e.started && t.DiscoveredAt != e.lastDisc
		e.lastDisc = t.DiscoveredAt
		// Every epoch is material for a version watch: the epoch
		// moving IS the event.
		median = math.NaN()
	case WatchUtil:
		st, err := src.UtilizationCtx(ctx, e.req.Key, e.req.Span)
		if err != nil {
			return e.errUpdate(u, err)
		}
		u.Stat = st
		median = st.Median
	case WatchLoad:
		st, err := src.HostLoadCtx(ctx, graph.NodeID(e.req.Node), e.req.Span)
		if err != nil {
			return e.errUpdate(u, err)
		}
		u.Stat = st
		median = st.Median
	case WatchFeed:
		fs, ok := src.(FeedSource)
		if !ok {
			return e.errUpdate(u, fmt.Errorf("collector: source does not support feed subscriptions"))
		}
		if e.cursor == nil {
			e.cursor = &FeedCursor{}
		}
		p, err := fs.FeedSince(e.cursor)
		if err != nil {
			return e.errUpdate(u, err)
		}
		if p == nil {
			return WatchUpdate{}, false // cursor already at the source's epoch
		}
		// The payload's epoch is authoritative: FeedSince reads it under
		// the source lock, after the (possibly newer) epoch this round
		// observed.
		u.Epoch = p.Epoch
		e.lastEpoch = p.Epoch
		u.Feed = p
		// A Full payload on an already-started subscription means the
		// source's state was replaced wholesale (checkpoint restore, HA
		// term change): mark the update Resync so subscribers know this
		// is a re-base, not a delta — and never see a torn delta that
		// chains across the replacement.
		if e.started && p.Full {
			u.Resync = true
		}
		median = math.NaN() // every shipped payload is material
	case WatchRegionSummary:
		rs, ok := src.(RegionSummarySource)
		if !ok {
			return e.errUpdate(u, fmt.Errorf("collector: source does not support region summaries"))
		}
		s, err := rs.RegionSummary()
		if err != nil {
			return e.errUpdate(u, err)
		}
		u.Summary = s
		median = math.NaN() // a new epoch's summary is always material
	default:
		return e.errUpdate(u, fmt.Errorf("collector: unknown watch kind %q", e.req.Kind))
	}
	if e.started && e.lastErr == "" && !math.IsNaN(median) &&
		e.req.Threshold > 0 && math.Abs(median-e.lastStat.Median) < e.req.Threshold {
		return WatchUpdate{}, false // below threshold: not material
	}
	e.started = true
	e.lastErr = ""
	e.lastStat = u.Stat
	e.seq++
	u.Seq = e.seq
	return u, true
}

// errUpdate turns an evaluation error into a non-terminal Err update,
// pushed once per distinct error so a persistently failing query does
// not flood the queue every epoch.
func (e *watchEval) errUpdate(u WatchUpdate, err error) (WatchUpdate, bool) {
	msg := err.Error()
	if e.started && msg == e.lastErr {
		return WatchUpdate{}, false
	}
	e.started = true
	e.lastErr = msg
	e.seq++
	u.Seq = e.seq
	u.Err = msg
	return u, true
}

// validKind reports whether a wire watch request names a known kind.
func validWatchKind(kind string) bool {
	switch kind {
	case WatchVersion, "", WatchUtil, WatchLoad, WatchFeed, WatchRegionSummary:
		return true
	}
	return false
}

// ---- the hub: one evaluator for a set of subscriptions ----

// subscription is one standing watch: its evaluation state, owned by
// its hub's evaluator, and the bounded queue its drain loop empties. A
// server subscription also names the stream and connection its pusher
// writes to.
type subscription struct {
	eval watchEval
	q    *watchQueue

	stream uint64
	sc     *servedConn
	ctx    context.Context // ends the pusher
	stop   context.CancelFunc
	done   chan struct{} // closed when the pusher exits, or when it never starts
	once   sync.Once
}

// watchHub evaluates a set of subscriptions with one goroutine. It
// wakes on the source's version bell (VersionNotifier), or on a poll
// ticker when the source has none, or on a kick; takes the epoch; and
// fills the queue of every subscription whose answer changed, stamped
// with the source's HA term. A Server owns one hub for all its
// subscriptions, and an in-process watch builds a hub of one.
// Per-subscription queues and drain loops keep one slow consumer from
// stalling the rest.
type watchHub struct {
	src    Source
	ctx    context.Context     // ends the evaluator and the source reads of its round
	tel    *telemetry.Registry // nil in process
	paused func() bool         // when non-nil and true, rounds are skipped

	notify  <-chan struct{}
	release func()
	tick    *time.Ticker
	kickCh  chan struct{}
	synth   uint64 // fallback epoch for unversioned sources; evaluator only

	mu   sync.Mutex
	subs map[*subscription]struct{}
}

// newWatchHub subscribes to src's version bell, or starts a ticker of
// period poll when src has none. run must follow, and ends when ctx
// does.
func newWatchHub(ctx context.Context, src Source, poll time.Duration, tel *telemetry.Registry) *watchHub {
	hb := &watchHub{src: src, ctx: ctx, tel: tel, kickCh: make(chan struct{}, 1),
		subs: make(map[*subscription]struct{})}
	if vn, ok := src.(VersionNotifier); ok {
		hb.notify, hb.release = vn.SubscribeVersion()
	} else {
		hb.tick = time.NewTicker(poll)
	}
	return hb
}

// kick wakes the evaluator out of cycle: a new subscription wants its
// first update without waiting for an epoch or a poll interval.
func (hb *watchHub) kick() {
	select {
	case hb.kickCh <- struct{}{}:
	default:
	}
}

// list snapshots the live subscriptions.
func (hb *watchHub) list() []*subscription {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	subs := make([]*subscription, 0, len(hb.subs))
	for sub := range hb.subs {
		subs = append(subs, sub)
	}
	return subs
}

// run is the evaluator goroutine.
func (hb *watchHub) run() {
	var tickC <-chan time.Time
	if hb.tick != nil {
		defer hb.tick.Stop()
		tickC = hb.tick.C
	} else {
		defer hb.release()
	}
	for {
		select {
		case <-hb.ctx.Done():
			return
		case <-hb.notify:
		case <-tickC:
		case <-hb.kickCh:
		}
		if hb.paused == nil || !hb.paused() {
			hb.evaluate()
		}
	}
}

// evaluate runs one round over every live subscription.
func (hb *watchHub) evaluate() {
	subs := hb.list()
	if len(subs) == 0 {
		return
	}
	epoch, term := hb.stamp()
	peak := 0
	for _, sub := range subs {
		u, ok := sub.eval.eval(hb.ctx, hb.src, epoch)
		if !ok {
			continue
		}
		u.Term = term
		n, dropped := sub.q.push(u)
		if dropped {
			hb.tel.Counter("server.watch.drops.overflow").Inc()
		}
		peak = max(peak, n)
	}
	if g := hb.tel.Gauge("server.watch.queue.peak"); float64(peak) > g.Value() {
		g.Set(float64(peak))
	}
}

// stamp returns the round's epoch and the source's HA lease term (0
// outside a hot-standby pair). The epoch is the source's data version
// when it reports one, otherwise a synthetic counter that advances per
// round, so unversioned sources degrade to poll-rate epochs instead of
// losing the feature.
func (hb *watchHub) stamp() (epoch, term uint64) {
	epoch, ok := VersionOf(hb.src)
	if !ok {
		hb.synth++
		epoch = hb.synth
	}
	term, _, _ = HAStatusOf(hb.src)
	return epoch, term
}

// drain is the one drain loop: it moves q's updates to send, in order,
// until a Final update goes out, send reports the stream over, or stop
// closes. dying, when non-nil, closes when the stream's transport dies:
// the updates already queued still go out, then the loop ends.
func drain(q *watchQueue, stop, dying <-chan struct{}, send func(WatchUpdate) bool) {
	for {
		over := false
		select {
		case <-q.wake:
		case <-stop:
			return
		case <-dying:
			over = true
		}
		for {
			u, ok := q.pop()
			if !ok {
				break
			}
			if !send(u) || u.Final {
				return
			}
		}
		if over {
			return
		}
	}
}

// send delivers u on h's channel; false means h was cancelled first.
func (h *WatchHandle) send(u WatchUpdate) bool {
	select {
	case h.out <- u:
		return true
	case <-h.ctx.Done():
		return false
	}
}

// forward runs the drain loop with h's channel as the sink, then
// releases h's context hook and closes the channel.
func (h *WatchHandle) forward(q *watchQueue, dying <-chan struct{}, release func() bool) {
	defer release()
	defer close(h.out)
	drain(q, h.ctx.Done(), dying, h.send)
}

// WatchLocal runs a watch subscription against any in-process Source —
// the same evaluation, bounded queue and backpressure as a server's,
// minus the wire: a hub of one subscription and a drain loop into the
// handle's channel. It wakes on the source's version bell when it has
// one, and polls otherwise.
func WatchLocal(ctx context.Context, src Source, req WatchRequest) (*WatchHandle, error) {
	if !validWatchKind(req.Kind) {
		return nil, fmt.Errorf("collector: unknown watch kind %q", req.Kind)
	}
	hctx, stop := context.WithCancel(ctx)
	hb := newWatchHub(hctx, src, DefaultWatchPollInterval, nil)
	sub := &subscription{eval: watchEval{req: req}, q: newWatchQueue(0)}
	hb.subs[sub] = struct{}{}
	hb.kick()
	h := newWatchHandle(0)
	h.cancelFn = stop
	go hb.run()
	go h.forward(sub.q, nil, context.AfterFunc(ctx, h.Cancel))
	return h, nil
}

// SubscribeVersion implements VersionNotifier.
func (c *Collector) SubscribeVersion() (<-chan struct{}, func()) { return c.bell.SubscribeVersion() }

// Watch implements WatchSource in-process (WatchLocal).
func (c *Collector) Watch(ctx context.Context, req WatchRequest) (*WatchHandle, error) {
	return WatchLocal(ctx, c, req)
}

// ---- server side ----

// registerWatch admits one watch request on a connection: the response
// is its subscribe ack (or typed refusal), sub is non-nil on success.
// The caller writes the ack, then starts sub's pushLoop.
func (s *Server) registerWatch(sc *servedConn, stream uint64, req *request) (*response, *subscription) {
	if req.Watch == nil {
		return &response{Err: `collector: malformed watch request (kind "<nil>")`}, nil
	}
	if !validWatchKind(req.Watch.Kind) {
		return &response{Err: fmt.Sprintf("collector: malformed watch request (kind %q)", req.Watch.Kind)}, nil
	}
	// Capability checks at the handshake: a replica or federation peer
	// pointed at a source that cannot serve it fails its subscribe
	// loudly instead of receiving error updates forever.
	if _, ok := s.src.(FeedSource); req.Watch.Kind == WatchFeed && !ok {
		return &response{Err: "collector: source does not support feed subscriptions"}, nil
	}
	if _, ok := s.src.(RegionSummarySource); req.Watch.Kind == WatchRegionSummary && !ok {
		return &response{Err: "collector: source does not support region summaries"}, nil
	}
	if s.cfg.Gate != nil {
		// HA gating: a standby refuses new subscriptions (including feed
		// subs — replicas must follow the leader) with a typed refusal
		// carrying the leader hint, so subscribers re-route.
		if err := s.cfg.Gate(); err != nil {
			return appError(&response{}, err), nil
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &response{Err: busyMsg, Code: codeBusy}, nil
	}
	s.mu.Unlock()
	sub := &subscription{
		stream: stream,
		sc:     sc,
		eval:   watchEval{req: *req.Watch},
		q:      newWatchQueue(s.cfg.WatchQueueDepth),
		done:   make(chan struct{}),
	}
	sub.ctx, sub.stop = context.WithCancel(s.hub.ctx)
	hb := s.hub
	hb.mu.Lock()
	if s.cfg.WatchMaxSubs > 0 && len(hb.subs) >= s.cfg.WatchMaxSubs {
		hb.mu.Unlock()
		sub.stop()
		s.tel.Counter("server.watch.refusals.limit").Inc()
		return &response{Err: ErrTooManySubscriptions.Error(), Code: codeWatchLimit}, nil
	}
	hb.subs[sub] = struct{}{}
	s.tel.Gauge("server.watch.active").Set(float64(len(hb.subs)))
	hb.mu.Unlock()
	s.mu.Lock()
	if sc.subs == nil {
		sc.subs = make(map[uint64]*subscription)
	}
	sc.subs[stream] = sub
	s.mu.Unlock()
	s.tel.Counter("server.watch.subscribed").Inc()
	return &response{}, sub
}

// dropSub removes a subscription from the registry (idempotent).
func (s *Server) dropSub(sub *subscription) {
	sub.once.Do(func() {
		s.hub.mu.Lock()
		delete(s.hub.subs, sub)
		s.tel.Gauge("server.watch.active").Set(float64(len(s.hub.subs)))
		s.hub.mu.Unlock()
		s.mu.Lock()
		if sub.sc.subs[sub.stream] == sub {
			delete(sub.sc.subs, sub.stream)
		}
		s.mu.Unlock()
	})
}

// cancelSub is dropSub plus stopping the pusher (client cancel, conn
// teardown).
func (s *Server) cancelSub(sub *subscription) {
	s.dropSub(sub)
	sub.stop()
}

// pushLoop is the drain loop with one subscription's connection as the
// sink. A write that fails — including by exceeding the
// WatchWriteDeadline budget because the subscriber stopped reading —
// evicts the subscriber: its connection is closed and the subscription
// dropped, so one wedged consumer never stalls the fan-out for anyone
// else.
func (s *Server) pushLoop(sub *subscription) {
	defer s.wg.Done()
	defer close(sub.done)
	defer sub.stop()
	drain(sub.q, sub.ctx.Done(), nil, func(u WatchUpdate) bool {
		err := sub.sc.writeFrame(&muxFrame{Stream: sub.stream, Kind: mfUpdate, Update: &u},
			s.cfg.WatchWriteDeadline)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				s.tel.Counter("server.watch.evictions.stalled").Inc()
			} else {
				s.tel.Counter("server.watch.evictions.error").Inc()
			}
			// A blocked or broken stream cannot be resynced
			// mid-frame: evict by closing the whole connection.
			sub.sc.conn.Close()
			s.dropSub(sub)
			return false
		}
		s.tel.Counter("server.watch.deltas").Inc()
		if u.Final {
			s.tel.Counter("server.watch.final").Inc()
			s.dropSub(sub)
		}
		return true
	})
}

// DrainWatches ends every live subscription gracefully: each gets a
// terminal Final update, the pushers are given up to timeout to flush
// it, and the drained connections are closed. The HA layer calls it on
// demotion so subscribers of a deposed leader learn the stream ended
// cleanly and re-route, instead of reading stale pushes until the
// connection rots.
func (s *Server) DrainWatches(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	subs := s.hub.list()
	for _, sub := range subs {
		sub.q.push(WatchUpdate{Final: true})
	}
	for _, sub := range subs {
		select {
		case <-sub.done:
		case <-time.After(time.Until(deadline)):
		}
		sub.sc.conn.Close()
	}
}
