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
	cancelCh chan struct{}
	cancelFn func() // extra teardown (sends mfCancel, unsubscribes, ...)
	once     sync.Once

	mu  sync.Mutex
	err error
}

func newWatchHandle(buf int) *WatchHandle {
	out := make(chan WatchUpdate, buf)
	return &WatchHandle{C: out, out: out, cancelCh: make(chan struct{})}
}

// Cancel stops the subscription. Idempotent; C closes shortly after.
func (h *WatchHandle) Cancel() {
	h.once.Do(func() {
		close(h.cancelCh)
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
// whether an entry was dropped.
func (q *watchQueue) push(u WatchUpdate) (dropped bool) {
	q.mu.Lock()
	if q.sealed {
		q.mu.Unlock()
		return false
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
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return dropped
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

func (q *watchQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// watchEval is one subscription's evaluation state, owned by a single
// evaluator goroutine (the server's watchLoop, or an in-process
// watcher). It decides, per epoch, whether the answer changed enough
// to push.
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

// ---- server-side subscription registry ----

// subscription is one server-side watch: a bounded queue filled by the
// server's watchLoop and drained by a per-subscription pusher goroutine
// that writes mfUpdate frames on the subscriber's connection.
type subscription struct {
	stream uint64
	sc     *servedConn
	eval   watchEval
	q      *watchQueue
	cancel chan struct{} // closed to stop the pusher
	done   chan struct{} // closed when the pusher exits
	once   sync.Once
}

// registerWatch admits one watch request on a connection: the response
// is its subscribe ack (or typed refusal), sub is non-nil on success.
func (s *Server) registerWatch(sc *servedConn, stream uint64, req *request) (*response, *subscription) {
	if req.Watch == nil || !validWatchKind(req.Watch.Kind) {
		return &response{Err: fmt.Sprintf("collector: malformed watch request (kind %q)",
			func() string {
				if req.Watch == nil {
					return "<nil>"
				}
				return req.Watch.Kind
			}())}, nil
	}
	if req.Watch.Kind == WatchFeed {
		// Capability check at the handshake: a replica pointed at a
		// source that cannot feed it should fail its subscribe loudly,
		// not receive error updates forever.
		if _, ok := s.src.(FeedSource); !ok {
			return &response{Err: "collector: source does not support feed subscriptions"}, nil
		}
	}
	if req.Watch.Kind == WatchRegionSummary {
		// Same loud handshake failure for federation subscriptions.
		if _, ok := s.src.(RegionSummarySource); !ok {
			return &response{Err: "collector: source does not support region summaries"}, nil
		}
	}
	if s.cfg.Gate != nil {
		// HA gating: a standby refuses new subscriptions (including feed
		// subs — replicas must follow the leader) with a typed refusal
		// carrying the leader hint, so subscribers re-route.
		if err := s.cfg.Gate("watch"); err != nil {
			resp := &response{}
			appError(resp, err)
			return resp, nil
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
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.watchMu.Lock()
	if s.cfg.WatchMaxSubs > 0 && len(s.watchSubs) >= s.cfg.WatchMaxSubs {
		s.watchMu.Unlock()
		s.tel.Counter("server.watch.refusals.limit").Inc()
		return &response{Err: ErrTooManySubscriptions.Error(), Code: codeWatchLimit}, nil
	}
	s.watchSubs[sub] = struct{}{}
	s.tel.Gauge("server.watch.active").Set(float64(len(s.watchSubs)))
	s.watchMu.Unlock()
	sc.addSub(sub)
	s.tel.Counter("server.watch.subscribed").Inc()
	s.wg.Add(1)
	go s.pushLoop(sub)
	return &response{}, sub
}

// dropSub removes a subscription from the registry (idempotent).
func (s *Server) dropSub(sub *subscription) {
	sub.once.Do(func() {
		s.watchMu.Lock()
		delete(s.watchSubs, sub)
		s.tel.Gauge("server.watch.active").Set(float64(len(s.watchSubs)))
		s.watchMu.Unlock()
		sub.sc.removeSub(sub)
	})
}

// cancelSub is dropSub plus stopping the pusher (client cancel, conn
// teardown).
func (s *Server) cancelSub(sub *subscription) {
	s.dropSub(sub)
	select {
	case <-sub.cancel:
	default:
		close(sub.cancel)
	}
}

// pushLoop drains one subscription's queue onto its connection. A
// write that fails — including by exceeding the WatchWriteDeadline
// budget because the subscriber stopped reading — evicts the
// subscriber: its connection is closed and the subscription dropped,
// so one wedged consumer never stalls the fan-out for anyone else.
func (s *Server) pushLoop(sub *subscription) {
	defer s.wg.Done()
	defer close(sub.done)
	for {
		select {
		case <-sub.q.wake:
		case <-sub.cancel:
			return
		case <-s.watchCtx.Done():
			return
		}
		for {
			u, ok := sub.q.pop()
			if !ok {
				break
			}
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
				return
			}
			s.tel.Counter("server.watch.deltas").Inc()
			if u.Final {
				s.tel.Counter("server.watch.final").Inc()
				s.dropSub(sub)
				return
			}
		}
	}
}

// watchLoop is the server's single evaluator: it wakes on source
// version notifications (VersionNotifier), or on a poll ticker when
// the source offers none, plus a kick whenever a subscription
// registers, and evaluates every live subscription at the new epoch.
// One goroutine evaluates for all subscribers; per-subscriber queues
// and pushers keep one slow consumer from stalling the rest.
func (s *Server) watchLoop() {
	defer s.wg.Done()
	var notify <-chan struct{}
	if vn, ok := s.src.(VersionNotifier); ok {
		ch, release := vn.SubscribeVersion()
		notify = ch
		defer release()
	}
	var tickC <-chan time.Time
	if notify == nil {
		t := time.NewTicker(s.cfg.WatchPollInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-s.watchCtx.Done():
			return
		case <-notify:
		case <-tickC:
		case <-s.watchKick:
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			continue // drainWatches owns the terminal updates now
		}
		s.evalWatches()
	}
}

// haTermOf reads the source's HA lease term for stamping on watch
// updates (0 when the source has no HA state).
func haTermOf(src Source) uint64 {
	if hs, ok := src.(HAStatusSource); ok {
		if term, _, on := hs.HAStatus(); on {
			return term
		}
	}
	return 0
}

// evalWatches runs one evaluation round over all live subscriptions.
func (s *Server) evalWatches() {
	s.watchMu.Lock()
	subs := make([]*subscription, 0, len(s.watchSubs))
	for sub := range s.watchSubs {
		subs = append(subs, sub)
	}
	s.watchMu.Unlock()
	if len(subs) == 0 {
		return
	}
	epoch := s.watchEpoch()
	term := haTermOf(s.src)
	peak := 0
	for _, sub := range subs {
		u, ok := sub.eval.eval(s.watchCtx, s.src, epoch)
		if !ok {
			continue
		}
		u.Term = term
		if sub.q.push(u) {
			s.tel.Counter("server.watch.drops.overflow").Inc()
		}
		if l := sub.q.len(); l > peak {
			peak = l
		}
	}
	if g := s.tel.Gauge("server.watch.queue.peak"); float64(peak) > g.Value() {
		g.Set(float64(peak))
	}
}

// watchEpoch returns the current epoch: the source's data version when
// it reports one, otherwise a synthetic counter that advances per
// evaluation round (so unversioned sources degrade to poll-rate
// epochs instead of losing the feature).
func (s *Server) watchEpoch() uint64 {
	if vs, ok := s.src.(VersionedSource); ok {
		if v, vok := vs.DataVersion(); vok {
			return v
		}
	}
	s.synthEpoch++
	return s.synthEpoch
}

// DrainWatches ends every live subscription gracefully: each gets a
// terminal Final update, the pushers are given up to timeout to flush
// it, and the drained connections are closed. The HA layer calls it on
// demotion so subscribers of a deposed leader learn the stream ended
// cleanly and re-route, instead of reading stale pushes until the
// connection rots.
func (s *Server) DrainWatches(timeout time.Duration) {
	s.drainWatches(time.Now().Add(timeout))
}

// drainWatches pushes a terminal Final update to every live
// subscription and waits (until deadline) for the pushers to flush it,
// then closes the drained connections so their read loops exit.
func (s *Server) drainWatches(deadline time.Time) {
	s.watchMu.Lock()
	subs := make([]*subscription, 0, len(s.watchSubs))
	for sub := range s.watchSubs {
		subs = append(subs, sub)
	}
	s.watchMu.Unlock()
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

// ---- in-process watch (Collector) ----

// SubscribeVersion implements VersionNotifier: ch receives (coalesced)
// after every data-version bump until release is called.
func (c *Collector) SubscribeVersion() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.versionMu.Lock()
	if c.versionSubs == nil {
		c.versionSubs = make(map[chan struct{}]struct{})
	}
	c.versionSubs[ch] = struct{}{}
	c.versionMu.Unlock()
	release := func() {
		c.versionMu.Lock()
		delete(c.versionSubs, ch)
		c.versionMu.Unlock()
	}
	return ch, release
}

// notifyVersion signals subscribed watchers after a dataVersion bump.
// Non-blocking: a watcher that has not consumed the previous signal is
// already going to re-read the latest version.
func (c *Collector) notifyVersion() {
	c.versionMu.Lock()
	for ch := range c.versionSubs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	c.versionMu.Unlock()
}

// Watch implements WatchSource in-process: same evaluation and
// bounded-queue semantics as the TCP server, minus the wire.
func (c *Collector) Watch(ctx context.Context, req WatchRequest) (*WatchHandle, error) {
	return WatchLocal(ctx, c, req)
}

// watchLocal runs a watch evaluation loop against an in-process
// source: notifier-driven when available, poll-driven otherwise.
func watchLocal(ctx context.Context, src Source, vn VersionNotifier, req WatchRequest, depth int) *WatchHandle {
	h := newWatchHandle(0)
	q := newWatchQueue(depth)
	var notify <-chan struct{}
	var release func()
	if vn != nil {
		notify, release = vn.SubscribeVersion()
	}
	var tickC <-chan time.Time
	var tick *time.Ticker
	if notify == nil {
		tick = time.NewTicker(DefaultWatchPollInterval)
		tickC = tick.C
	}
	stop := context.AfterFunc(ctx, h.Cancel)
	eval := watchEval{req: req}
	var synth uint64
	epochOf := func() uint64 {
		if vs, ok := src.(VersionedSource); ok {
			if v, vok := vs.DataVersion(); vok {
				return v
			}
		}
		synth++
		return synth
	}
	// Evaluator: pushes into the bounded queue.
	go func() {
		defer func() {
			if release != nil {
				release()
			}
			if tick != nil {
				tick.Stop()
			}
		}()
		for {
			if u, ok := eval.eval(ctx, src, epochOf()); ok {
				u.Term = haTermOf(src)
				q.push(u)
			}
			select {
			case <-h.cancelCh:
				return
			case <-notify:
			case <-tickC:
			}
		}
	}()
	// Forwarder: drains the queue onto the handle's channel.
	go func() {
		defer stop()
		defer close(h.out)
		for {
			select {
			case <-q.wake:
			case <-h.cancelCh:
				return
			}
			for {
				u, ok := q.pop()
				if !ok {
					break
				}
				select {
				case h.out <- u:
				case <-h.cancelCh:
					return
				}
				if u.Final {
					return
				}
			}
		}
	}()
	return h
}
