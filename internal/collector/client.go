package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// DefaultCallTimeout bounds one query round trip (dial + write + read):
// a hung or half-dead server must never block the Modeler forever.
const DefaultCallTimeout = 5 * time.Second

// DefaultRetryBackoff is the pause before the reconnect attempt after a
// failed call, giving a restarting server a moment to rebind.
const DefaultRetryBackoff = 100 * time.Millisecond

// ClientConfig tunes a client's failure behaviour. The zero value of
// each field selects its default.
type ClientConfig struct {
	// CallTimeout is the per-call I/O deadline (default
	// DefaultCallTimeout); negative disables deadlines. A sooner
	// context deadline tightens it per call.
	CallTimeout time.Duration
	// RetryBackoff is the wait between the failed attempt and the one
	// reconnect retry (default DefaultRetryBackoff); negative disables
	// the pause.
	RetryBackoff time.Duration
	// SingleAttempt disables the client's internal reconnect-and-retry.
	// FailoverSource sets it: when other replicas are available, trying
	// one of them beats retrying the replica that just failed.
	SingleAttempt bool

	// Telemetry, when non-nil, records per-call metrics (client.calls,
	// client.call.errors, client.call_ms). Nil disables client-side
	// metrics at zero cost.
	Telemetry *telemetry.Registry
}

func (cc *ClientConfig) fill() {
	if cc.CallTimeout == 0 {
		cc.CallTimeout = DefaultCallTimeout
	}
	if cc.RetryBackoff == 0 {
		cc.RetryBackoff = DefaultRetryBackoff
	}
}

// ioBudget bounds a dial and each frame write.
func (cc *ClientConfig) ioBudget() time.Duration {
	if cc.CallTimeout < 0 {
		return 0
	}
	return cc.CallTimeout
}

// errClientClosed reports calls on a Close()d client.
var errClientClosed = errors.New("collector: client is closed")

// errCallTimeout is the transport-level timeout for a call whose
// response never arrived within CallTimeout: the hung-server case,
// which (unlike a context deadline) drops the connection and retries.
var errCallTimeout = errors.New("collector: call timed out waiting for response")

// Client is a Source backed by a remote collector service. All calls
// share one multiplexed connection: any number may be in flight
// concurrently (pipelining), and watch subscriptions ride alongside
// them on their own streams.
type Client struct {
	remote
	addr string
	cfg  ClientConfig
	tel  *telemetry.Registry // nil = client-side metrics disabled
	dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	// connMu guards the connection pointer and the closed flag, so
	// Close can abort in-flight calls instead of queueing behind them.
	connMu sync.Mutex
	mc     *muxConn
	closed bool
}

// muxConn is one multiplexed connection. One read token says who reads
// the socket (DESIGN §21). A caller whose call is the only one
// outstanding takes it and reads frames itself until its own response
// arrives: the leader. A caller that finds the token taken waits for its
// response to be handed over: a follower. A leader done while other
// streams are outstanding — always, once a watch is live — passes the
// token to a background loop, which keeps it until none are. Every
// holder routes frames through readFrame. A transport error fails every
// outstanding stream at once — the conn is then dead and the client
// dials a fresh one.
type muxConn struct {
	conn net.Conn
	tel  *telemetry.Registry

	// br and readBy (the armed read deadline) belong to the token holder.
	br     *bufio.Reader
	readBy time.Time

	wmu     sync.Mutex // serializes frame writes
	writeBy time.Time  // armed write deadline; under wmu

	mu      sync.Mutex
	nextID  uint64
	reading bool                      // the read token is taken
	calls   map[uint64]chan *response // followers' waiters
	watches map[uint64]*clientWatch
	err     error
	done    chan struct{} // closed by fail()
}

// clientWatch is the client half of one subscription stream.
type clientWatch struct {
	q      *watchQueue
	handle *WatchHandle // set (under muxConn.mu) once the ack arrives
}

// Dial connects to a collector service with default timeouts.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// newClient builds an unconnected client whose query surface calls
// through itself.
func newClient(addr string, cfg ClientConfig, tel *telemetry.Registry) *Client {
	c := &Client{addr: addr, cfg: cfg, tel: tel, dial: net.DialTimeout}
	c.remote = remote{c}
	return c
}

// DialConfig connects to a collector service with explicit failure
// behaviour.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := newClient(addr, cfg, cfg.Telemetry)
	if _, err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials a fresh multiplexed connection and installs it, unless
// a concurrent caller already installed a live one (then that one is
// kept and the extra dial discarded).
func (c *Client) connect() (*muxConn, error) {
	conn, err := c.dial("tcp", c.addr, c.cfg.ioBudget())
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		conn.Close()
		return nil, errClientClosed
	}
	if c.mc != nil && c.mc.failure() == nil {
		conn.Close()
		return c.mc, nil
	}
	mc := &muxConn{
		conn: conn, br: bufio.NewReader(conn), tel: c.tel,
		calls:   make(map[uint64]chan *response),
		watches: make(map[uint64]*clientWatch),
		done:    make(chan struct{}),
	}
	c.mc = mc
	return mc, nil
}

// getConn returns the live connection, dialing one if needed.
func (c *Client) getConn() (*muxConn, error) {
	c.connMu.Lock()
	mc, closed := c.mc, c.closed
	c.connMu.Unlock()
	if closed {
		return nil, errClientClosed
	}
	if mc != nil && mc.failure() == nil {
		return mc, nil
	}
	return c.connect()
}

// Close tears down the connection. In-flight calls are aborted (they
// fail immediately) and watch subscriptions end with Err() set.
func (c *Client) Close() error {
	c.connMu.Lock()
	c.closed = true
	mc := c.mc
	c.mc = nil
	c.connMu.Unlock()
	if mc != nil {
		mc.close(errClientClosed)
	}
	return nil
}

// dropConn discards a specific connection (its server hung): outstanding
// streams on it fail, and the next call reconnects on a clean one. A
// different, newer connection installed meanwhile is left alone.
func (c *Client) dropConn(mc *muxConn) {
	if mc == nil {
		return
	}
	c.connMu.Lock()
	if c.mc == mc {
		c.mc = nil
	}
	c.connMu.Unlock()
	mc.close(fmt.Errorf("collector: connection dropped"))
}

// failure is the error the connection died of (nil while it lives).
func (mc *muxConn) failure() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err
}

// close fails the connection with err and closes the socket.
func (mc *muxConn) close(err error) {
	mc.fail(err)
	mc.conn.Close()
}

// fail marks the connection dead exactly once: every waiting call sees
// err via the done channel, and every live watch ends with Err() set
// after its already-received updates drain. The watches' errors are set
// before done closes: a watch's drain loop ends on done and closes its
// channel, and a reader that finds the channel closed with Err() nil
// takes it for a cancel, not a transport loss (FailoverSource.Watch
// would not re-subscribe).
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return
	}
	mc.err = err
	for _, w := range mc.watches {
		if w.handle != nil {
			w.handle.setErr(err)
		}
	}
	mc.watches = make(map[uint64]*clientWatch)
	close(mc.done)
}

// passToken ends a leader's turn: while other streams are outstanding
// the background loop takes the token over, otherwise it is free.
func (mc *muxConn) passToken() {
	mc.mu.Lock()
	pass := mc.err == nil && (len(mc.calls) > 0 || len(mc.watches) > 0)
	mc.reading = pass
	mc.mu.Unlock()
	if pass {
		go mc.loop()
	}
}

// loop holds the read token while streams other than a leader's are
// outstanding. It never sets a read deadline: liveness is the per-call
// waiter's job, and a watch-only connection is legitimately quiet.
func (mc *muxConn) loop() {
	mc.armRead(time.Time{})
	for {
		if _, err := mc.readFrame(0, time.Time{}); err != nil {
			return
		}
		mc.mu.Lock()
		idle := len(mc.calls) == 0 && len(mc.watches) == 0
		mc.reading = !idle
		mc.mu.Unlock()
		if idle {
			return
		}
	}
}

// armRead sets the read deadline to t unless it is armed there already.
// Token holder only.
func (mc *muxConn) armRead(t time.Time) {
	if !t.Equal(mc.readBy) {
		mc.conn.SetReadDeadline(t)
		mc.readBy = t
	}
}

// readFrame reads the next frame and routes it: a response to its
// stream's waiter — or, for stream own, back to the caller — and an
// update to its watch's queue. Responses for departed streams (a call
// that timed out or was cancelled) and unknown kinds are discarded. A
// frame whose body is not buffered yet is read to the end under bodyBy.
// Any read error closes the connection: past a header the stream cannot
// be resynced. Token holder only.
func (mc *muxConn) readFrame(own uint64, bodyBy time.Time) (*response, error) {
	var f muxFrame
	hdr, err := mc.br.Peek(4)
	if err == nil {
		if mc.br.Buffered() < 4+int(binary.BigEndian.Uint32(hdr)) {
			mc.armRead(bodyBy)
		}
		err = readFrame(mc.br, &f, DefaultMaxFrame)
	}
	if err != nil {
		mc.close(err)
		return nil, mc.failure()
	}
	switch {
	case f.Kind == mfResponse && f.Resp != nil && f.Stream == own:
		return f.Resp, nil
	case f.Kind == mfResponse && f.Resp != nil:
		mc.mu.Lock()
		ch := mc.calls[f.Stream]
		delete(mc.calls, f.Stream)
		mc.mu.Unlock()
		if ch != nil {
			ch <- f.Resp // cap 1, waiter may already be gone
		}
	case f.Kind == mfUpdate && f.Update != nil:
		mc.mu.Lock()
		w := mc.watches[f.Stream]
		if w != nil && f.Update.Final {
			// A clean terminal frame: deregister now so a transport
			// error right behind it cannot mark this stream failed.
			delete(mc.watches, f.Stream)
		}
		mc.mu.Unlock()
		if w != nil {
			if _, dropped := w.q.push(*f.Update); dropped {
				mc.tel.Counter("client.watch.drops.overflow").Inc()
			}
		}
	}
	return nil, nil
}

// aLongTimeAgo is a read deadline that ends a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// headerCancel lets a leader's context cancel interrupt its wait for a
// frame header, and nothing else: it moves the read deadline into the
// past only while the leader is between frames, so a cancelled call
// never leaves a frame half read.
type headerCancel struct {
	conn net.Conn

	mu      sync.Mutex
	between bool // the leader waits for a header
	hit     bool // a cancel moved the deadline
}

func (hc *headerCancel) interrupt() {
	hc.mu.Lock()
	if hc.between {
		hc.conn.SetReadDeadline(aLongTimeAgo)
		hc.hit = true
	}
	hc.mu.Unlock()
}

// waiting marks whether the leader waits for a header and reports
// whether a cancel moved the deadline since the last mark. A nil
// headerCancel (a context that cannot be cancelled) is never hit.
func (hc *headerCancel) waiting(on bool) (hit bool) {
	if hc == nil {
		return false
	}
	hc.mu.Lock()
	hc.between, hit, hc.hit = on, hc.hit, false
	hc.mu.Unlock()
	return hit
}

// lead reads frames as the token holder until the response on stream id
// arrives. The connection's read deadline enforces CallTimeout and the
// context's deadline; a context cancel ends only a wait for a header.
// The header wait that runs out keeps the connection when the context
// ended it and reports errCallTimeout (the caller drops the connection)
// when CallTimeout did.
func (mc *muxConn) lead(ctx context.Context, id uint64, cfg *ClientConfig) (*response, error) {
	var callBy time.Time
	if cfg.CallTimeout > 0 {
		callBy = time.Now().Add(cfg.CallTimeout)
	}
	waitBy := callBy
	if dl, ok := ctx.Deadline(); ok && (waitBy.IsZero() || dl.Before(waitBy)) {
		waitBy = dl
	}
	var hc *headerCancel
	if ctx.Done() != nil {
		hc = &headerCancel{conn: mc.conn}
		stop := context.AfterFunc(ctx, hc.interrupt)
		defer stop()
	}
	for {
		if mc.br.Buffered() < 4 {
			mc.armRead(waitBy)
			hc.waiting(true)
			var err error
			if err = ctxError(ctx); err == nil {
				_, err = mc.br.Peek(4)
			}
			if hc.waiting(false) {
				mc.readBy = aLongTimeAgo
			}
			if err != nil {
				// No header is in (bufio keeps a partial one): the
				// stream is intact if the wait merely ran out.
				if errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
					if cerr := ctxCallError(ctx); cerr != nil {
						return nil, cerr
					}
					if !callBy.IsZero() && !time.Now().Before(callBy) {
						return nil, errCallTimeout
					}
				}
				mc.close(err)
				return nil, mc.failure()
			}
		}
		resp, err := mc.readFrame(id, callBy)
		if resp != nil || err != nil {
			return resp, err
		}
	}
}

// writeMux writes one frame under the write lock with a bounded write
// deadline. A failed write closes the connection whatever the caller's
// context says: part of the frame may be on the wire.
func (mc *muxConn) writeMux(f *muxFrame, budget time.Duration) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	if budget > 0 {
		if dl, ok := slackDeadline(mc.writeBy, time.Now(), budget); ok {
			mc.conn.SetWriteDeadline(dl)
			mc.writeBy = dl
		}
	}
	err := writeFrame(mc.conn, f, DefaultMaxFrame)
	if err != nil {
		mc.close(err)
	}
	return err
}

// roundTrip sends one request on a fresh stream and returns its
// response. With the read token free the caller leads (lead); otherwise
// it waits until the context ends (typed ctx error, connection kept —
// the late response is discarded), CallTimeout expires (hung-server
// suspicion — the caller drops the connection), or the connection dies.
func (mc *muxConn) roundTrip(ctx context.Context, req *request, cfg *ClientConfig) (*response, error) {
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.nextID++
	id := mc.nextID
	leads := !mc.reading
	mc.reading = true
	var ch chan *response
	if !leads {
		ch = make(chan *response, 1)
		mc.calls[id] = ch
	}
	mc.mu.Unlock()
	if leads {
		defer mc.passToken()
	} else {
		defer func() {
			mc.mu.Lock()
			delete(mc.calls, id)
			mc.mu.Unlock()
		}()
	}

	req.BudgetMS = 0
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.BudgetMS = rem.Seconds() * 1000
		}
	}
	if err := mc.writeMux(&muxFrame{Stream: id, Kind: mfRequest, Req: req}, cfg.ioBudget()); err != nil {
		return nil, err
	}
	if leads {
		return mc.lead(ctx, id, cfg)
	}
	return mc.await(ctx, ch, cfg)
}

// await waits for the response handed over on ch until the context
// ends, CallTimeout expires or the connection dies.
func (mc *muxConn) await(ctx context.Context, ch chan *response, cfg *ClientConfig) (*response, error) {
	var timeout <-chan time.Time
	if cfg.CallTimeout > 0 {
		t := time.NewTimer(cfg.CallTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, ctxError(ctx)
	case <-timeout:
		return nil, errCallTimeout
	case <-mc.done:
		return nil, mc.failure()
	}
}

// call sends one request and reads its response, honouring ctx: the
// remaining context budget rides in the request frame as a hint for
// server-side enforcement, and cancellation or an expired deadline
// abandons the wait immediately (typed error) without killing the
// shared connection. Transport failures — a failed write, a read that
// broke off mid-frame, a dead conn, a hung server — drop the connection
// so concurrent streams fail fast and the next call starts clean.
func (c *Client) call(ctx context.Context, req *request) (_ *response, retErr error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	req.TraceID = telemetry.TraceFrom(ctx)
	callStart := time.Now()
	defer func() {
		c.tel.Counter("client.calls").Inc()
		if retErr != nil {
			c.tel.Counter("client.call.errors").Inc()
		}
		c.tel.Quantile("client.call_ms", 0).
			Observe(float64(time.Since(callStart)) / float64(time.Millisecond))
	}()
	attempt := func() (*response, error) {
		mc, err := c.getConn()
		if err != nil {
			return nil, err
		}
		resp, err := mc.roundTrip(ctx, req, &c.cfg)
		if err != nil && ctxCallError(ctx) == nil {
			// Not a caller-side deadline: this conn is suspect (dead, or
			// its server hung); fail it over. Errors that broke the
			// stream closed it already, whatever the context says.
			c.dropConn(mc)
		}
		return resp, err
	}
	resp, err := attempt()
	if err != nil {
		if cerr := ctxCallError(ctx); cerr != nil {
			return nil, fmt.Errorf("%w (%v)", cerr, err)
		}
		// One reconnect after a short backoff: the server may be
		// restarting; retrying instantly tends to race its rebind. A
		// frame-size rejection is not retryable — the peer is broken.
		if c.cfg.SingleAttempt || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, errClientClosed) {
			return nil, err
		}
		if c.cfg.RetryBackoff > 0 && !sleepCtx(ctx, c.cfg.RetryBackoff) {
			return nil, ctxError(ctx)
		}
		resp, err = attempt()
		if err != nil {
			if cerr := ctxCallError(ctx); cerr != nil {
				return nil, fmt.Errorf("%w (%v)", cerr, err)
			}
			return nil, err
		}
	}
	return decodeResponse(resp)
}

// Watch implements WatchSource over the wire: the subscription rides
// its own stream on the shared multiplexed connection, so ordinary
// pipelined calls continue unaffected beside it. ctx bounds the
// subscribe handshake and, if it ends later, cancels the subscription.
func (c *Client) Watch(ctx context.Context, wr WatchRequest) (*WatchHandle, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	if !validWatchKind(wr.Kind) {
		return nil, fmt.Errorf("collector: unknown watch kind %q", wr.Kind)
	}
	h, err := c.subscribeOnce(ctx, wr)
	if err == nil {
		return h, nil
	}
	if cerr := ctxCallError(ctx); cerr != nil {
		return nil, fmt.Errorf("%w (%v)", cerr, err)
	}
	if c.cfg.SingleAttempt || IsLifecycleError(err) || errors.Is(err, ErrTooManySubscriptions) ||
		errors.Is(err, errClientClosed) {
		return nil, err
	}
	// One reconnect-and-retry for transport failures, like call().
	if c.cfg.RetryBackoff > 0 && !sleepCtx(ctx, c.cfg.RetryBackoff) {
		return nil, ctxError(ctx)
	}
	return c.subscribeOnce(ctx, wr)
}

func (c *Client) subscribeOnce(ctx context.Context, wr WatchRequest) (*WatchHandle, error) {
	mc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	h, err := mc.subscribe(ctx, wr, &c.cfg)
	if err != nil && ctxCallError(ctx) == nil && !errors.Is(err, ErrServerBusy) &&
		!errors.Is(err, ErrTooManySubscriptions) {
		c.dropConn(mc)
	}
	if err == nil {
		c.tel.Counter("client.watch.subscribed").Inc()
	}
	return h, err
}

// subscribe opens one watch stream: it registers the stream BEFORE
// writing the request so an update racing ahead of the ack is queued,
// not lost, then waits for the subscribe ack.
func (mc *muxConn) subscribe(ctx context.Context, wr WatchRequest, cfg *ClientConfig) (*WatchHandle, error) {
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.nextID++
	id := mc.nextID
	ackCh := make(chan *response, 1)
	mc.calls[id] = ackCh
	w := &clientWatch{q: newWatchQueue(0)}
	mc.watches[id] = w
	loop := !mc.reading // a live watch keeps the background loop reading
	mc.reading = true
	mc.mu.Unlock()
	if loop {
		go mc.loop()
	}
	abort := func() {
		mc.mu.Lock()
		delete(mc.calls, id)
		delete(mc.watches, id)
		mc.mu.Unlock()
	}

	req := &request{Op: "watch", Watch: &wr, TraceID: telemetry.TraceFrom(ctx)}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.BudgetMS = rem.Seconds() * 1000
		}
	}
	if err := mc.writeMux(&muxFrame{Stream: id, Kind: mfRequest, Req: req}, cfg.ioBudget()); err != nil {
		abort()
		return nil, err
	}
	resp, err := mc.await(ctx, ackCh, cfg)
	if err == nil {
		_, err = decodeResponse(resp)
	}
	if err != nil {
		abort()
		if ctx.Err() != nil {
			mc.writeMux(&muxFrame{Stream: id, Kind: mfCancel}, cfg.ioBudget())
		}
		return nil, err
	}

	h := newWatchHandle(0)
	mc.mu.Lock()
	if mc.err != nil {
		// The conn died between the ack and now; fail() already swept
		// the watch map, so surface the error directly.
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	w.handle = h
	mc.mu.Unlock()
	h.cancelFn = func() {
		mc.mu.Lock()
		delete(mc.watches, id)
		mc.mu.Unlock()
		// Best-effort: tell the server to stop pushing. Run it off the
		// canceller's goroutine — the write can block on a sick conn.
		go mc.writeMux(&muxFrame{Stream: id, Kind: mfCancel}, cfg.ioBudget())
	}
	// The drain loop ends at Cancel or Final; when the connection dies it
	// first hands over the updates already received.
	go h.forward(w.q, mc.done, context.AfterFunc(ctx, h.Cancel))
	return h, nil
}

// decodeResponse maps a wire response to the client-side error surface:
// typed refusal codes become their sentinel errors; an Err string with
// codeOK is an authoritative application-level error.
func decodeResponse(resp *response) (*response, error) {
	switch resp.Code {
	case codeOK:
		if resp.Err != "" {
			if resp.Err == busyMsg {
				return resp, ErrServerBusy
			}
			return resp, fmt.Errorf("%s", resp.Err)
		}
		return resp, nil
	case codeBusy:
		return resp, ErrServerBusy
	case codeDeadline:
		return resp, fmt.Errorf("server refused: %w", ErrDeadlineExceeded)
	case codeShed:
		return resp, &ShedError{RetryAfter: time.Duration(resp.RetryAfterMS * float64(time.Millisecond))}
	case codeWatchLimit:
		return resp, ErrTooManySubscriptions
	case codeStale:
		return resp, ErrStaleReplica
	case codeNotLeader:
		return resp, &NotLeaderError{Leader: resp.LeaderHint}
	case codeMatrixSize:
		return resp, fmt.Errorf("%w (%s)", ErrMatrixTooLarge, resp.Err)
	case codeMatrixUnsup:
		return resp, ErrMatrixUnsupported
	default:
		return resp, fmt.Errorf("collector: unknown response code %d (%s)", resp.Code, resp.Err)
	}
}

// caller abstracts "send one request, get one response": a Client makes
// it over one connection, a FailoverSource routes it across a replica
// set.
type caller interface {
	call(ctx context.Context, req *request) (*response, error)
}

// remote is the query surface of a dialed collector — Source,
// HealthSource, MatrixSource, ReadSource and the telemetry
// snapshot — written once over a caller. Client and FailoverSource embed it,
// pointing at themselves.
type remote struct{ caller }

// TopologyCtx implements Source.
func (r remote) TopologyCtx(ctx context.Context) (*Topology, error) {
	resp, err := r.call(ctx, &request{Op: "topo"})
	if err != nil {
		return nil, err
	}
	if resp.Topo == nil {
		return nil, fmt.Errorf("collector: server answered topology query without a topology")
	}
	return topoFromWireChecked(resp.Topo)
}

// Health implements HealthSource: the answering collector's per-agent
// health snapshot (nil when the server cannot provide one).
func (r remote) Health() map[graph.NodeID]AgentHealth {
	resp, err := r.call(context.Background(), &request{Op: "health"})
	if err != nil {
		return nil
	}
	out := make(map[graph.NodeID]AgentHealth, len(resp.Health))
	for id, h := range resp.Health {
		out[graph.NodeID(id)] = h
	}
	return out
}

// TelemetrySnapshot fetches the answering server's merged metrics
// snapshot (the "stats" op): the server's own registry plus its
// Source's, when the Source exposes one.
func (r remote) TelemetrySnapshot(ctx context.Context) (*telemetry.Snapshot, error) {
	resp, err := r.call(ctx, &request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Telemetry == nil {
		return nil, fmt.Errorf("collector: server answered stats query without a snapshot")
	}
	return resp.Telemetry, nil
}

// PingCtx issues a liveness round trip within ctx: any answer from the
// server counts.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.call(ctx, &request{Op: "ping"})
	return err
}
