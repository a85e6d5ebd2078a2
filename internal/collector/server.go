package collector

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The TCP query service: how an application's Modeler reaches a
// Collector running as a separate process (the deployment in the paper's
// Figure 2). Virtual-time experiments use the Collector in-process; this
// service exists for daemon mode and is covered by real-socket
// integration tests.
//
// Wire format: length-prefixed stateless binary frames (frame.go,
// layout in codec.go), each carrying a stream-multiplexed envelope
// (mux.go). A connection multiplexes any number of concurrent
// request/response streams — the client pipelines ordinary queries and
// the server answers each as its handler finishes — plus long-lived
// watch subscription streams (watch.go). Each request may carry a
// deadline-budget hint (BudgetMS); the server enforces it — a request
// whose budget expires in the admission queue or before compute starts
// is answered with a typed deadline refusal instead of a dead answer.

// DefaultIdleTimeout is how long a connection may sit between requests
// (or mid-frame) before the server drops it: a client that connects and
// sends nothing — or a truncated frame — must not pin a goroutine and
// an FD forever.
const DefaultIdleTimeout = 2 * time.Minute

// ErrServerBusy is the typed refusal a server at its connection cap
// answers with instead of silently queueing the client. Clients surface
// it via errors.Is; FailoverSource treats it as "try another replica".
var ErrServerBusy = errors.New("collector: server busy")

// busyMsg is ErrServerBusy's wire form (errors travel as text).
var busyMsg = ErrServerBusy.Error()

// ServerConfig tunes the server's lifecycle protections. The zero value
// of each field selects its default.
type ServerConfig struct {
	// IdleTimeout bounds a connection's silence between and within
	// request frames, and each response write, at T to 5T/4 (default
	// DefaultIdleTimeout); negative disables it. A client that stops
	// reading cannot pin the serving goroutine.
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections; connections beyond
	// the cap are answered with ErrServerBusy and closed. Zero means
	// unlimited.
	MaxConns int

	// MaxInflight caps concurrent work units across all connections (a
	// weighted semaphore; opTable prices each op). Zero disables
	// admission control.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for work units;
	// arrivals beyond it are shed with a typed retry-after refusal.
	// Only meaningful with MaxInflight > 0; zero means no queue (shed
	// immediately when the semaphore is full).
	QueueDepth int
	// DefaultBudget is the per-request time budget applied when the
	// client declares none. Zero means unbudgeted requests wait at most
	// DefaultQueueWait in admission and are never refused for time.
	DefaultBudget time.Duration

	// WatchQueueDepth bounds each watch subscriber's pending-delta
	// queue (default DefaultWatchQueueDepth). On overflow the oldest
	// delta is dropped and the next delivered one carries an
	// Overflowed mark.
	WatchQueueDepth int
	// WatchWriteDeadline is the per-update write budget for watch
	// pushes (default DefaultWatchWriteDeadline): a subscriber whose
	// connection stays blocked past it is evicted instead of wedging
	// its pusher.
	WatchWriteDeadline time.Duration
	// WatchMaxSubs caps live subscriptions across all connections
	// (default DefaultWatchMaxSubs); registrations beyond it get a
	// typed ErrTooManySubscriptions refusal. Negative means unlimited.
	WatchMaxSubs int
	// WatchPollInterval is the evaluation period used when the Source
	// offers no version notifications (default
	// DefaultWatchPollInterval).
	//reach:keep tests poll unversioned sources every few ms to finish within their timeouts
	WatchPollInterval time.Duration

	// Matrix, when non-nil, serves the "matrix" op (one rectangular
	// batch of flow answers per round trip, matrixwire.go). Wire it to
	// core.MatrixHandler over a Modeler built on the same Source. When
	// nil, a Source that itself implements MatrixSource is forwarded
	// to; otherwise the op answers ErrMatrixUnsupported and clients
	// fall back to per-pair queries.
	Matrix MatrixHandler
	// MaxMatrixCells caps a matrix request's area, len(Srcs)*len(Dsts)
	// (default DefaultMaxMatrixCells; negative = unlimited). Requests
	// beyond it get a typed, non-retryable ErrMatrixTooLarge.
	//reach:keep TestMatrixAdmissionRefusal needs a cap the 8-host testbed can exceed
	MaxMatrixCells int

	// Gate, when non-nil, is consulted before every query and watch
	// registration whose op is not exempt (opTable); a non-nil return
	// refuses the request with that error's typed wire form. The HA
	// layer installs a gate that answers ErrNotLeader (plus a leader
	// hint) on standbys.
	Gate func() error
}

// Watch subscription defaults; see the matching ServerConfig fields.
const (
	DefaultWatchQueueDepth    = 16
	DefaultWatchWriteDeadline = 2 * time.Second
	DefaultWatchMaxSubs       = 1024
	DefaultWatchPollInterval  = 100 * time.Millisecond
)

func (sc *ServerConfig) fill() {
	if sc.IdleTimeout == 0 {
		sc.IdleTimeout = DefaultIdleTimeout
	}
	if sc.WatchQueueDepth <= 0 {
		sc.WatchQueueDepth = DefaultWatchQueueDepth
	}
	if sc.WatchWriteDeadline <= 0 {
		sc.WatchWriteDeadline = DefaultWatchWriteDeadline
	}
	if sc.WatchMaxSubs == 0 {
		sc.WatchMaxSubs = DefaultWatchMaxSubs
	}
	if sc.WatchPollInterval <= 0 {
		sc.WatchPollInterval = DefaultWatchPollInterval
	}
	if sc.MaxMatrixCells == 0 {
		sc.MaxMatrixCells = DefaultMaxMatrixCells
	}
}

// RegisterFlags declares the query-service flags a daemon shares with
// every other daemon that serves queries, each setting its field of sc,
// and -drain-timeout, whose value it returns.
func (sc *ServerConfig) RegisterFlags(fs *flag.FlagSet) (drainTimeout *time.Duration) {
	fs.IntVar(&sc.MaxConns, "max-conns", 256, "max concurrent client connections (0 = unlimited); extras get a typed busy refusal")
	fs.DurationVar(&sc.IdleTimeout, "idle-timeout", DefaultIdleTimeout, "per-connection idle read deadline (negative disables)")
	fs.IntVar(&sc.MaxInflight, "max-inflight", 64, "admission control: max concurrent work units across all connections (0 disables; topo=4, read=1+N/16 for N channels and hosts, matrix=1+N*M/256 for N*M cells, ping free, other=1)")
	fs.IntVar(&sc.QueueDepth, "queue-depth", 128, "admission control: max requests waiting for work units; beyond it requests are shed with a typed retry-after refusal")
	fs.DurationVar(&sc.DefaultBudget, "default-budget", 2*time.Second, "per-request time budget applied when the client declares none (0 = unbudgeted)")
	fs.IntVar(&sc.WatchQueueDepth, "watch-queue-depth", 0, "per-subscription bounded delta queue depth; overflow drops oldest and marks the next delivery Overflowed (0 = default 16)")
	fs.DurationVar(&sc.WatchWriteDeadline, "watch-write-deadline", 0, "per-delta write budget before a stalled subscriber is evicted (0 = default 2s)")
	fs.IntVar(&sc.WatchMaxSubs, "watch-max-subs", 0, "max concurrent watch subscriptions; extras get a typed refusal (0 = default 1024, negative = unlimited)")
	return fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain budget for in-flight requests")
}

// Server exposes a Source over TCP.
type Server struct {
	src  Source
	cfg  ServerConfig
	ln   net.Listener
	gate *workGate
	tel  *telemetry.Registry
	ops  map[string]opMeter
	wg   sync.WaitGroup

	// reader answers the "read" op (readwire.go): a Reader over src,
	// whose nonce is this server's instance in validators, or src's own
	// read op when src is a dialed upstream.
	reader ReadSource

	// mu guards conns, draining, and each servedConn's inflight and subs.
	mu       sync.Mutex
	conns    map[net.Conn]*servedConn
	draining bool

	// hub is the watch subscription set and its one evaluator
	// (watch.go). stopWatch cancels its context, which ends the
	// evaluator, the source reads of its round in flight, and every
	// pusher.
	hub       *watchHub
	stopWatch context.CancelFunc
}

// servedConn is the server's record of one connection: the buffered
// reader and armed read deadline of the read loop, the write lock that
// serializes response and watch-update frames from the read loop and
// concurrent handler and pusher goroutines, and the connection's
// outstanding work. Draining closes a connection with no work (no
// in-flight handler and no live subscription) at once and lets the rest
// finish.
type servedConn struct {
	srv    *Server
	conn   net.Conn
	br     *bufio.Reader
	readBy time.Time // armed read deadline; read loop only

	wmu     sync.Mutex
	writeBy time.Time // armed write deadline; under wmu

	// Under srv.mu.
	inflight int                      // request handlers on goroutines
	subs     map[uint64]*subscription // stream -> live subscription
}

// writeFrame writes one frame under the connection's write lock with a
// per-write deadline.
func (sc *servedConn) writeFrame(f *muxFrame, deadline time.Duration) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if deadline > 0 {
		if dl, ok := slackDeadline(sc.writeBy, time.Now(), deadline); ok {
			sc.conn.SetWriteDeadline(dl)
			sc.writeBy = dl
		}
	}
	return writeFrame(sc.conn, f, DefaultMaxFrame)
}

// slackDeadline returns the deadline to arm for an operation allowed d
// from now, given the one already armed, and whether it differs. An
// armed deadline is kept while it expires within [d, 5d/4] of now, so a
// busy connection re-arms about once per d/4 instead of once per frame,
// and no operation is cut off sooner than d after it starts.
func slackDeadline(armed, now time.Time, d time.Duration) (time.Time, bool) {
	if rem := armed.Sub(now); rem >= d && rem <= d+d/4 {
		return armed, false
	}
	return now.Add(d + d/4), true
}

// ServeConfig starts a query server on addr (e.g. "127.0.0.1:0"); the
// zero ServerConfig gives the default lifecycle protections.
func ServeConfig(src Source, addr string, cfg ServerConfig) (*Server, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	tel := telemetry.NewRegistry()
	s := &Server{
		src: src, cfg: cfg, ln: ln,
		gate:   newWorkGate(cfg.MaxInflight, cfg.QueueDepth),
		tel:    tel,
		ops:    make(map[string]opMeter, len(opTable)),
		conns:  make(map[net.Conn]*servedConn),
		reader: ReaderFor(src),
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	s.hub, s.stopWatch = newWatchHub(watchCtx, src, cfg.WatchPollInterval, tel), stopWatch
	s.hub.paused = func() bool { // DrainWatches owns the terminal updates
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	}
	s.gate.instrument(tel)
	for i := range opTable {
		op := &opTable[i]
		s.ops[op.name] = s.meterFor(op, op.name)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go func() {
		defer s.wg.Done()
		s.hub.run()
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// GateStats snapshots the admission gate's counters (zero value when
// admission control is disabled).
func (s *Server) GateStats() GateStats {
	if s.gate == nil {
		return GateStats{}
	}
	return s.gate.stats()
}

// Telemetry returns the server's metrics registry (never nil).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// TelemetrySource is implemented by Sources that keep their own metrics
// registry (the in-process Collector, FailoverSource, Merged). The
// server's "stats" op merges it into the answer.
type TelemetrySource interface {
	Telemetry() *telemetry.Registry
}

// Close stops the server immediately: it stops accepting, force-closes
// active connections (in-flight requests see a write error), and waits
// for all serving goroutines. Use Shutdown for a graceful drain.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	s.draining = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.stopWatch()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, closes
// idle connections, lets in-flight requests finish for up to timeout,
// then force-closes whatever remains and waits for all serving
// goroutines. A non-positive timeout degenerates to Close.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.ln.Close()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	s.draining = true
	for c, sc := range s.conns {
		if sc.inflight == 0 && len(sc.subs) == 0 {
			c.Close() // wakes the blocked read; the loop exits
		}
	}
	s.mu.Unlock()
	// Watch subscriptions drain with a terminal Final frame before
	// their connections close: subscribers learn the stream ended
	// cleanly instead of inferring it from a reset.
	s.DrainWatches(time.Until(deadline))
	s.stopWatch()

	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		// A connection beyond the cap is served unrecorded: its first
		// request is answered busy and the connection closed.
		sc := &servedConn{srv: s, conn: conn, br: bufio.NewReader(conn)}
		s.mu.Lock()
		busy := s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns
		if !busy {
			s.conns[conn] = sc
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(sc, busy)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(sc *servedConn, busy bool) {
	conn := sc.conn
	var inflight sync.WaitGroup
	defer func() {
		conn.Close()
		// Tear down this connection's subscriptions (their pushers exit
		// on the closed cancel channel or the dead conn), then wait for
		// in-flight handlers — they still write, harmlessly, to the
		// closed conn.
		s.mu.Lock()
		subs := make([]*subscription, 0, len(sc.subs))
		for _, sub := range sc.subs {
			subs = append(subs, sub)
		}
		s.mu.Unlock()
		for _, sub := range subs {
			s.cancelSub(sub)
		}
		inflight.Wait()
	}()
	for {
		s.mu.Lock()
		draining, watched := s.draining, len(sc.subs) > 0
		s.mu.Unlock()
		if draining && !watched {
			// A request dispatched just before the drain began still
			// answers: its handler closes the connection when it is the
			// last, and Shutdown force-closes it at the deadline. A
			// connection with live subscriptions keeps reading until
			// DrainWatches has flushed their Final updates and closes
			// it: leaving now would cancel them first.
			inflight.Wait()
			return
		}
		// Idle read deadline: a silent client, or one that sends half a
		// frame and stalls, loses the connection instead of holding it.
		// A connection with live subscriptions is exempt — a watcher is
		// legitimately silent for as long as it keeps reading pushes.
		if s.cfg.IdleTimeout > 0 {
			dl, ok := time.Time{}, !sc.readBy.IsZero()
			if !watched {
				dl, ok = slackDeadline(sc.readBy, time.Now(), s.cfg.IdleTimeout)
			}
			if ok {
				if err := conn.SetReadDeadline(dl); err != nil {
					return
				}
				sc.readBy = dl
			}
		}
		var f muxFrame
		if err := readFrame(sc.br, &f, DefaultMaxFrame); err != nil {
			// Oversized, malformed or wrong-version frames
			// (ErrFrameTooLarge, ErrMalformedFrame, ErrWireVersion) drop
			// only this connection: the stream cannot be resynced, and
			// answering garbage would reward a hostile peer.
			return
		}
		switch {
		case busy:
			// Over the connection cap: the refusal pairs with a call the
			// client is waiting on, so it fails fast instead of queueing
			// invisibly.
			sc.writeFrame(&muxFrame{Stream: f.Stream, Kind: mfResponse,
				Resp: &response{Err: busyMsg, Code: codeBusy}}, s.cfg.IdleTimeout)
			return
		case f.Kind == mfRequest && f.Req != nil && f.Req.Op == opWatch:
			// Subscriptions register synchronously in the read loop so
			// the ack precedes any teardown race with a fast Cancel. The
			// pusher starts only once the ack is written, so no update
			// can overtake it on the stream.
			resp, sub := s.registerWatch(sc, f.Stream, f.Req)
			if err := sc.writeFrame(&muxFrame{Stream: f.Stream, Kind: mfResponse, Resp: resp},
				s.cfg.IdleTimeout); err != nil {
				if sub != nil {
					s.cancelSub(sub)
					close(sub.done) // no pusher ever ran
				}
				return
			}
			if sub != nil {
				s.wg.Add(1)
				go s.pushLoop(sub)
				s.hub.kick()
			}
		case f.Kind == mfRequest && f.Req != nil:
			// A refusal decided before admission, and a cheap in-memory op
			// the gate admits at once, is answered right here: no
			// goroutine, no deadline context (DESIGN §21).
			stream := f.Stream
			p, resp := s.begin(f.Req)
			if resp == nil && s.inline(p) && s.gate.tryAcquire(p.w) {
				resp = s.finish(p, true)
			}
			if resp != nil {
				if err := sc.writeFrame(&muxFrame{Stream: stream, Kind: mfResponse, Resp: resp},
					s.cfg.IdleTimeout); err != nil {
					return
				}
				continue
			}
			// Everything else dispatches concurrently — an inline op the
			// gate would queue too, so FIFO order and shedding hold: the mux
			// framing exists so one slow query does not head-of-line block
			// the pipeline behind it.
			s.mu.Lock()
			sc.inflight++
			s.mu.Unlock()
			inflight.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer inflight.Done()
				sc.writeFrame(&muxFrame{Stream: stream, Kind: mfResponse, Resp: s.finish(p, false)},
					s.cfg.IdleTimeout)
				s.mu.Lock()
				sc.inflight--
				idle := s.draining && sc.inflight == 0 && len(sc.subs) == 0
				s.mu.Unlock()
				if idle {
					// Drain completed this connection's last work; close
					// it so Shutdown does not wait out the full timeout.
					conn.Close()
				}
			}()
		case f.Kind == mfCancel:
			s.mu.Lock()
			sub := sc.subs[f.Stream]
			s.mu.Unlock()
			if sub != nil {
				s.cancelSub(sub)
			}
		default:
			// Unknown frame kind: protocol violation, drop the conn.
			return
		}
	}
}

// inline reports whether p may be answered on its connection's read
// loop (DESIGN §21): its op reads in-memory state, at admission weight
// ≤ 1, and the source answers from local state — a VersionedSource that
// reports a version — so a proxying server never blocks its read loop on
// an upstream call.
func (s *Server) inline(p pending) bool {
	if !p.row.inline || p.w > 1 {
		return false
	}
	_, ok := VersionOf(s.src)
	return ok
}

// pending is one request between arrival and admission: what begin
// recorded and decided about it.
type pending struct {
	req             *request
	row             *opRow
	start, deadline time.Time
	sp              *telemetry.Span
	w               int
}

// begin records a request's arrival, resolves its op's row, and applies
// the policies that run before admission: the HA gate and the row's
// weigh, which may refuse (the matrix size limit). It returns
// either the pending request or the refusal that ends it. finish then
// runs it through admission control and the budget check before
// handing it to the Source. The order matters: the budget clock starts
// at arrival, the admission wait is charged against it, and a request
// that comes out of the queue with nothing left is refused, not
// computed.
func (s *Server) begin(req *request) (pending, *response) {
	p := pending{req: req, start: time.Now()}
	m, ok := s.ops[req.Op]
	if !ok {
		m = s.meterFor(&unknownOp, req.Op)
	}
	p.row = m.row
	m.count.Inc()
	p.sp = s.tel.StartSpan(req.TraceID, m.span)
	if s.cfg.Gate != nil && !p.row.exempt {
		if err := s.cfg.Gate(); err != nil {
			return p, refused(p.sp, "gated", err)
		}
	}
	if req.BudgetMS > 0 {
		p.deadline = p.start.Add(time.Duration(req.BudgetMS * float64(time.Millisecond)))
	} else if s.cfg.DefaultBudget > 0 {
		p.deadline = p.start.Add(s.cfg.DefaultBudget)
	}
	w, err := p.row.weigh(s, req)
	if err != nil {
		resp := refused(p.sp, "refused", err)
		resp.Term, resp.Leader, _ = HAStatusOf(s.src)
		return p, resp
	}
	p.w = w
	return p, nil
}

// refused ends a request's span with verdict and answers err.
func refused(sp *telemetry.Span, verdict string, err error) *response {
	sp.SetAttr("verdict", verdict)
	sp.Finish()
	return appError(&response{}, err)
}

// finish admits a begun request and runs its handler. held says the
// caller is the read loop and the gate already granted the request's
// weight; the handler then gets no deadline context, because an inline
// op cannot block. The budget check still runs either way.
func (s *Server) finish(p pending, held bool) *response {
	defer p.sp.Finish()
	if s.gate != nil && p.w > 0 {
		if !held {
			if err := s.gate.acquire(p.w, p.deadline); err != nil {
				p.sp.SetAttr("verdict", verdictFor(err))
				return refusalResponse(err)
			}
		}
		defer s.gate.release(p.w)
	}
	p.sp.SetAttr("queue_wait_ms", msAttr(time.Since(p.start)))
	if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
		p.sp.SetAttr("verdict", "deadline")
		return &response{Err: ErrDeadlineExceeded.Error(), Code: codeDeadline}
	}
	p.sp.SetAttr("verdict", "admitted")
	deadline := p.deadline
	if held {
		deadline = time.Time{}
	}
	handleStart := time.Now()
	resp := s.handle(p.row, p.req, deadline)
	p.sp.SetAttr("handler_ms", msAttr(time.Since(handleStart)))
	return resp
}

// opMeter is an op's row and what begin records the op under. The
// server resolves one per opTable row when it starts, not per request.
type opMeter struct {
	row   *opRow
	count *telemetry.Counter // server.op.<op>
	span  string             // rpc.<op>
}

func (s *Server) meterFor(row *opRow, op string) opMeter {
	return opMeter{row: row, count: s.tel.Counter("server.op." + op), span: "rpc." + op}
}

// msAttr renders a duration as a span attribute: milliseconds with
// three decimals, the text "%.3f" gave. Integer arithmetic, because
// strconv formats a float to a fixed number of decimals on its slow
// multi-precision path, which was 9 % of a point query's CPU.
func msAttr(d time.Duration) string {
	us := max(d+500*time.Nanosecond, 0) / time.Microsecond
	var buf [24]byte
	b := strconv.AppendInt(buf[:0], int64(us/1000), 10)
	frac := us % 1000
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return string(b)
}

// verdictFor names a gate refusal for span records.
func verdictFor(err error) string {
	switch {
	case errors.Is(err, ErrLoadShed):
		return "shed"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	default:
		return "busy"
	}
}

// refusalResponse converts a gate error into its typed wire form.
func refusalResponse(err error) *response {
	if ra, ok := RetryAfterHint(err); ok {
		return &response{Err: err.Error(), Code: codeShed, RetryAfterMS: ra.Seconds() * 1000}
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		return &response{Err: err.Error(), Code: codeDeadline}
	}
	return &response{Err: busyMsg, Code: codeBusy}
}

// appError records an application-level error on resp and returns it.
// Most stay plain codeOK errors (the answer is authoritative), but a
// stale-fenced read replica's refusal — and a standby's not-leader
// refusal — get their typed wire codes so clients reproduce the
// sentinel and the failover layer can route around it.
func appError(resp *response, err error) *response {
	resp.Err = err.Error()
	switch {
	case errors.Is(err, ErrStaleReplica):
		resp.Code = codeStale
	case errors.Is(err, ErrNotLeader):
		resp.Code = codeNotLeader
		if hint, ok := LeaderHint(err); ok {
			resp.LeaderHint = hint
		}
	case errors.Is(err, ErrMatrixTooLarge):
		resp.Code = codeMatrixSize
	case errors.Is(err, ErrMatrixUnsupported):
		resp.Code = codeMatrixUnsup
	case errors.Is(err, ErrDeadlineExceeded):
		// The budget ran out inside the handler, now that it sees the
		// request's deadline: same typed refusal as running out in the
		// admission queue.
		resp.Code = codeDeadline
	}
	return resp
}

// HAStatusSource is implemented by Sources that participate in a
// hot-standby pair (a Collector under an ha.Node). The server stamps
// the reported term and role on every response so clients can fence
// answers from a deposed leader; ok is false on sources without HA
// (then responses keep the zero Term/Leader).
type HAStatusSource interface {
	HAStatus() (term uint64, leader bool, ok bool)
}

// HAStatusOf is src's HA fencing state: zero values, and ok false, when
// src is not an HAStatusSource or reports none.
func HAStatusOf(src Source) (term uint64, leader bool, ok bool) {
	if hs, is := src.(HAStatusSource); is {
		if term, leader, ok = hs.HAStatus(); ok {
			return term, leader, true
		}
	}
	return 0, false, false
}

// handle answers one request with its op's row. A panicking Source must
// cost the client one errored response, never the daemon process: every
// shared-daemon deployment (the paper's Figure 2) has this property or
// doesn't scale past its first misbehaving query.
//
// Every op reaches the Source through one context carrying the
// caller's trace ID, so serving-side spans join the caller's trace, and
// what remains of the request's budget, so a handler that fetches
// upstream (a proxying server, a mid-matrix measurement fetch) observes
// the deadline the admission layer charged the wait against. A request
// with neither costs no context and no timer.
func (s *Server) handle(row *opRow, req *request, deadline time.Time) (resp *response) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("collector: recovered panic serving %q: %v", req.Op, r)
			resp = &response{Err: fmt.Sprintf("collector: internal error serving %q: %v", req.Op, r)}
		}
		resp.Term, resp.Leader, _ = HAStatusOf(s.src)
	}()
	ctx := context.Background()
	if req.TraceID != "" {
		ctx = telemetry.WithTrace(ctx, req.TraceID)
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	return row.handle(s, ctx, req)
}
