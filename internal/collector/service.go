package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
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

// WireNode is the wire form of one topology node. The Wire* types
// are exported so downstream feed consumers (read replicas, standby
// collectors, replica-of-replica chains) can speak the feed protocol
// without reaching into collector internals; use FeedPayload.Topology
// (or topoFromWireChecked semantics) to decode untrusted instances.
type WireNode struct {
	ID           string
	Kind         int
	InternalBW   float64
	ComputePower float64
	MemoryBytes  float64
}

// WireLink is the wire form of one topology link. Global is the
// paper's global-channel ID for the link (0 = local only).
type WireLink struct {
	A, B     string
	Capacity float64
	Latency  float64
	Global   int
}

// WireTopo is the wire form of a discovered topology, carried in
// topology responses, feed payloads, and checkpoint files.
type WireTopo struct {
	Nodes        []WireNode
	Links        []WireLink
	DiscoveredAt float64
}

func topoToWire(t *Topology) *WireTopo {
	w := &WireTopo{DiscoveredAt: t.DiscoveredAt}
	for _, id := range t.Graph.Nodes() {
		n := t.Graph.Node(id)
		w.Nodes = append(w.Nodes, WireNode{
			ID: string(n.ID), Kind: int(n.Kind),
			InternalBW: n.InternalBW, ComputePower: n.ComputePower,
			MemoryBytes: n.MemoryBytes,
		})
	}
	for _, l := range t.Graph.Links() {
		w.Links = append(w.Links, WireLink{
			A: string(l.A), B: string(l.B),
			Capacity: l.Capacity, Latency: l.Latency,
			Global: t.GlobalID[l.ID],
		})
	}
	return w
}

// topoFromWireChecked is topoFromWire for untrusted bytes (a feed
// payload, a server's topo response): the graph package panics on
// incoherent input — dangling link endpoints, duplicate nodes,
// non-positive capacities — because locally that is programmer error,
// but data that crossed the wire must fail decode with an error
// instead.
func topoFromWireChecked(w *WireTopo) (t *Topology, err error) {
	defer func() {
		if p := recover(); p != nil {
			t, err = nil, fmt.Errorf("collector: invalid wire topology: %v", p)
		}
	}()
	return topoFromWire(w), nil
}

func topoFromWire(w *WireTopo) *Topology {
	g := graph.New()
	for _, n := range w.Nodes {
		g.AddNode(graph.Node{
			ID: graph.NodeID(n.ID), Kind: graph.NodeKind(n.Kind),
			InternalBW: n.InternalBW, ComputePower: n.ComputePower,
			MemoryBytes: n.MemoryBytes,
		})
	}
	t := &Topology{Graph: g, GlobalID: make(map[graph.LinkID]int), DiscoveredAt: w.DiscoveredAt}
	for _, l := range w.Links {
		gl := g.AddLink(graph.NodeID(l.A), graph.NodeID(l.B), l.Capacity, l.Latency)
		t.GlobalID[gl.ID] = l.Global
	}
	return t
}

type request struct {
	Op string // one of servedOps, or "watch"

	// Watch carries the subscription parameters for the "watch" op.
	Watch *WatchRequest

	// Matrix carries the batch parameters for the "matrix" op
	// (matrixwire.go).
	Matrix *MatrixRequest

	// Read carries the validator and the entry list for the "read" op
	// (readwire.go).
	Read *ReadRequest

	// BudgetMS is the client's remaining time budget in milliseconds at
	// send time (0 = none declared; the server applies its
	// DefaultBudget). The server refuses with a typed deadline answer
	// instead of computing results the caller has already abandoned.
	BudgetMS float64

	// TraceID carries the request's trace across the wire ("" when the
	// caller's context carried none), so a client-side span and the
	// server-side span it caused share an ID.
	TraceID string
}

// Response refusal codes. CodeOK also covers application-level errors
// (Err set): the server answered, the answer is authoritative.
const (
	codeOK          = 0
	codeBusy        = 1 // connection cap (ErrServerBusy)
	codeDeadline    = 2 // budget expired before an answer (ErrDeadlineExceeded)
	codeShed        = 3 // admission queue full (ErrLoadShed + retry-after)
	codeWatchLimit  = 4 // subscription cap (ErrTooManySubscriptions)
	codeStale       = 5 // read replica fenced on staleness (ErrStaleReplica)
	codeNotLeader   = 6 // standby in a hot-standby pair (ErrNotLeader + leader hint)
	codeMatrixSize  = 7 // matrix weight the gate can never grant (ErrMatrixTooLarge)
	codeMatrixUnsup = 8 // server cannot compute matrices (ErrMatrixUnsupported)
	// 9 was the read op's "unsupported": every server answers reads now.
)

type response struct {
	Err    string
	Topo   *WireTopo
	Health map[string]AgentHealth

	// Code distinguishes typed refusals from application errors;
	// RetryAfterMS accompanies codeShed, LeaderHint codeNotLeader.
	Code         int
	RetryAfterMS float64
	LeaderHint   string

	// Term and Leader carry the answering node's HA fencing state when
	// its Source exposes one (HAStatusSource): Term is the monotonic
	// lease term, Leader whether the node held it at answer time. Both
	// zero on sources without HA.
	Term   uint64
	Leader bool

	// Telemetry answers the "stats" op: the server's metrics registry
	// merged with its Source's, when the Source exposes one.
	Telemetry *telemetry.Snapshot

	// Matrix answers the "matrix" op (matrixwire.go).
	Matrix *MatrixAnswer

	// Read answers the "read" op (readwire.go).
	Read *ReadAnswer
}

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
	// weighted semaphore: topology queries cost 4 units, matrices and
	// reads grow with their size from 1, everything else 1, pings are
	// free). Zero disables admission control.
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
	// MaxFrame bounds one wire frame in bytes (default
	// DefaultMaxFrame); oversized or corrupt length prefixes drop the
	// connection instead of driving an allocation.
	MaxFrame int

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
	WatchPollInterval time.Duration

	// Telemetry is the registry the server records into (request spans,
	// per-op counters, admission metrics). Nil means the server creates
	// its own; it is always reachable via Server.Telemetry.
	Telemetry *telemetry.Registry

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
	MaxMatrixCells int

	// Gate, when non-nil, is consulted before every query and watch
	// registration with the request's op name ("watch" for
	// subscriptions); a non-nil return refuses the request with that
	// error's typed wire form. The HA layer installs a gate that answers
	// ErrNotLeader (plus a leader hint) on standbys. "ping" and "stats"
	// are exempt — liveness probes and metrics scrapes must work on a
	// standby.
	Gate func(op string) error
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
	if sc.MaxFrame <= 0 {
		sc.MaxFrame = DefaultMaxFrame
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

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	draining bool

	// Watch subscription registry (watch.go). watchKick wakes the
	// evaluator when a subscription registers; stopWatch cancels
	// watchCtx, which ends the evaluator, the source reads of its round
	// in flight, and every pusher. synthEpoch is the fallback epoch
	// counter for unversioned sources, owned by watchLoop.
	watchMu    sync.Mutex
	watchSubs  map[*subscription]struct{}
	watchKick  chan struct{}
	watchCtx   context.Context
	stopWatch  context.CancelFunc
	synthEpoch uint64
}

// connState tracks a connection's outstanding work: in-flight request
// handlers and live watch subscriptions. Draining closes idle
// connections (neither) immediately and lets the rest finish.
type connState struct {
	inflight int
	subs     int
}

// servedConn is the server's per-connection state: the buffered reader
// and armed read deadline of the read loop, the write lock that
// serializes response and watch-update frames from the read loop and
// concurrent handler and pusher goroutines, and the connection's live
// subscriptions.
type servedConn struct {
	srv    *Server
	conn   net.Conn
	st     *connState
	br     *bufio.Reader
	readBy time.Time // armed read deadline; read loop only

	wmu     sync.Mutex
	writeBy time.Time // armed write deadline; under wmu

	mu     sync.Mutex
	subMap map[uint64]*subscription // stream -> subscription
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
	return writeFrame(sc.conn, f, sc.srv.cfg.MaxFrame)
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

func (sc *servedConn) addSub(sub *subscription) {
	sc.mu.Lock()
	if sc.subMap == nil {
		sc.subMap = make(map[uint64]*subscription)
	}
	sc.subMap[sub.stream] = sub
	sc.mu.Unlock()
	sc.srv.mu.Lock()
	sc.st.subs++
	sc.srv.mu.Unlock()
}

func (sc *servedConn) removeSub(sub *subscription) {
	sc.mu.Lock()
	if sc.subMap[sub.stream] == sub {
		delete(sc.subMap, sub.stream)
	}
	sc.mu.Unlock()
	sc.srv.mu.Lock()
	sc.st.subs--
	sc.srv.mu.Unlock()
}

// subCount reports the connection's live subscriptions (read-deadline
// suppression: watch connections are legitimately silent for long).
func (sc *servedConn) subCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.subMap)
}

// Serve starts a query server on addr (e.g. "127.0.0.1:0") with default
// lifecycle protections.
func Serve(src Source, addr string) (*Server, error) {
	return ServeConfig(src, addr, ServerConfig{})
}

// ServeConfig starts a query server with explicit lifecycle protections.
func ServeConfig(src Source, addr string, cfg ServerConfig) (*Server, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &Server{
		src: src, cfg: cfg, ln: ln,
		gate:      newWorkGate(cfg.MaxInflight, cfg.QueueDepth),
		tel:       tel,
		ops:       make(map[string]opMeter, len(servedOps)),
		conns:     make(map[net.Conn]*connState),
		watchSubs: make(map[*subscription]struct{}),
		watchKick: make(chan struct{}, 1),
		reader:    ReaderFor(src),
	}
	s.watchCtx, s.stopWatch = context.WithCancel(context.Background())
	s.gate.instrument(tel)
	for _, op := range servedOps {
		s.ops[op] = s.meterFor(op)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.watchLoop()
	return s, nil
}

// kickWatch wakes the evaluator out-of-cycle (a new subscription wants
// its first update without waiting out a poll interval).
func (s *Server) kickWatch() {
	select {
	case s.watchKick <- struct{}{}:
	default:
	}
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
	for c, st := range s.conns {
		if st.inflight == 0 && st.subs == 0 {
			c.Close() // wakes the blocked read; the loop exits
		}
	}
	s.mu.Unlock()
	// Watch subscriptions drain with a terminal Final frame before
	// their connections close: subscribers learn the stream ended
	// cleanly instead of inferring it from a reset.
	s.drainWatches(deadline)
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
		// A connection beyond the cap is served with a nil state: its
		// first request is answered busy and the connection closed.
		var st *connState
		s.mu.Lock()
		if s.cfg.MaxConns <= 0 || len(s.conns) < s.cfg.MaxConns {
			st = &connState{}
			s.conns[conn] = st
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, st)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	sc := &servedConn{srv: s, conn: conn, st: st, br: bufio.NewReader(conn)}
	var inflight sync.WaitGroup
	defer func() {
		conn.Close()
		// Tear down this connection's subscriptions (their pushers exit
		// on the closed cancel channel or the dead conn), then wait for
		// in-flight handlers — they still write, harmlessly, to the
		// closed conn.
		sc.mu.Lock()
		subs := make([]*subscription, 0, len(sc.subMap))
		for _, sub := range sc.subMap {
			subs = append(subs, sub)
		}
		sc.mu.Unlock()
		for _, sub := range subs {
			s.cancelSub(sub)
		}
		inflight.Wait()
	}()
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// A request dispatched just before the drain began still
			// answers: its handler closes the connection when it is the
			// last, and Shutdown force-closes it at the deadline.
			inflight.Wait()
			return
		}
		// Idle read deadline: a silent client, or one that sends half a
		// frame and stalls, loses the connection instead of holding it.
		// A connection with live subscriptions is exempt — a watcher is
		// legitimately silent for as long as it keeps reading pushes.
		if s.cfg.IdleTimeout > 0 {
			dl, ok := time.Time{}, !sc.readBy.IsZero()
			if sc.subCount() == 0 {
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
		if err := readFrame(sc.br, &f, s.cfg.MaxFrame); err != nil {
			// Oversized, malformed or wrong-version frames
			// (ErrFrameTooLarge, ErrMalformedFrame, ErrWireVersion) drop
			// only this connection: the stream cannot be resynced, and
			// answering garbage would reward a hostile peer.
			return
		}
		switch {
		case st == nil:
			// Over the connection cap: the refusal pairs with a call the
			// client is waiting on, so it fails fast instead of queueing
			// invisibly.
			sc.writeFrame(&muxFrame{Stream: f.Stream, Kind: mfResponse,
				Resp: &response{Err: busyMsg, Code: codeBusy}}, s.cfg.IdleTimeout)
			return
		case f.Kind == mfRequest && f.Req != nil && f.Req.Op == "watch":
			// Subscriptions register synchronously in the read loop so
			// the ack precedes any teardown race with a fast Cancel.
			resp, sub := s.registerWatch(sc, f.Stream, f.Req)
			if err := sc.writeFrame(&muxFrame{Stream: f.Stream, Kind: mfResponse, Resp: resp},
				s.cfg.IdleTimeout); err != nil {
				return
			}
			if sub != nil {
				s.kickWatch()
			}
		case f.Kind == mfRequest && f.Req != nil:
			// A refusal decided before admission, and a cheap in-memory op
			// the gate admits at once, is answered right here: no
			// goroutine, no deadline context (DESIGN §21).
			stream := f.Stream
			p, resp := s.begin(f.Req)
			if resp == nil && s.inlineOp(f.Req) && s.gate.tryAcquire(p.w) {
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
			st.inflight++
			s.mu.Unlock()
			inflight.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer inflight.Done()
				sc.writeFrame(&muxFrame{Stream: stream, Kind: mfResponse, Resp: s.finish(p, false)},
					s.cfg.IdleTimeout)
				s.mu.Lock()
				st.inflight--
				idle := s.draining && st.inflight == 0 && st.subs == 0
				s.mu.Unlock()
				if idle {
					// Drain completed this connection's last work; close
					// it so Shutdown does not wait out the full timeout.
					conn.Close()
				}
			}()
		case f.Kind == mfCancel:
			sc.mu.Lock()
			sub := sc.subMap[f.Stream]
			sc.mu.Unlock()
			if sub != nil {
				s.cancelSub(sub)
			}
		default:
			// Unknown frame kind: protocol violation, drop the conn.
			return
		}
	}
}

// inlineOp reports whether req may be answered on its connection's read
// loop (DESIGN §21): it reads in-memory state at admission weight ≤ 1,
// and the source answers from local state — a VersionedSource that
// reports a version — so a proxying server never blocks its read loop on
// an upstream call.
func (s *Server) inlineOp(req *request) bool {
	switch req.Op {
	case "ping":
	case "read":
		if readWeight(req.Read) > 1 {
			return false
		}
	default:
		return false
	}
	vs, ok := s.src.(VersionedSource)
	if ok {
		_, ok = vs.DataVersion()
	}
	return ok
}

// pending is one request between arrival and admission: what begin
// recorded and decided about it.
type pending struct {
	req             *request
	start, deadline time.Time
	sp              *telemetry.Span
	w               int
}

// begin records a request's arrival and applies the policies that run
// before admission: the HA gate and the matrix size limit. It returns
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
		m = s.meterFor(req.Op)
	}
	m.count.Inc()
	p.sp = s.tel.StartSpan(req.TraceID, m.span)
	if s.cfg.Gate != nil && req.Op != "ping" && req.Op != "stats" {
		if err := s.cfg.Gate(req.Op); err != nil {
			return p, refused(p.sp, "gated", err)
		}
	}
	if req.BudgetMS > 0 {
		p.deadline = p.start.Add(time.Duration(req.BudgetMS * float64(time.Millisecond)))
	} else if s.cfg.DefaultBudget > 0 {
		p.deadline = p.start.Add(s.cfg.DefaultBudget)
	}
	p.w = opWeight(req.Op)
	if req.Op == "matrix" {
		// Size policy runs before the gate: a matrix the gate could
		// never grant must answer a typed non-retryable refusal, not
		// queue forever or be silently clamped to a cheaper weight.
		if err := s.matrixAdmissible(req.Matrix); err != nil {
			resp := refused(p.sp, "refused", err)
			s.stampHA(resp)
			return p, resp
		}
		p.w = matrixWeight(req.Matrix)
	}
	if req.Op == "read" {
		p.w = readWeight(req.Read)
	}
	return p, nil
}

// refused ends a request's span with verdict and answers err.
func refused(sp *telemetry.Span, verdict string, err error) *response {
	sp.SetAttr("verdict", verdict)
	sp.Finish()
	resp := &response{}
	appError(resp, err)
	return resp
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
	resp := s.handle(p.req, deadline)
	p.sp.SetAttr("handler_ms", msAttr(time.Since(handleStart)))
	return resp
}

// servedOps are the ops the server serves; their meters are resolved
// once per server instead of per request.
var servedOps = [...]string{"topo", "health", "stats", "matrix", "read", "ping"}

// opMeter is what begin records one op under.
type opMeter struct {
	count *telemetry.Counter // server.op.<op>
	span  string             // rpc.<op>
}

func (s *Server) meterFor(op string) opMeter {
	return opMeter{count: s.tel.Counter("server.op." + op), span: "rpc." + op}
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

// appError records an application-level error on a response. Most stay
// plain codeOK errors (the answer is authoritative), but a stale-fenced
// read replica's refusal — and a standby's not-leader refusal — get
// their typed wire codes so clients reproduce the sentinel and the
// failover layer can route around it.
func appError(resp *response, err error) {
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
}

// HAStatusSource is implemented by Sources that participate in a
// hot-standby pair (a Collector under an ha.Node). The server stamps
// the reported term and role on every response so clients can fence
// answers from a deposed leader; ok is false on sources without HA
// (then responses keep the zero Term/Leader).
type HAStatusSource interface {
	HAStatus() (term uint64, leader bool, ok bool)
}

// stampHA records the source's HA fencing state on a response.
func (s *Server) stampHA(resp *response) {
	if hs, ok := s.src.(HAStatusSource); ok {
		if term, leader, on := hs.HAStatus(); on {
			resp.Term, resp.Leader = term, leader
		}
	}
}

// handle answers one request. A panicking Source must cost the client
// one errored response, never the daemon process: every shared-daemon
// deployment (the paper's Figure 2) has this property or doesn't scale
// past its first misbehaving query.
//
// Every op reaches the Source through one context carrying the
// caller's trace ID, so serving-side spans join the caller's trace, and
// what remains of the request's budget, so a handler that fetches
// upstream (a proxying server, a mid-matrix measurement fetch) observes
// the deadline the admission layer charged the wait against. A request
// with neither costs no context and no timer.
func (s *Server) handle(req *request, deadline time.Time) (resp *response) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("collector: recovered panic serving %q: %v", req.Op, r)
			resp = &response{Err: fmt.Sprintf("collector: internal error serving %q: %v", req.Op, r)}
		}
		s.stampHA(resp)
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
	if req.Op == "read" {
		return s.handleRead(ctx, req.Read)
	}
	resp = &response{}
	switch req.Op {
	case "topo":
		t, err := CtxTopology(ctx, s.src)
		if err != nil {
			appError(resp, err)
		} else {
			resp.Topo = topoToWire(t)
		}
	case "health":
		if hs, ok := s.src.(HealthSource); ok {
			h := hs.Health()
			resp.Health = make(map[string]AgentHealth, len(h))
			for id, ah := range h {
				resp.Health[string(id)] = ah
			}
		} else {
			resp.Err = "collector: source does not track health"
		}
	case "stats":
		// Mirror the gate's instantaneous state into gauges so a snapshot
		// shows live pressure, not just cumulative counters.
		if s.gate != nil {
			gs := s.gate.stats()
			s.tel.Gauge("server.admission.in_use").Set(float64(gs.InUse))
			s.tel.Gauge("server.admission.queue_depth").Set(float64(gs.Queued))
		}
		snaps := []telemetry.Snapshot{s.tel.Snapshot()}
		if ts, ok := s.src.(TelemetrySource); ok {
			if reg := ts.Telemetry(); reg != nil {
				snaps = append(snaps, reg.Snapshot())
			}
		}
		snap := telemetry.MergeSnapshots(snaps...)
		resp.Telemetry = &snap
	case "matrix":
		s.handleMatrix(ctx, resp, req.Matrix)
	case "ping":
		// Liveness probe: reaching the switch at all is the answer.
	default:
		resp.Err = fmt.Sprintf("collector: unknown op %q", req.Op)
	}
	return resp
}

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
	// MaxFrame bounds one wire frame in bytes (default
	// DefaultMaxFrame): a corrupt length prefix from a sick server is
	// rejected with ErrFrameTooLarge instead of allocating.
	MaxFrame int

	// WatchQueueDepth bounds the client-side pending-update queue of
	// each watch subscription (default DefaultWatchQueueDepth): a
	// consumer that reads slower than the server pushes sees
	// drop-oldest plus Overflowed marks instead of unbounded buffering
	// or TCP backpressure that would stall the whole multiplexed
	// connection.
	WatchQueueDepth int

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
	if cc.MaxFrame <= 0 {
		cc.MaxFrame = DefaultMaxFrame
	}
	if cc.WatchQueueDepth <= 0 {
		cc.WatchQueueDepth = DefaultWatchQueueDepth
	}
}

// writeBudget bounds one frame write on the wire.
func (cc *ClientConfig) writeBudget() time.Duration {
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
	max  int
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
	conn, err := c.dial("tcp", c.addr, c.dialTimeout())
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
		conn: conn, br: bufio.NewReader(conn), max: c.cfg.MaxFrame, tel: c.tel,
		calls:   make(map[uint64]chan *response),
		watches: make(map[uint64]*clientWatch),
		done:    make(chan struct{}),
	}
	c.mc = mc
	return mc, nil
}

func (c *Client) dialTimeout() time.Duration {
	if c.cfg.CallTimeout < 0 {
		return 0 // no limit
	}
	return c.cfg.CallTimeout
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
// after its already-received updates drain.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	watches := mc.watches
	mc.watches = make(map[uint64]*clientWatch)
	close(mc.done)
	mc.mu.Unlock()
	for _, w := range watches {
		if w.handle != nil {
			w.handle.setErr(err)
		}
	}
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
		err = readFrame(mc.br, &f, mc.max)
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
		if w != nil && w.q.push(*f.Update) {
			mc.tel.Counter("client.watch.drops.overflow").Inc()
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
	err := writeFrame(mc.conn, f, mc.max)
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
	if err := mc.writeMux(&muxFrame{Stream: id, Kind: mfRequest, Req: req}, cfg.writeBudget()); err != nil {
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
	w := &clientWatch{q: newWatchQueue(cfg.WatchQueueDepth)}
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
	if err := mc.writeMux(&muxFrame{Stream: id, Kind: mfRequest, Req: req}, cfg.writeBudget()); err != nil {
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
			mc.writeMux(&muxFrame{Stream: id, Kind: mfCancel}, cfg.writeBudget())
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
		go mc.writeMux(&muxFrame{Stream: id, Kind: mfCancel}, cfg.writeBudget())
	}
	stop := context.AfterFunc(ctx, h.Cancel)
	go w.forward(mc, h, stop)
	return h, nil
}

// forward drains one subscription's client-side queue onto its
// handle's channel, preserving order, until cancel, a Final update, or
// connection death (then pending updates still deliver first).
func (w *clientWatch) forward(mc *muxConn, h *WatchHandle, stop func() bool) {
	defer stop()
	defer close(h.out)
	deliver := func() bool { // false = stream over
		for {
			u, ok := w.q.pop()
			if !ok {
				return true
			}
			select {
			case h.out <- u:
			case <-h.cancelCh:
				return false
			}
			if u.Final {
				return false
			}
		}
	}
	for {
		select {
		case <-w.q.wake:
			if !deliver() {
				return
			}
		case <-h.cancelCh:
			return
		case <-mc.done:
			deliver()
			return
		}
	}
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

// Ping issues a liveness round trip: any answer from the server counts.
func (c *Client) Ping() error {
	_, err := c.call(context.Background(), &request{Op: "ping"})
	return err
}

// PingCtx is Ping with a caller-supplied budget.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.call(ctx, &request{Op: "ping"})
	return err
}
