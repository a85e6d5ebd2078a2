package collector

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// opWatch is the op without an opTable row: it opens a stream, which
// the read loop registers (registerWatch, watch.go).
const opWatch = "watch"

// opRow is one request op. begin looks a request's row up once.
type opRow struct {
	name string
	// exempt ops pass the HA gate: liveness probes and metrics scrapes
	// must work on a standby.
	exempt bool
	// inline ops may be answered on their connection's read loop when
	// they weigh at most 1 and the source is versioned (DESIGN §21).
	inline bool
	// weigh prices a request in admission-gate units, or refuses it
	// before admission with an error that retrying cannot cure.
	weigh func(s *Server, req *request) (int, error)
	// handle answers an admitted request under ctx (handle, server.go).
	handle func(s *Server, ctx context.Context, req *request) *response
}

// opTable holds the request ops. Adding or retiring one is its row, its
// codec body (codec.go) and its client request constructor. Pings are
// free, so liveness probes pass an overloaded gate.
var opTable = [...]opRow{
	{name: "topo", weigh: weight(4), handle: (*Server).handleTopo},
	{name: "health", weigh: weight(1), handle: (*Server).handleHealth},
	{name: "stats", exempt: true, weigh: weight(1), handle: (*Server).handleStats},
	{name: "matrix", weigh: (*Server).weighMatrix, handle: (*Server).handleMatrix},
	{name: "read", inline: true, weigh: weighRead, handle: (*Server).handleRead},
	{name: "ping", exempt: true, inline: true, weigh: weight(0), handle: (*Server).handlePing},
}

// unknownOp is the row of every op opTable lacks: gated, one unit, and
// answered with an error that names it.
var unknownOp = opRow{weigh: weight(1), handle: (*Server).handleUnknown}

// opNames lists opTable's names.
func opNames() []string {
	names := make([]string, len(opTable))
	for i, op := range opTable {
		names[i] = op.name
	}
	return names
}

// weight is the weigh function of an op with a fixed price.
func weight(w int) func(*Server, *request) (int, error) {
	return func(*Server, *request) (int, error) { return w, nil }
}

func (s *Server) handleTopo(ctx context.Context, _ *request) *response {
	t, err := CtxTopology(ctx, s.src)
	if err != nil {
		return appError(&response{}, err)
	}
	return &response{Topo: topoToWire(t)}
}

func (s *Server) handleHealth(context.Context, *request) *response {
	hs, ok := s.src.(HealthSource)
	if !ok {
		return &response{Err: "collector: source does not track health"}
	}
	h := hs.Health()
	resp := &response{Health: make(map[string]AgentHealth, len(h))}
	for id, ah := range h {
		resp.Health[string(id)] = ah
	}
	return resp
}

func (s *Server) handleStats(context.Context, *request) *response {
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
	return &response{Telemetry: &snap}
}

// handlePing answers a liveness probe: reaching the handler at all is
// the answer.
func (s *Server) handlePing(context.Context, *request) *response { return &response{} }

func (s *Server) handleUnknown(_ context.Context, req *request) *response {
	return &response{Err: fmt.Sprintf("collector: unknown op %q", req.Op)}
}

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
	Op string // an opTable row's name, or opWatch

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
