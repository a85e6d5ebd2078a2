// Package remos is the public API of the Remos reproduction: a uniform,
// network-independent query interface for network-aware applications
// (Lowekamp et al., "A Resource Query Interface for Network-Aware
// Applications", HPDC 1998).
//
// Applications link a Modeler and ask it two kinds of questions:
//
//   - Topology queries — Modeler.GetGraph, the paper's remos_get_graph:
//     a logical topology of the hosts the application cares about,
//     annotated with capacities, availability and latency.
//
//   - Flow queries — Modeler.QueryFlowInfo, the paper's remos_flow_info:
//     what bandwidth a set of application-level flows would receive,
//     resolved simultaneously under max-min fair sharing, in three
//     classes (fixed, variable, independent).
//
// Every dynamic quantity is a quartile Stat with an accuracy measure.
// Queries carry a Timeframe: invariant capacities, the current
// measurement, a trailing historical window, or a predicted future.
//
// The Modeler is fed by a Collector (see NewTestbed for the simulated
// deployment, and DialCollector for connecting to a collector daemon
// over TCP).
package remos

import (
	"context"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topofile"
	"repro/internal/topology"
)

// Core data types re-exported for applications.
type (
	// NodeID names a host or network node.
	NodeID = graph.NodeID

	// NodeKind distinguishes hosts from routers/switches.
	NodeKind = graph.NodeKind

	// Stat is the quartile summary attached to every dynamic quantity.
	Stat = stats.Stat

	// Timeframe selects the time context of a query.
	Timeframe = core.Timeframe

	// Flow describes one application-level flow in a flow query.
	Flow = core.Flow

	// FlowKind is the flow class (fixed, variable, independent).
	FlowKind = core.FlowKind

	// FlowInfo is the answer to a flow query.
	FlowInfo = core.FlowInfo

	// FlowResult is one flow's entry in a FlowInfo.
	FlowResult = core.FlowResult

	// Graph is the annotated logical topology from a topology query.
	Graph = core.Graph

	// LinkInfo annotates one logical link.
	LinkInfo = core.LinkInfo

	// NodeInfo annotates one node.
	NodeInfo = core.NodeInfo

	// Modeler answers Remos queries; obtain one from NewModeler.
	Modeler = core.Modeler

	// Source supplies the Modeler with topology and measurements
	// through five reads, each under the caller's context: a local
	// Collector, a TCP client to a collector daemon or a failover set
	// of them, a read replica, a federation view, a recorded history,
	// or a merge of several.
	Source = collector.Source

	// Config parameterizes NewModeler.
	Config = core.Config

	// ChannelKey names one directed link channel in measurement queries
	// (e.g. Modeler.DataAge).
	ChannelKey = collector.ChannelKey

	// AgentHealth is one agent's collection-health snapshot: its state
	// machine position, consecutive-failure count, and the circuit
	// breaker's next allowed probe time.
	AgentHealth = collector.AgentHealth

	// HealthState is an agent's position in the health state machine.
	HealthState = collector.HealthState

	// FaultInjector scripts deterministic agent failures on a testbed's
	// SNMP plane (see Testbed.Faults).
	FaultInjector = faults.Injector

	// FailoverSource is the replicated Source returned by
	// DialCollectors: it routes each query to the preferred healthy
	// collector replica and fails over transparently when one dies.
	FailoverSource = collector.FailoverSource

	// ReplicaStatus is one replica's health snapshot
	// (FailoverSource.Replicas).
	ReplicaStatus = collector.ReplicaStatus

	// CheckpointInfo describes a restored collector checkpoint.
	CheckpointInfo = collector.CheckpointInfo

	// TelemetryRegistry is the dependency-free metrics registry
	// (counters, gauges, quartile summaries, request spans) every layer
	// of the stack records into. Pass one in Config.Telemetry to observe
	// the Modeler's query path.
	TelemetryRegistry = telemetry.Registry

	// TelemetrySnapshot is a point-in-time copy of a registry's metrics
	// — what the daemon's "stats" op and -debug-addr endpoint serve.
	TelemetrySnapshot = telemetry.Snapshot

	// SpanRecord is one finished request span (trace ID, layer name,
	// timing, per-layer attributes).
	SpanRecord = telemetry.SpanRecord

	// WatchRequest names a collector-level subscription: a query kind
	// (version, util, load) plus a change threshold.
	WatchRequest = collector.WatchRequest

	// WatchUpdate is one pushed delta from a collector-level watch,
	// carrying the overflow/resync/final robustness marks.
	WatchUpdate = collector.WatchUpdate

	// WatchHandle is a live collector-level subscription (receive on C,
	// stop with Cancel, inspect transport failures with Err).
	WatchHandle = collector.WatchHandle

	// WatchSource is a Source that supports push subscriptions: the
	// in-process Collector, the TCP client, and FailoverSource.
	WatchSource = collector.WatchSource

	// FeedPayload is one WatchFeed replication update: a Full state
	// snapshot or an epoch delta, stamped with the producer's HA lease
	// term. Exported so downstream feed consumers (read replicas,
	// standby collectors, replica-of-replica chains) can speak the feed
	// protocol without reaching into collector internals.
	FeedPayload = collector.FeedPayload

	// FeedCursor tracks one feed subscription's replication progress;
	// pass a zero cursor to FeedSource.FeedSince to start from a Full
	// snapshot.
	FeedCursor = collector.FeedCursor

	// FeedSource is a Source able to stream its state as WatchFeed
	// payloads — implemented by the in-process Collector; any source
	// implementing it can sit upstream of a ReadReplica.
	FeedSource = collector.FeedSource

	// WireTopo is the wire form of a discovered topology as carried in
	// feed payloads and checkpoint files; decode with
	// FeedPayload.Topology.
	WireTopo = collector.WireTopo

	// WireNode is the wire form of one topology node.
	WireNode = collector.WireNode

	// WireLink is the wire form of one topology link.
	WireLink = collector.WireLink

	// WatchOptions tunes Modeler.WatchGraph / Modeler.WatchFlowInfo
	// (material-change threshold, delivery buffer).
	WatchOptions = core.WatchOptions

	// GraphUpdate is one recomputed topology answer from WatchGraph.
	GraphUpdate = core.GraphUpdate

	// FlowInfoUpdate is one recomputed flow answer from WatchFlowInfo.
	FlowInfoUpdate = core.FlowInfoUpdate

	// GraphWatch is a live WatchGraph subscription.
	GraphWatch = core.GraphWatch

	// FlowInfoWatch is a live WatchFlowInfo subscription.
	FlowInfoWatch = core.FlowInfoWatch

	// MatrixInfo is one batched flow-matrix answer (Modeler.QueryMatrix):
	// row-major bandwidth and latency matrices over Srcs × Dsts with
	// per-entry validity and the epoch/term of the pinned snapshot it
	// was computed from.
	MatrixInfo = core.MatrixInfo

	// MatrixRequest is the wire form of a batched matrix query as
	// carried by the "matrix" collector op (clients normally use
	// Modeler.QueryMatrix instead).
	MatrixRequest = collector.MatrixRequest

	// MatrixAnswer is the wire form of a batched matrix answer.
	MatrixAnswer = collector.MatrixAnswer

	// MatrixSource is implemented by sources that answer matrix batches
	// natively in one round trip — dialed clients (DialCollector),
	// failover groups (DialCollectors), and in-process sources wired to
	// a batched kernel.
	MatrixSource = collector.MatrixSource
)

// Collector-level watch kinds (WatchRequest.Kind).
const (
	// WatchVersion pushes one update per collector data-version change.
	WatchVersion = collector.WatchVersion
	// WatchUtil pushes a channel's utilization when it moves materially.
	WatchUtil = collector.WatchUtil
	// WatchLoad pushes a host's CPU load when it moves materially.
	WatchLoad = collector.WatchLoad
	// WatchFeed is the replication feed consumed by read replicas: a
	// full state snapshot on subscribe, epoch-keyed deltas after.
	// Applications normally never subscribe to it directly — run a
	// ReadReplica (or remos-replica) instead.
	WatchFeed = collector.WatchFeed
)

// Typed query-lifecycle errors; test with errors.Is. Every way a query
// can fail for lifecycle (rather than semantic) reasons maps to one of
// these, so applications can branch on "try again elsewhere/later"
// versus "the question itself was bad".
var (
	// ErrServerBusy is the typed refusal a collector daemon at its
	// connection cap answers with.
	ErrServerBusy = collector.ErrServerBusy

	// ErrDeadlineExceeded is returned when a query's time budget runs
	// out — locally (the context deadline passed) or remotely (the
	// server refused to compute an answer the caller had already
	// abandoned). It also matches context.DeadlineExceeded.
	ErrDeadlineExceeded = collector.ErrDeadlineExceeded

	// ErrLoadShed is the typed refusal of an overloaded daemon whose
	// admission queue is full; RetryAfter extracts the server's hint.
	ErrLoadShed = collector.ErrLoadShed

	// ErrFrameTooLarge rejects an oversized or corrupt wire frame.
	ErrFrameTooLarge = collector.ErrFrameTooLarge

	// ErrTooManySubscriptions is the typed refusal of a daemon at its
	// watch-subscription cap; the failover layer routes around it.
	ErrTooManySubscriptions = collector.ErrTooManySubscriptions

	// ErrStaleReplica is the typed refusal of a read replica whose
	// replication feed has been quiet past its staleness fence (or
	// that has not yet applied its first snapshot): the replica is
	// alive but refuses to present old state as fresh. The failover
	// layer routes around it without marking the replica down.
	ErrStaleReplica = collector.ErrStaleReplica

	// ErrNotLeader is the typed refusal of a hot-standby collector
	// (remos-collector -standby-of): the daemon is healthy but not the
	// pair's current lease holder. The refusal carries the leader's
	// address — LeaderHint extracts it — and the failover layer
	// re-routes to it in one hop.
	ErrNotLeader = collector.ErrNotLeader

	// ErrMatrixTooLarge is the typed, non-retryable refusal of a daemon
	// asked for a matrix whose N×M admission weight exceeds its
	// configured capacity; split the request or query a bigger daemon.
	ErrMatrixTooLarge = collector.ErrMatrixTooLarge

	// ErrMatrixUnsupported is returned by endpoints that do not serve
	// the batched "matrix" op; Modeler.QueryMatrix falls back to
	// computing the matrix locally when it sees this.
	ErrMatrixUnsupported = collector.ErrMatrixUnsupported
)

// LeaderHint extracts the leader's address from an ErrNotLeader chain;
// ok is false when the refusing standby did not know the leader.
func LeaderHint(err error) (addr string, ok bool) {
	return collector.LeaderHint(err)
}

// RetryAfter extracts the retry-after hint from a load-shed error
// chain; ok is false when err carries none.
func RetryAfter(err error) (d time.Duration, ok bool) {
	return collector.RetryAfterHint(err)
}

// IsLifecycleError reports whether err is one of the typed lifecycle
// errors (deadline, cancellation, shed, busy) rather than a semantic
// error about the query itself.
func IsLifecycleError(err error) bool { return collector.IsLifecycleError(err) }

// NewTelemetryRegistry creates a metrics registry, typically passed as
// Config.Telemetry so the Modeler's query spans and latency quartiles
// are recorded.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTraceID mints a process-unique request trace ID.
func NewTraceID() string { return telemetry.NewTraceID() }

// WithTrace returns ctx carrying a trace ID. Queries issued under the
// returned context stamp the ID into span records on every layer they
// cross — including the collector daemon on the far side of the wire —
// so one slow query can be followed end to end. Queries whose context
// carries no trace get one minted automatically at the API edge.
func WithTrace(ctx context.Context, id string) context.Context {
	return telemetry.WithTrace(ctx, id)
}

// TraceFrom extracts the trace ID from ctx ("" when none is set).
func TraceFrom(ctx context.Context) string { return telemetry.TraceFrom(ctx) }

// Flow classes (§4.2 of the paper).
const (
	FixedFlow       = core.FixedFlow
	VariableFlow    = core.VariableFlow
	IndependentFlow = core.IndependentFlow
)

// Node kinds.
const (
	ComputeNode = graph.Compute
	NetworkNode = graph.Network
)

// Agent health states (see Modeler.Health).
const (
	// AgentHealthy: the last collection attempt succeeded.
	AgentHealthy = collector.Healthy
	// AgentDegraded: recent failures, but the breaker is still probing
	// at full rate.
	AgentDegraded = collector.Degraded
	// AgentDown: enough consecutive failures that attempts are throttled
	// to an exponential-backoff schedule; queries are served from the
	// surviving topology with decaying accuracy.
	AgentDown = collector.Down
)

// Timeframe constructors.
var (
	// TFCapacity queries invariant physical capacities.
	TFCapacity = core.TFCapacity
	// TFCurrent queries the most recent measurements.
	TFCurrent = core.TFCurrent
	// TFHistory queries a trailing measurement window (seconds).
	TFHistory = core.TFHistory
	// TFFuture queries a prediction horizon (seconds ahead).
	TFFuture = core.TFFuture
)

// NewModeler creates a Modeler over a measurement source.
func NewModeler(cfg Config) *Modeler { return core.New(cfg) }

// DialCollector connects to a collector daemon's TCP query service and
// returns it as a Source.
func DialCollector(addr string) (Source, error) { return collector.Dial(addr) }

// DialCollectors connects to several daemons serving the same domain —
// collectors, read replicas (remos-replica), or a mix — and returns a
// failover Source: queries go to the preferred healthy endpoint, fail
// over transparently when it dies, and downed endpoints are re-probed
// in the background. Typed refusals (busy, shed, stale replica) route
// to the next endpoint without marking the refusing one down, so a
// replica fenced by a feed partition rejoins the rotation the moment
// it resyncs. A standby collector's ErrNotLeader refusal carries the
// leader's address, and the failover layer jumps straight to it. At
// least one endpoint must be reachable at dial time.
//
// The initial probe order is a seeded shuffle of addrs, not the list
// order: a fleet of clients all configured with the same endpoint list
// spreads its first connections across the replicas instead of
// stampeding the one listed first. Health-based failover then takes
// over — routing follows live endpoints, not positions. Replicas()
// still reports addrs in the caller's order.
func DialCollectors(addrs ...string) (*FailoverSource, error) {
	return collector.DialFailover(addrs, collector.FailoverConfig{Shuffle: true})
}

// Read-replica re-exports: a ReadReplica subscribes to a collector's
// replication feed, mirrors the state locally, and serves the full
// query surface from the mirror (see cmd/remos-replica for the
// daemon).
type (
	// ReadReplica is an in-process read replica; it implements Source
	// and can be served over TCP with the same machinery as a
	// collector.
	ReadReplica = replica.Replica

	// ReplicaConfig parameterizes a ReadReplica (feed address,
	// staleness fence, resync backoff).
	ReplicaConfig = replica.Config

	// ReplicaState is the replica lifecycle state.
	ReplicaState = replica.State
)

// Replica lifecycle states (see ReadReplica.State).
const (
	// ReplicaSyncing: no snapshot applied yet; queries refuse.
	ReplicaSyncing = replica.Syncing
	// ReplicaLive: fresh within the lag threshold.
	ReplicaLive = replica.Live
	// ReplicaLagging: feed quiet, still inside the staleness fence;
	// answers carry honestly extrapolated ages.
	ReplicaLagging = replica.Lagging
	// ReplicaFenced: feed quiet past the fence; queries refuse with
	// ErrStaleReplica until the feed resumes.
	ReplicaFenced = replica.Fenced
)

// NewReadReplica builds a read replica syncing from the collector at
// cfg.FeedAddr; call Start on it, then optionally WaitSynced.
func NewReadReplica(cfg ReplicaConfig) *ReadReplica { return replica.New(cfg) }

// matrixConfig wires the batched flow-matrix kernel into a server
// config: every remos-served endpoint answers the "matrix" wire op
// through a lazily-snapshotting Modeler over the same source. Sources
// that already forward matrices natively (a dialed Client) are left
// to the server's own MatrixSource passthrough.
func matrixConfig(src Source) collector.ServerConfig {
	if _, ok := src.(collector.MatrixSource); ok {
		return collector.ServerConfig{}
	}
	return collector.ServerConfig{Matrix: core.MatrixHandler(core.New(core.Config{Source: src}))}
}

// ServeSource exposes any Source (e.g. a ReadReplica) on a TCP address
// with the standard query/watch service, including the batched
// "matrix" op; returns the bound address and a shutdown function.
func ServeSource(src Source, addr string) (string, func() error, error) {
	srv, err := collector.ServeConfig(src, addr, matrixConfig(src))
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Close, nil
}

// MergeSources combines several collectors into one Source (the paper's
// "multiple cooperating Collectors").
func MergeSources(sources ...Source) Source { return collector.Merge(sources...) }

// LoadHistorySource reads a measurement dump written by
// Testbed.SaveHistory (or a collector daemon) and returns it as an
// offline Source: a Modeler over it answers queries about the recorded
// network without any live collector.
func LoadHistorySource(r io.Reader) (Source, error) { return collector.LoadHistory(r) }

// SelectNodes runs the paper's §7.2 greedy clustering on live Remos
// measurements: choose k well-connected hosts from pool, starting from
// start. It returns the chosen hosts in selection order.
func SelectNodes(m *Modeler, pool []NodeID, start NodeID, k int, tf Timeframe) ([]NodeID, error) {
	res, err := cluster.FromModeler(m, pool, start, k, cluster.TestbedMetric(), tf)
	if err != nil {
		return nil, err
	}
	return res.Nodes, nil
}

// Testbed is a fully wired simulated deployment: the Figure 3 testbed
// (or a custom topology) with SNMP agents, a running Collector, and a
// Modeler — everything an example or experiment needs. Time is virtual:
// advance it with Run.
type Testbed struct {
	Clock     *simclock.Clock
	Network   *netsim.Network
	Agents    *snmp.AttachedAgents
	Collector *collector.Collector
	Modeler   *Modeler

	// Faults scripts deterministic failures on the path between the
	// collector and the agents: blackhole windows, probabilistic loss,
	// added latency, response corruption, flaps. Experiments use it to
	// study how queries degrade when parts of the network stop answering.
	Faults *FaultInjector
}

// NewTestbed builds the standard simulated testbed of the paper's
// Figure 3 (hosts m-1..m-8, routers aspen/timberline/whiteface, 100 Mbps
// links) with a collector polling every 2 virtual seconds.
func NewTestbed() (*Testbed, error) {
	return NewTestbedOn(topology.Testbed())
}

// LoadTopology parses a topofile description (see internal/topofile for
// the format: `host NAME`, `router NAME [internal=BW]`,
// `link A B 100Mbps 0.5ms`) for use with NewTestbedOn.
func LoadTopology(text string) (*graph.Graph, error) {
	return topofile.ParseString(text)
}

// FormatTopology renders a graph in topofile form.
func FormatTopology(g *graph.Graph) string { return topofile.Format(g) }

// NewTestbedOn builds a simulated deployment over a custom topology.
func NewTestbedOn(g *graph.Graph) (*Testbed, error) {
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		return nil, err
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	addrs := make(map[NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	// All collector traffic crosses the fault injector, which is inert
	// until the experiment scripts a failure. The fixed seed keeps
	// probabilistic faults reproducible run to run.
	inj := faults.New(att.Registry, clk, 1)
	col := collector.New(collector.Config{
		Client:        snmp.NewClient(inj, snmp.DefaultCommunity),
		Clock:         clk,
		Addrs:         addrs,
		PollPeriod:    2,
		PerHopLatency: topology.PerHopLatency,
	})
	if err := col.Start(); err != nil {
		return nil, err
	}
	return &Testbed{
		Clock:     clk,
		Network:   n,
		Agents:    att,
		Collector: col,
		Modeler:   NewModeler(Config{Source: col}),
		Faults:    inj,
	}, nil
}

// Run advances virtual time by d seconds, executing everything scheduled
// in that span (collector polls, traffic, transfers).
func (t *Testbed) Run(d float64) { t.Clock.Advance(d) }

// After schedules fn to run d virtual seconds from now; the callback
// receives the virtual time in seconds.
func (t *Testbed) After(d float64, label string, fn func(now float64)) {
	t.Clock.After(d, label, func(ts simclock.Time) { fn(float64(ts)) })
}

// Now returns the current virtual time in seconds.
func (t *Testbed) Now() float64 { return float64(t.Clock.Now()) }

// Hosts returns the testbed's compute nodes.
func (t *Testbed) Hosts() []NodeID { return t.Network.Graph().ComputeNodes() }

// SaveHistory writes the testbed collector's topology and measurement
// history to w for later offline analysis via LoadHistorySource.
func (t *Testbed) SaveHistory(w io.Writer) error { return t.Collector.SaveHistory(w) }

// ServeCollector exposes the testbed's collector on a TCP address
// (e.g. "127.0.0.1:0") for out-of-process Modelers; returns the bound
// address and a shutdown function.
func (t *Testbed) ServeCollector(addr string) (string, func() error, error) {
	srv, err := collector.ServeConfig(t.Collector, addr, matrixConfig(t.Collector))
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Close, nil
}

// CollectorReplica is one TCP endpoint serving a testbed's collector —
// one member of a replica set for failover experiments. Kill it with
// Close and bring it back on the same address with Restart.
type CollectorReplica struct {
	src  collector.Source
	cfg  collector.ServerConfig
	addr string
	srv  *collector.Server
}

// Addr returns the replica's bound address.
func (r *CollectorReplica) Addr() string { return r.addr }

// Close kills this replica (simulating a daemon crash). In-flight and
// future calls to it fail until Restart.
func (r *CollectorReplica) Close() error {
	if r.srv == nil {
		return nil
	}
	srv := r.srv
	r.srv = nil
	return srv.Close()
}

// Restart re-serves the collector on the replica's original address.
func (r *CollectorReplica) Restart() error {
	if r.srv != nil {
		return nil
	}
	srv, err := collector.ServeConfig(r.src, r.addr, r.cfg)
	if err != nil {
		return err
	}
	r.srv = srv
	return nil
}

// ServeReplicas exposes the testbed's collector on n independent TCP
// endpoints — a deterministic stand-in for n replica daemons sharing
// one network, for exercising client failover end to end. Close every
// replica when done.
func (t *Testbed) ServeReplicas(n int) ([]*CollectorReplica, error) {
	cfg := matrixConfig(t.Collector)
	var reps []*CollectorReplica
	for i := 0; i < n; i++ {
		srv, err := collector.ServeConfig(t.Collector, "127.0.0.1:0", cfg)
		if err != nil {
			for _, r := range reps {
				r.Close()
			}
			return nil, err
		}
		reps = append(reps, &CollectorReplica{src: t.Collector, cfg: cfg, addr: srv.Addr(), srv: srv})
	}
	return reps, nil
}

// SaveCheckpoint writes the testbed collector's full state (topology,
// windows, counters, health, poll statistics) for warm-restart via
// Collector.RestoreCheckpoint.
func (t *Testbed) SaveCheckpoint(w io.Writer) error { return t.Collector.SaveCheckpoint(w) }
