// Package core implements the Remos Modeler — the paper's primary
// contribution: a query-based, network-independent interface that
// applications link against to ask about the network (Figure 2, right
// half). It consumes a collector.Source (in-process collector, TCP
// client, or multi-collector merge) and answers the two queries of §4:
//
//	remos_get_graph(nodes, graph, timeframe)   -> Modeler.GetGraph
//	remos_flow_info(fixed, variable, indep, t) -> Modeler.FlowInfo
//
// plus the convenience queries the tool chain uses (bandwidth matrices
// for clustering).
//
// All dynamic quantities are reported as quartile Stats (§4.4); flow
// queries resolve sharing with weighted max-min over the queried flows
// simultaneously (§4.2); topology queries return a logical topology with
// unused links pruned and pass-through router chains collapsed (§4.3).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// TimeframeKind selects the variable-timescale semantics of a query.
type TimeframeKind int

const (
	// Capacity reports invariant physical capacities, ignoring traffic.
	Capacity TimeframeKind = iota
	// Current reports the most recent measurement.
	Current
	// History reports measurements averaged over the trailing Span.
	History
	// Future reports a prediction Horizon seconds ahead, derived from
	// the measurement history by the Modeler's predictor.
	Future
)

func (k TimeframeKind) String() string {
	switch k {
	case Capacity:
		return "capacity"
	case Current:
		return "current"
	case History:
		return "history"
	case Future:
		return "future"
	default:
		return fmt.Sprintf("TimeframeKind(%d)", int(k))
	}
}

// Timeframe is the time context of a query (§4.4 "variable timescales").
type Timeframe struct {
	Kind    TimeframeKind
	Span    float64 // History: trailing window in seconds
	Horizon float64 // Future: seconds ahead
}

// TFCapacity, TFCurrent, TFHistory and TFFuture construct timeframes.
func TFCapacity() Timeframe              { return Timeframe{Kind: Capacity} }
func TFCurrent() Timeframe               { return Timeframe{Kind: Current} }
func TFHistory(span float64) Timeframe   { return Timeframe{Kind: History, Span: span} }
func TFFuture(horizon float64) Timeframe { return Timeframe{Kind: Future, Horizon: horizon} }

// Config parameterizes a Modeler.
type Config struct {
	// Source supplies topology and measurements.
	Source collector.Source

	// Predictor is used for Future timeframes (default stats.EWMA).
	Predictor stats.Predictor

	// DiscountSelf subtracts the application's registered own flows from
	// measured utilization before computing availability. The paper
	// observes (§8.3) that without this an application "would migrate to
	// avoid its own traffic, which is clearly a decision based on an
	// inherent fallacy"; registering flows fixes it. Off by default to
	// match the paper's implementation.
	DiscountSelf bool

	// Sharing selects the policy used to resolve flow queries. The
	// default is max-min fair share, the paper's recommendation ("the
	// basic sharing policy assumed by Remos corresponds to the max-min
	// fair share policy"); ShareProportional is the naive model kept for
	// the sharing-policy ablation.
	Sharing SharingPolicy

	// StaleHalfLife decays the accuracy of Future predictions by the age
	// of the measurement history they extrapolate from: accuracy is
	// halved for every StaleHalfLife seconds since the channel's newest
	// sample. Current and History answers already carry collector-side
	// decay (collector.Config.StaleHalfLife); this setting covers the
	// prediction path, which is rebuilt from raw samples. Zero disables.
	StaleHalfLife float64

	// Telemetry, when non-nil, records query-path metrics (latency
	// quartiles per query kind, snapshot epoch, availability-memo hit
	// rates) and per-query spans. Nil disables modeler-side telemetry at
	// zero cost; trace IDs still propagate to the collector either way.
	Telemetry *telemetry.Registry
}

// SharingPolicy selects how QueryFlowInfo splits contended bandwidth.
type SharingPolicy int

const (
	// ShareMaxMin is weighted max-min fairness (the default).
	ShareMaxMin SharingPolicy = iota
	// ShareProportional splits every link proportionally to weights
	// without redistributing what bottlenecked-elsewhere flows leave
	// behind; it systematically under-promises (see the ablation).
	ShareProportional
)

// Modeler answers Remos queries. Safe for concurrent use: queries run
// lock-free against an immutable, epoch-numbered topology snapshot
// (see snapshot.go), so readers never block each other; only a Refresh
// — or the first query after one — takes a lock, to single-flight the
// rebuild.
type Modeler struct {
	cfg Config
	tel *telemetry.Registry // nil when Config.Telemetry was nil

	// reader is how every query reads its measurements: one
	// conditional batched read per query (view.prefetch) — a Reader over
	// an in-process source, a dialed handle's own read op.
	reader collector.ReadSource

	// snap is the read side: queries Load it and proceed without locks.
	// buildMu single-flights rebuilds after Refresh (or at first use);
	// epoch numbers each installed snapshot.
	snap    atomic.Pointer[snapshot]
	buildMu sync.Mutex
	epoch   atomic.Uint64

	// selfMu guards the registered self flows; selfGen folds into the
	// memo version so registering or clearing flows invalidates
	// memoized availabilities (DiscountSelf bakes them in).
	selfMu  sync.Mutex
	self    []selfFlow
	selfGen atomic.Uint64

	// Pre-resolved instruments: registry lookups (an RWMutex plus a map
	// hit each) stay off the per-query path. All methods are nil-safe
	// no-ops when telemetry is off.
	gEpoch     *telemetry.Gauge
	gCacheAge  *telemetry.Gauge
	cFetches   *telemetry.Counter
	cMemoHits  *telemetry.Counter
	cMemoMiss  *telemetry.Counter
	qGetGraph  *telemetry.Quantile
	qFlowQuery *telemetry.Quantile
	qBW        *telemetry.Quantile
	qMatrix    *telemetry.Quantile
}

type selfFlow struct {
	src, dst graph.NodeID
	rate     float64
}

// New creates a Modeler over a collector source.
func New(cfg Config) *Modeler {
	if cfg.Source == nil {
		panic("core: Modeler requires a Source")
	}
	if cfg.Predictor == nil {
		cfg.Predictor = stats.EWMA{Alpha: 0.3}
	}
	m := &Modeler{cfg: cfg, tel: cfg.Telemetry, reader: collector.ReaderFor(cfg.Source)}
	m.gEpoch = m.tel.Gauge("modeler.snapshot_epoch")
	m.gCacheAge = m.tel.Gauge("modeler.topo_cache_age_s")
	m.cFetches = m.tel.Counter("modeler.topo_fetches")
	m.cMemoHits = m.tel.Counter("modeler.avail_memo_hits")
	m.cMemoMiss = m.tel.Counter("modeler.avail_memo_misses")
	m.qGetGraph = m.tel.Quantile("modeler.getgraph_ms", 0)
	m.qFlowQuery = m.tel.Quantile("modeler.flowquery_ms", 0)
	m.qBW = m.tel.Quantile("modeler.bw_ms", 0)
	m.qMatrix = m.tel.Quantile("modeler.matrix_ms", 0)
	return m
}

// Telemetry returns the Modeler's metrics registry (nil when telemetry
// was not configured).
func (m *Modeler) Telemetry() *telemetry.Registry { return m.tel }

// Refresh drops the current snapshot so the next query re-discovers the
// topology under a fresh epoch. In-flight queries finish against the
// snapshot they already loaded — that is the point of immutability.
func (m *Modeler) Refresh() { m.snap.Store(nil) }

// snapshot returns the current topology snapshot, building (and
// installing) one if Refresh dropped it. The fast path is a single
// atomic load; the build path is single-flighted under buildMu so a
// thundering herd after Refresh does one discovery, not N.
func (m *Modeler) snapshot(ctx context.Context) (*snapshot, error) {
	if s := m.snap.Load(); s != nil {
		return s, nil
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	if s := m.snap.Load(); s != nil {
		return s, nil
	}
	t, err := collector.CtxTopology(ctx, m.cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rt, err := t.Graph.Routes()
	if err != nil {
		return nil, fmt.Errorf("core: routing discovered topology: %w", err)
	}
	s := newSnapshot(m.epoch.Add(1), t, rt)
	m.snap.Store(s)
	m.cFetches.Inc()
	m.gEpoch.Set(float64(s.epoch))
	m.gCacheAge.Set(0)
	return s, nil
}

// topology returns the current snapshot's topology and routes — the
// compatibility form for callers that don't need epochs or memos.
func (m *Modeler) topology(ctx context.Context) (*collector.Topology, *graph.RouteTable, error) {
	s, err := m.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	return s.topo, s.rt, nil
}

// startQuery is the shared telemetry prologue of the public query entry
// points (§4's remos_get_graph and remos_flow_info): it guarantees ctx
// carries a trace ID — minting one if the caller supplied none — and
// starts the query's clock. That one clock read also dates the topology
// cache age gauge, and the returned finish records the latency quantile
// and commits a span named for the query from it; call finish exactly
// once, with the query's final error.
func (m *Modeler) startQuery(ctx context.Context, span string, q *telemetry.Quantile) (context.Context, func(error)) {
	ctx, trace := telemetry.EnsureTrace(ctx)
	start := time.Now()
	if s := m.snap.Load(); s != nil && m.tel != nil {
		m.gCacheAge.Set(start.Sub(s.fetched).Seconds())
	}
	return ctx, func(err error) {
		d := time.Since(start)
		q.Observe(float64(d) / float64(time.Millisecond))
		if m.tel == nil {
			return
		}
		rec := telemetry.SpanRecord{Trace: trace, Name: span, Start: start, Duration: d}
		if err != nil {
			rec.Attrs = map[string]string{"error": err.Error()}
		}
		m.tel.RecordSpan(rec)
	}
}

// RegisterSelfFlow tells the Modeler about a flow the application itself
// is currently sending, so DiscountSelf can exclude it. Rate is bits/s.
func (m *Modeler) RegisterSelfFlow(src, dst graph.NodeID, rate float64) {
	m.selfMu.Lock()
	defer m.selfMu.Unlock()
	m.self = append(m.self, selfFlow{src, dst, rate})
	m.selfGen.Add(1)
}

// ClearSelfFlows forgets all registered self flows.
func (m *Modeler) ClearSelfFlows() {
	m.selfMu.Lock()
	defer m.selfMu.Unlock()
	m.self = nil
	m.selfGen.Add(1)
}

// selfRateOn returns the registered self-traffic rate crossing a channel.
func (m *Modeler) selfRateOn(topo *collector.Topology, rt *graph.RouteTable, key collector.ChannelKey) float64 {
	m.selfMu.Lock()
	defer m.selfMu.Unlock()
	var sum float64
	for _, sf := range m.self {
		p := rt.Route(sf.src, sf.dst)
		if p == nil {
			continue
		}
		for i, l := range p.Links {
			if topo.Key(l, l.DirFrom(p.Nodes[i])) == key {
				sum += sf.rate
			}
		}
	}
	return sum
}

// degradedAvailability is the answer for a channel whose measurement is
// missing: its capacity, at low accuracy — "initial implementations may
// only support historical performance".
func degradedAvailability(l *graph.Link) stats.Stat {
	return stats.Exact(l.Capacity).WithAccuracy(0.1)
}

// availabilityOf turns one channel's read entry into its availability
// under a timeframe: capacity minus the utilization — summarized by the
// collector, or predicted here from the raw window for Future, decayed
// by the window's age — with the application's own registered traffic
// discounted first when DiscountSelf is on. A failed entry (unknown
// channel, no samples yet) degrades to the capacity; a lifecycle error
// never gets this far, it aborted the read: a caller whose budget
// expired gets the typed error, not a fabricated capacity number.
func (m *Modeler) availabilityOf(s *snapshot, l *graph.Link, key collector.ChannelKey, tf Timeframe, e *collector.ReadEntry) stats.Stat {
	util := e.Stat
	if tf.Kind == Future && !e.Failed && len(e.Window) > 0 {
		util = stats.PredictStat(e.Window, m.cfg.Predictor, tf.Horizon)
		if m.cfg.StaleHalfLife > 0 && e.Age > 0 {
			util.Age = e.Age
			util = util.AgeDecayed(m.cfg.StaleHalfLife)
		}
	}
	if e.Failed || !util.Valid() {
		return degradedAvailability(l)
	}
	if m.cfg.DiscountSelf {
		if own := m.selfRateOn(s.topo, s.rt, key); own > 0 {
			util = stats.Stat{
				Min: util.Min - own, Q1: util.Q1 - own, Median: util.Median - own,
				Q3: util.Q3 - own, Max: util.Max - own,
				Accuracy: util.Accuracy, Samples: util.Samples,
			}.ClampNonNegative()
		}
	}
	return stats.SubFrom(l.Capacity, util)
}

// AvailableBandwidth reports the bottleneck availability between two
// hosts under a timeframe: the element-wise minimum along the route.
func (m *Modeler) AvailableBandwidth(src, dst graph.NodeID, tf Timeframe) (stats.Stat, error) {
	return m.AvailableBandwidthCtx(context.Background(), src, dst, tf)
}

// AvailableBandwidthCtx is AvailableBandwidth under a context: the
// deadline rides to the collector with every measurement fetch, and
// cancellation aborts between (and inside) link lookups.
func (m *Modeler) AvailableBandwidthCtx(ctx context.Context, src, dst graph.NodeID, tf Timeframe) (_ stats.Stat, retErr error) {
	ctx, finish := m.startQuery(ctx, "query.bw", m.qBW)
	defer func() { finish(retErr) }()
	st, err := m.availableBandwidth(ctx, src, dst, tf)
	if err == errTopologyMoved {
		st, err = m.availableBandwidth(ctx, src, dst, tf)
	}
	return st, err
}

func (m *Modeler) availableBandwidth(ctx context.Context, src, dst graph.NodeID, tf Timeframe) (stats.Stat, error) {
	s, err := m.snapshot(ctx)
	if err != nil {
		return stats.NoData(), err
	}
	if src == dst {
		return stats.Exact(math.Inf(1)), nil
	}
	p := s.rt.Route(src, dst)
	if p == nil {
		return stats.NoData(), fmt.Errorf("core: no route %s -> %s", src, dst)
	}
	v := view{m: m, s: s, tf: tf}
	sc := getScratch(s.chanSlots)
	sc.wantPath(p)
	err = v.prefetch(ctx, sc)
	putScratch(sc)
	if err != nil {
		return stats.NoData(), err
	}
	out := stats.NoData()
	for i, l := range p.Links {
		out = stats.MinStat(out, v.channelAvailability(l, l.DirFrom(p.Nodes[i])))
	}
	v.publishHits()
	// Router internal bandwidth also caps the path (Figure 1).
	for _, nid := range p.Nodes[1 : len(p.Nodes)-1] {
		if n := s.topo.Graph.Node(nid); n != nil && n.InternalBW > 0 {
			out = stats.MinStat(out, stats.Exact(n.InternalBW))
		}
	}
	return out, nil
}

// PathLatency reports the one-way latency between two hosts (per-hop
// constant model, exact).
func (m *Modeler) PathLatency(src, dst graph.NodeID) (stats.Stat, error) {
	return m.PathLatencyCtx(context.Background(), src, dst)
}

// PathLatencyCtx is PathLatency under a context.
func (m *Modeler) PathLatencyCtx(ctx context.Context, src, dst graph.NodeID) (stats.Stat, error) {
	_, rt, err := m.topology(ctx)
	if err != nil {
		return stats.NoData(), err
	}
	if src == dst {
		return stats.Exact(0), nil
	}
	p := rt.Route(src, dst)
	if p == nil {
		return stats.NoData(), fmt.Errorf("core: no route %s -> %s", src, dst)
	}
	return stats.Exact(p.Latency()), nil
}

// Health reports per-agent collection health when the underlying source
// tracks it (in-process Collector, TCP Client, or Merged over those);
// nil otherwise. Applications use it to tell "the link is idle" apart
// from "nobody has heard from that router lately".
func (m *Modeler) Health() map[graph.NodeID]collector.AgentHealth {
	if hs, ok := m.cfg.Source.(collector.HealthSource); ok {
		return hs.Health()
	}
	return nil
}

// DataAge reports how many seconds old the newest measurement for a
// channel is (+Inf before the first sample).
func (m *Modeler) DataAge(key collector.ChannelKey) (float64, error) {
	return m.DataAgeCtx(context.Background(), key)
}

// DataAgeCtx is DataAge under a context.
func (m *Modeler) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	return collector.CtxDataAge(ctx, m.cfg.Source, key)
}

// HostLoad reports a host's CPU load fraction (Remos's "simple interface
// to computation resources").
func (m *Modeler) HostLoad(id graph.NodeID, tf Timeframe) (stats.Stat, error) {
	return m.HostLoadCtx(context.Background(), id, tf)
}

// HostLoadCtx is HostLoad under a context.
func (m *Modeler) HostLoadCtx(ctx context.Context, id graph.NodeID, tf Timeframe) (stats.Stat, error) {
	st, err := collector.CtxHostLoad(ctx, m.cfg.Source, id, tfSpan(tf))
	if err != nil {
		return stats.NoData(), err
	}
	return st, nil
}

// HostMemory reports a host's physical memory in bytes (0 if the agent
// does not expose it). Applications use it for the §2 sizing constraint:
// enough nodes to fit the data set.
func (m *Modeler) HostMemory(id graph.NodeID) (float64, error) {
	topo, _, err := m.topology(context.Background())
	if err != nil {
		return 0, err
	}
	n := topo.Graph.Node(id)
	if n == nil {
		return 0, fmt.Errorf("core: unknown node %q", id)
	}
	if n.Kind != graph.Compute {
		return 0, fmt.Errorf("core: %q is not a compute node", id)
	}
	return n.MemoryBytes, nil
}

// MinNodesForData returns the smallest node count whose pooled memory
// holds dataBytes, given the per-host memories of the candidate pool
// (largest hosts first). It returns an error when even the whole pool is
// too small.
func (m *Modeler) MinNodesForData(pool []graph.NodeID, dataBytes float64) (int, error) {
	var mems []float64
	for _, id := range pool {
		mem, err := m.HostMemory(id)
		if err != nil {
			return 0, err
		}
		mems = append(mems, mem)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mems)))
	var sum float64
	for i, mem := range mems {
		sum += mem
		if sum >= dataBytes {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("core: pool memory %v bytes cannot hold %v bytes", sum, dataBytes)
}
