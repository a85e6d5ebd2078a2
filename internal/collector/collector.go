// Package collector implements the Remos Collector (Figure 2): the
// network-facing half of the system. It discovers topology and polls
// octet counters over SNMP, maintains per-channel utilization time
// series, and answers the Modeler's queries either in-process or over a
// TCP service (server.go, client.go, ops.go). Multiple collectors
// covering different parts of a network can be merged (merge.go), the
// paper's "large environment may require multiple cooperating
// Collectors".
package collector

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"time"
)

// ChannelKey names one direction of one physical link in a way that is
// stable across collectors: the global link ID published by agents in the
// Remos enterprise MIB, plus a direction relative to the canonical
// (lexicographically smaller endpoint = A) orientation.
type ChannelKey struct {
	Global int
	Dir    graph.Dir
}

func (k ChannelKey) String() string { return fmt.Sprintf("glink%d/%s", k.Global, k.Dir) }

// Topology is a discovered network map.
type Topology struct {
	// Graph holds the discovered nodes and links. Links are inserted in
	// ascending global-ID order with canonical endpoint orientation, so
	// local IDs are deterministic.
	Graph *graph.Graph
	// GlobalID maps the Graph's local link IDs to global link IDs.
	GlobalID map[graph.LinkID]int
	// DiscoveredAt is the virtual time of discovery.
	DiscoveredAt float64

	// The slot index: every channel and every node in one dense order,
	// the order a State, the poll's counter table and a FeedCursor hold
	// their measurements in. Both ends of a feed derive it from the same
	// topology, so slots never cross the wire. Built once (index) where
	// a Topology is made for a State: by discovery, and by State.Extend
	// from a payload's wire topology.
	chans    []ChannelKey   // ascending (Global, Dir)
	nodes    []graph.NodeID // ascending
	chanSlot map[ChannelKey]int32
	nodeSlot map[graph.NodeID]int32
}

// index builds t's slot index and returns t.
func (t *Topology) index() *Topology {
	t.chans = make([]ChannelKey, 0, 2*len(t.GlobalID))
	for _, gid := range t.GlobalID {
		t.chans = append(t.chans, ChannelKey{Global: gid, Dir: graph.AtoB}, ChannelKey{Global: gid, Dir: graph.BtoA})
	}
	slices.SortFunc(t.chans, compareKeys)
	t.chans = slices.Compact(t.chans) // two links may share a global ID
	t.nodes = t.Graph.Nodes()
	slices.Sort(t.nodes)
	t.chanSlot = make(map[ChannelKey]int32, len(t.chans))
	for s, k := range t.chans {
		t.chanSlot[k] = int32(s)
	}
	t.nodeSlot = make(map[graph.NodeID]int32, len(t.nodes))
	for s, id := range t.nodes {
		t.nodeSlot[id] = int32(s)
	}
	return t
}

// chanSlotOf is key's channel slot; false when t (which may be nil)
// has no such channel.
func (t *Topology) chanSlotOf(key ChannelKey) (int, bool) {
	if t == nil {
		return 0, false
	}
	s, ok := t.chanSlot[key]
	return int(s), ok
}

// nodeSlotOf is id's node slot; false when t (which may be nil) has no
// such node.
func (t *Topology) nodeSlotOf(id graph.NodeID) (int, bool) {
	if t == nil {
		return 0, false
	}
	s, ok := t.nodeSlot[id]
	return int(s), ok
}

// compareKeys orders channel keys by (Global, Dir): the slot order, and
// the order a payload's channel entries are in.
func compareKeys(a, b ChannelKey) int {
	return cmp.Or(cmp.Compare(a.Global, b.Global), cmp.Compare(a.Dir, b.Dir))
}

// Key returns the ChannelKey for a directed traversal of a local link.
func (t *Topology) Key(l *graph.Link, d graph.Dir) ChannelKey {
	return ChannelKey{Global: t.GlobalID[l.ID], Dir: d}
}

// VersionedSource is an optional Source refinement exposing a cheap,
// monotonically increasing data version: the version changes whenever
// the measurements or topology behind the source may have changed (a
// poll round ran, a rediscovery completed, a checkpoint was restored).
// The Modeler uses it to invalidate its per-snapshot availability memo
// without re-fetching every channel per query. A dialed handle (Client,
// FailoverSource) deliberately has none: the version lives in another
// process, and a copy of it held client-side would be stale the moment
// a poll ran. Its Modeler instead sends the version it memoized under
// along with the query's one fetch (ReadSource, readwire.go) and the
// server says whether it still stands — one round trip that replaces
// the dozen per-channel ones, rather than a probe on top of them. A
// source with neither capability (a history Replay, a test double) is
// simply not memoized.
type VersionedSource interface {
	DataVersion() (version uint64, ok bool)
}

// VersionOf is src's data version: 0, and ok false, when src is not a
// VersionedSource or reports none.
func VersionOf(src Source) (version uint64, ok bool) {
	if vs, is := src.(VersionedSource); is {
		if version, ok = vs.DataVersion(); ok {
			return version, true
		}
	}
	return 0, false
}

// Source is the query surface the Modeler consumes: five reads, each
// under the caller's context. Implemented in process by *Collector,
// *Merged, the history Replay, the read replica and the federation
// View and Region; over TCP by *Client and *FailoverSource, which derive
// per-call I/O deadlines from ctx, forward the remaining budget to the
// server and abort in-flight reads on cancellation. An in-process source
// answers at once and leaves the dead-context check to the caller
// (CtxTopology and its siblings).
type Source interface {
	// TopologyCtx returns the discovered network map.
	TopologyCtx(ctx context.Context) (*Topology, error)
	// UtilizationCtx summarizes the traffic rate (bits/s) observed on a
	// channel over the trailing span seconds; span 0 means latest sample.
	UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error)
	// SamplesCtx returns the raw utilization samples for predictors.
	SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error)
	// HostLoadCtx summarizes a host's CPU load fraction over the span.
	HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error)
	// DataAgeCtx reports how many seconds old the newest sample for a
	// channel is — the staleness a Modeler uses to decay prediction
	// accuracy at query time.
	DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error)
}

// Config parameterizes a Collector.
type Config struct {
	Client *snmp.Client
	Clock  *simclock.Clock

	// Addrs maps node IDs to agent addresses; the collector polls all of
	// them and discovers topology from them. This is the collector's
	// administrative domain.
	Addrs map[graph.NodeID]string

	// PollPeriod is the counter-polling interval in (virtual) seconds.
	PollPeriod float64

	// WindowLen bounds the per-channel sample windows, which have no
	// age bound.
	//reach:keep TestTiersAgreeOnSharedState wraps 64-sample windows in 220 epochs, not 512
	WindowLen int

	// PerHopLatency is the fixed per-hop delay annotated on discovered
	// links, matching the paper's collector.
	PerHopLatency float64

	// RediscoverPeriod, when positive, re-runs topology discovery every
	// that many virtual seconds, picking up capacity changes (degraded
	// links report a new ifSpeed) and newly reachable agents. Zero
	// disables periodic rediscovery.
	//reach:keep periodic rediscovery, the only way a running collector sees renumbered links; TestTiersAgreeOnSharedState and the rediscover tests drive it
	RediscoverPeriod float64

	// DownAfter is the number of consecutive failed attempts at which an
	// agent's health goes from Degraded to Down (default 3). The first
	// failure already marks it Degraded.
	DownAfter int

	// BackoffBase and BackoffMax bound the exponential retry backoff the
	// circuit breaker applies to failing agents, in virtual seconds:
	// after the n-th consecutive failure the next attempt waits
	// min(BackoffBase·2^(n-1), BackoffMax). Defaults: PollPeriod and
	// 16×PollPeriod.
	BackoffBase float64
	BackoffMax  float64

	// StaleHalfLife is the data age, in virtual seconds, at which a
	// channel's reported Accuracy has decayed to half — the §4.4
	// estimation-accuracy channel carrying outage information. Zero
	// means 10×PollPeriod; negative disables decay.
	StaleHalfLife float64
}

func (c *Config) fill() {
	if c.PollPeriod <= 0 {
		c.PollPeriod = 2.0
	}
	if c.WindowLen <= 0 {
		c.WindowLen = 512
	}
	if c.PerHopLatency <= 0 {
		c.PerHopLatency = 0.0005
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = c.PollPeriod
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 16 * c.BackoffBase
	}
	if c.StaleHalfLife == 0 {
		c.StaleHalfLife = 10 * c.PollPeriod
	}
}

// staleHalfLife returns the effective half-life (0 = decay disabled).
func (c *Config) staleHalfLife() float64 {
	if c.StaleHalfLife < 0 {
		return 0
	}
	return c.StaleHalfLife
}

// Collector polls agents and accumulates utilization history.
type Collector struct {
	cfg Config
	tel *telemetry.Registry

	mu sync.Mutex
	// st is the measurement state (state.go). The poll and discovery
	// paths write into its windows and health in place; a feed apply or
	// a checkpoint restore replaces it whole. counters is the last
	// reading of each channel, by channel slot of st's topology.
	st         *State
	counters   []counterState
	lastNode   map[graph.NodeID]*nodeInfo
	agents     []agentSlot // the domain in node-ID order; plan fields guarded by mu
	ticker     *simclock.Ticker
	rediscover *simclock.Ticker

	polls       uint64
	pollErrors  uint64
	discoveries uint64

	// pollMu serialises poll rounds and guards the round's scratch
	// buffers, which are reused from round to round: the readings, the
	// GET on the wire and the values of the agent being read
	// (discovery.go's getAll).
	pollMu    sync.Mutex
	obsBuf    []agentObs
	octetBuf  []uint32
	roundWire []byte
	roundVals []snmp.Value

	// stateGen counts wholesale state replacements (checkpoint
	// restores). Feed cursors (feed.go) remember the generation they
	// were built against; a mismatch means per-channel sample cursors
	// reference windows that no longer exist, so the subscription gets
	// a fresh Full payload instead of a bogus delta. Guarded by mu.
	stateGen uint64

	// dataVersion increments whenever stored measurements or topology
	// may have changed (poll round, discovery, checkpoint restore); see
	// VersionedSource. Atomic so readers never touch c.mu.
	dataVersion atomic.Uint64

	// haTerm/haMode publish the HA lease term and role (ha.go): set by
	// the ha.Node on role transitions, read by the feed, watch, and
	// query paths to stamp fencing state on everything that leaves the
	// process. Atomics so stamping never touches c.mu.
	haTerm atomic.Uint64
	haMode atomic.Uint32

	// bell rings after every data-version bump (VersionNotifier,
	// watch.go); its own lock, so ringing never contends with
	// query-path readers on c.mu.
	bell VersionBell

	// Hot-path instruments, resolved once at construction so PollOnce
	// pays pointer dereferences, not registry lookups, per round.
	telPolls      *telemetry.Counter
	telPollErrors *telemetry.Counter
	telPollMS     *telemetry.Quantile
	telSamples    *telemetry.Counter
}

// counterState is one channel's last counter reading. The exported
// fields are the baseline a checkpoint carries.
type counterState struct {
	At     float64
	Octets uint32
	Valid  bool
	// round is the poll round (polls+1 at the time) that last wrote the
	// entry: both ends of a link report the same channel, and the first
	// agent in node-ID order to report it in a round wins.
	round uint64
}

// agentObs is one agent's readings in a round, collected without c.mu
// (agents may be slow) and applied under it in one step: the plan they
// were read by, where its counter values start in the round's octets,
// and its CPU load when it has one.
type agentObs struct {
	agent  int
	plan   *pollPlan
	octets int
	load   float64
	loaded bool
}

// New creates a Collector; call Discover (or Start, which discovers
// first) before querying.
func New(cfg Config) *Collector {
	cfg.fill()
	tel := telemetry.NewRegistry()
	agents := make([]agentSlot, 0, len(cfg.Addrs))
	for id, addr := range cfg.Addrs {
		agents = append(agents, agentSlot{id: id, addr: addr})
	}
	sort.Slice(agents, func(i, j int) bool { return agents[i].id < agents[j].id })
	return &Collector{
		cfg:      cfg,
		tel:      tel,
		agents:   agents,
		st:       newState(cfg.staleHalfLife(), cfg.WindowLen, 0),
		lastNode: make(map[graph.NodeID]*nodeInfo),

		telPolls:      tel.Counter("collector.polls"),
		telPollErrors: tel.Counter("collector.poll.errors"),
		telPollMS:     tel.Quantile("collector.poll.wall_ms", 0),
		telSamples:    tel.Counter("collector.samples.ingested"),
	}
}

// Telemetry returns the collector's metrics registry: poll latencies,
// health transitions, checkpoint activity. Always non-nil.
func (c *Collector) Telemetry() *telemetry.Registry { return c.tel }

// Polls returns how many poll rounds completed.
func (c *Collector) Polls() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// PollErrors returns how many per-agent poll failures occurred.
func (c *Collector) PollErrors() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pollErrors
}

// Start discovers the topology and begins periodic polling on the
// clock. A collector that already has a topology — restored from a
// checkpoint via RestoreCheckpoint — starts warm: the blocking cold
// discovery and baseline poll are skipped, queries are answerable from
// the first instant with honest (downtime-inclusive) data ages, and
// polling resumes at the next tick using the restored counter
// baselines.
func (c *Collector) Start() error {
	c.mu.Lock()
	warm := c.st.topo != nil
	c.mu.Unlock()
	if !warm {
		if _, err := c.Discover(); err != nil {
			return err
		}
		c.PollOnce() // baseline counters
	}
	clk := c.cfg.Clock
	c.ticker = clk.NewTicker(clk.Now()+simclock.Time(c.cfg.PollPeriod), c.cfg.PollPeriod,
		"collector-poll", func(simclock.Time) { c.PollOnce() })
	if c.cfg.RediscoverPeriod > 0 {
		c.rediscover = clk.NewTicker(clk.Now()+simclock.Time(c.cfg.RediscoverPeriod),
			c.cfg.RediscoverPeriod, "collector-rediscover", func(simclock.Time) {
				// Failures leave the previous topology in place; the
				// error count already tracks them.
				_, _ = c.Discover()
			})
	}
	return nil
}

// Stop halts periodic polling and rediscovery.
func (c *Collector) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	if c.rediscover != nil {
		c.rediscover.Stop()
		c.rediscover = nil
	}
}

// Discoveries returns how many topology discoveries have completed.
func (c *Collector) Discoveries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discoveries
}

// TopologyCtx implements Source.
func (c *Collector) TopologyCtx(context.Context) (*Topology, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.topo == nil {
		return nil, fmt.Errorf("collector: topology not discovered yet")
	}
	return c.st.topo, nil
}

// UtilizationCtx implements Source.
func (c *Collector) UtilizationCtx(_ context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Utilization(key, span, float64(c.cfg.Clock.Now()))
}

// DataAgeCtx implements Source: seconds since the newest sample for key.
func (c *Collector) DataAgeCtx(_ context.Context, key ChannelKey) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.DataAge(key, float64(c.cfg.Clock.Now()))
}

// SamplesCtx implements Source.
func (c *Collector) SamplesCtx(_ context.Context, key ChannelKey) ([]stats.Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Samples(key)
}

// HostLoadCtx implements Source.
func (c *Collector) HostLoadCtx(_ context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.HostLoad(node, span, float64(c.cfg.Clock.Now()))
}

// Topology, Samples and HostLoad are residue of the frozen benchmark,
// which calls them on a *Collector; the benchmark thaw deletes them.

// Topology is TopologyCtx without a context.
func (c *Collector) Topology() (*Topology, error) { return c.TopologyCtx(context.Background()) }

// Samples is SamplesCtx without a context.
func (c *Collector) Samples(key ChannelKey) ([]stats.Sample, error) {
	return c.SamplesCtx(context.Background(), key)
}

// HostLoad is HostLoadCtx without a context.
func (c *Collector) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	return c.HostLoadCtx(context.Background(), node, span)
}

// Capacity returns the discovered capacity of a channel in bits/s.
func (c *Collector) Capacity(key ChannelKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Capacity(key)
}

// PollOnce polls every agent in the domain once, recording one
// utilization sample per channel. Each agent costs one GET: its poll
// plan (discovery.go) replayed. Agent failures are counted and skipped:
// a collector must survive unreachable routers.
func (c *Collector) PollOnce() {
	wallStart := time.Now()
	defer func() {
		c.telPolls.Inc()
		c.telPollMS.Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	now := float64(c.cfg.Clock.Now())
	observations, octets := c.obsBuf[:0], c.octetBuf[:0]

	for i := range c.agents {
		// Circuit breaker: agents on a backoff schedule are skipped, so
		// a dead router costs a few probes per backoff period while the
		// surviving topology keeps being polled at full rate.
		plan, ok := c.allowAttempt(i, now)
		if !ok {
			continue
		}
		plan, vals, err := c.pollAgent(i, plan)
		if err != nil {
			c.recordFailure(i, now)
			continue
		}
		o := agentObs{agent: i, plan: plan, octets: len(octets)}
		for j := range plan.keys {
			octets = append(octets, vals[j].Uint)
		}
		// Host CPU load, when exposed. A misbehaving agent can report
		// anything; negative or non-finite loads are rejected at ingest
		// so they never reach a sample window.
		if plan.load {
			o.load = float64(vals[len(plan.keys)].Int) / 100
			if math.IsNaN(o.load) || math.IsInf(o.load, 0) || o.load < 0 {
				c.noteIngestError()
			} else {
				o.loaded = true
			}
		}
		observations = append(observations, o)
		c.recordSuccess(i, now)
	}
	c.obsBuf, c.octetBuf = observations, octets

	c.mu.Lock()
	defer c.mu.Unlock()
	round := c.polls + 1
	for _, o := range observations {
		// A reading lands on its plan's slot, and one whose channel or
		// host is in no topology has nowhere to go. The plan was
		// resolved against the topology when the round began; a
		// rediscovery since resolves it again here.
		plan := o.plan.resolved(c.st.topo, c.agents[o.agent].id)
		for j, slot := range plan.slots {
			if slot >= 0 {
				c.countLocked(int(slot), octets[o.octets+j], now, round)
			}
		}
		if o.loaded && plan.loadSlot >= 0 {
			c.addSampleLocked(&c.st.loads[plan.loadSlot], now, o.load)
		}
	}
	c.polls++
	// Bump even on an all-failures round: data *ages* (and accuracy
	// decays) are clock-relative, and the poll tick is the granularity at
	// which memoized answers may drift from a recomputation.
	c.dataVersion.Add(1)
	c.bell.Ring()
}

// countLocked records a channel's counter reading of a round, and the
// rate since the previous reading as a sample. Callers hold c.mu.
func (c *Collector) countLocked(slot int, octets uint32, now float64, round uint64) {
	prev := c.counters[slot]
	if prev.round == round {
		return // the link's other end already reported it this round
	}
	c.counters[slot] = counterState{At: now, Octets: octets, Valid: true, round: round}
	if !prev.Valid || now <= prev.At {
		return // baseline sample
	}
	// Counter32 wraparound-safe difference.
	delta := uint32(octets - prev.Octets)
	rate := float64(delta) * 8 / (now - prev.At)
	// Ingest validation: a rate must be a finite non-negative number
	// before it may enter a window. maxmin's guards downstream are the
	// second line of defense, not the first.
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		c.pollErrors++
		c.telPollErrors.Inc()
		return
	}
	c.addSampleLocked(&c.st.channels[slot], now, rate)
}

// addSampleLocked appends one reading to the window of a slot, making
// the window on the slot's first reading.
func (c *Collector) addSampleLocked(w *stats.Window, now, v float64) {
	if !w.Made() {
		*w = stats.MakeWindow(c.cfg.WindowLen, 0)
	}
	if err := w.Add(now, v); err != nil {
		c.pollErrors++
		c.telPollErrors.Inc()
	} else {
		c.telSamples.Inc()
	}
}

// DataVersion implements VersionedSource.
func (c *Collector) DataVersion() (uint64, bool) { return c.dataVersion.Load(), true }

// noteIngestError counts a rejected measurement; callers must not hold
// c.mu (PollOnce's collection phase runs before it takes the lock).
func (c *Collector) noteIngestError() {
	c.mu.Lock()
	c.pollErrors++
	c.mu.Unlock()
	c.telPollErrors.Inc()
}

// canonicalKey orients a directed channel relative to the canonical
// (smaller-name = A) endpoint ordering.
func canonicalKey(global int, from, to string) ChannelKey {
	d := graph.AtoB
	if from > to {
		d = graph.BtoA
	}
	return ChannelKey{Global: global, Dir: d}
}
