// Package replica implements a stateless read replica of a collector:
// a process that subscribes to the collector's replication feed (the
// WatchFeed subscription kind, internal/collector/feed.go), mirrors the
// fed state into an immutable copy-on-write store behind an
// atomic.Pointer, and serves the full query/watch op set with no
// collector round-trip on the query path.
//
// "Stateless" means the replica persists nothing: its entire state is
// reconstructible from one full feed snapshot, so a replica can be
// killed and restarted anywhere and is live again one snapshot later.
//
// # Staleness, honestly
//
// A replica is always somewhat behind its collector, and during a
// partition it falls arbitrarily far behind. Rather than pretend
// otherwise, the replica:
//
//   - extrapolates data ages across the gap (a sample that was 3s old
//     at the last feed update is reported as 13s old ten wall-seconds
//     later, with accuracy decayed by the collector's half-life), and
//   - fences hard past MaxStaleness: queries return the typed
//     ErrStaleReplica instead of arbitrarily old state. The failover
//     client treats that like a load-shed refusal — route around,
//     don't mark Down — because a fenced replica is alive and will
//     recover the moment its feed does.
//
// The replica's lifecycle is an explicit state machine (StateFor):
//
//	Syncing --first full snapshot--> Live
//	Live    --feed quiet > LagThreshold--> Lagging
//	Lagging --feed quiet > MaxStaleness--> Fenced
//	Fenced  --update applied--> Live (via resync if the stream broke)
//
// The feed is followed by collector.Follow: any stream-coherence
// violation or failed apply tears the subscription down and
// re-subscribes from scratch, whose first update is a full snapshot
// again.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// State is the replica lifecycle state.
type State int

const (
	// Syncing: no full snapshot applied yet; every query refuses with
	// ErrStaleReplica.
	Syncing State = iota
	// Live: state applied within LagThreshold.
	Live
	// Lagging: feed quiet past LagThreshold but inside the fence;
	// answers are served with honestly extrapolated ages.
	Lagging
	// Fenced: feed quiet past MaxStaleness; queries refuse with
	// ErrStaleReplica until an update applies.
	Fenced
)

func (s State) String() string {
	switch s {
	case Syncing:
		return "syncing"
	case Live:
		return "live"
	case Lagging:
		return "lagging"
	case Fenced:
		return "fenced"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StateFor is the state machine as a pure function: synced reports
// whether a full snapshot has ever been applied, sinceApply is the
// wall time since the newest applied update, lagAfter and fenceAfter
// are the Lagging and Fenced thresholds. A negative fenceAfter
// disables fencing (the replica serves arbitrarily stale state, ages
// still growing); a negative lagAfter disables the Lagging state.
func StateFor(synced bool, sinceApply, lagAfter, fenceAfter time.Duration) State {
	if !synced {
		return Syncing
	}
	if fenceAfter >= 0 && sinceApply > fenceAfter {
		return Fenced
	}
	if lagAfter >= 0 && sinceApply > lagAfter {
		return Lagging
	}
	return Live
}

// Config parameterizes a Replica.
type Config struct {
	// FeedAddr is the collector's query address to subscribe to.
	FeedAddr string
	// FeedAddrs lists additional feed addresses — a hot-standby pair's
	// members, say — that the feed loop rotates across on reconnect: if
	// the current feeder dies (or refuses as a standby), the next
	// attempt tries the next address. FeedAddr, when set, is tried
	// first.
	FeedAddrs []string
	// Client configures the feed connection (dial/IO timeouts).
	Client collector.ClientConfig

	// MaxStaleness is the fence: once the newest applied update is
	// older than this, queries refuse with ErrStaleReplica. 0 means
	// DefaultMaxStaleness; negative disables the fence.
	MaxStaleness time.Duration
	// LagThreshold is when the replica reports Lagging. 0 means
	// MaxStaleness/4 (or DefaultMaxStaleness/4 if the fence is
	// disabled); negative disables the Lagging state.
	LagThreshold time.Duration
	// ResyncBackoff is the initial delay between feed reconnect
	// attempts (collector.FollowConfig.Base); it doubles per consecutive
	// failure up to 16x, with ±20% jitter. 0 means DefaultResyncBackoff.
	ResyncBackoff time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the wall
	// clock so a fleet of replicas decorrelates naturally.
	Seed int64

	// Telemetry receives replica metrics; nil disables.
	Telemetry *telemetry.Registry
}

// Defaults for Config zero values.
const (
	DefaultMaxStaleness  = 30 * time.Second
	DefaultResyncBackoff = 500 * time.Millisecond
)

func (cfg Config) fill() Config {
	if cfg.FeedAddr != "" {
		cfg.FeedAddrs = append([]string{cfg.FeedAddr}, cfg.FeedAddrs...)
	}
	if cfg.MaxStaleness == 0 {
		cfg.MaxStaleness = DefaultMaxStaleness
	}
	if cfg.LagThreshold == 0 {
		base := cfg.MaxStaleness
		if base < 0 {
			base = DefaultMaxStaleness
		}
		cfg.LagThreshold = base / 4
	}
	if cfg.ResyncBackoff == 0 {
		cfg.ResyncBackoff = DefaultResyncBackoff
	}
	return cfg
}

// Replica mirrors one collector's state from its replication feed and
// serves the collector query surface from the mirror. The query path
// is a single atomic pointer load — no locks, no network.
//
// Replica implements collector.Source, VersionedSource,
// VersionNotifier, HealthSource, and TelemetrySource, so
// collector.ServeConfig can put a full query/watch server in front of
// it unchanged.
type Replica struct {
	cfg Config

	cur atomic.Pointer[store]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	syncedCh  chan struct{}
	syncOnce  sync.Once
	prevEpoch atomic.Uint64 // last applied epoch, for lag-in-epochs

	// now is the wall clock; swapped in tests.
	now func() time.Time

	bell collector.VersionBell // rings after every applied payload

	stateMu   sync.Mutex
	lastState State

	tel          *telemetry.Registry
	telFulls     *telemetry.Counter
	telDeltas    *telemetry.Counter
	telErrs      *telemetry.Counter
	telResyncs   *telemetry.Counter
	telFenceRej  *telemetry.Counter
	telTerm      *telemetry.Gauge
	telFenceTrip *telemetry.Counter
	telFenced    *telemetry.Counter
	telEpoch     *telemetry.Gauge
	telLagEpochs *telemetry.Gauge
	telLagSecs   *telemetry.Gauge
	telState     *telemetry.Gauge
}

// New builds a Replica; call Start to begin syncing.
func New(cfg Config) *Replica {
	cfg = cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		syncedCh: make(chan struct{}),
		now:      time.Now,
		tel:      cfg.Telemetry,
	}
	r.telFulls = r.tel.Counter("replica.updates.full")
	r.telDeltas = r.tel.Counter("replica.updates.delta")
	r.telErrs = r.tel.Counter("replica.updates.err")
	r.telResyncs = r.tel.Counter("replica.resyncs")
	r.telFenceRej = r.tel.Counter("replica.fencing.rejections")
	r.telTerm = r.tel.Gauge("replica.term")
	r.telFenceTrip = r.tel.Counter("replica.fence.trips")
	r.telFenced = r.tel.Counter("replica.queries.fenced")
	r.telEpoch = r.tel.Gauge("replica.epoch")
	r.telLagEpochs = r.tel.Gauge("replica.lag.epochs")
	r.telLagSecs = r.tel.Gauge("replica.lag.seconds")
	r.telState = r.tel.Gauge("replica.state")
	return r
}

// Start launches the feed loop and the state ticker. It returns
// immediately; use WaitSynced to block until the first snapshot.
func (r *Replica) Start() {
	r.wg.Add(2)
	go func() { defer r.wg.Done(); r.feedLoop() }()
	go func() { defer r.wg.Done(); r.stateLoop() }()
}

// WaitSynced blocks until the replica has applied its first full
// snapshot or the context ends.
func (r *Replica) WaitSynced(ctx context.Context) error {
	select {
	case <-r.syncedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.ctx.Done():
		return errors.New("replica: closed before first sync")
	}
}

// Close stops the feed loop and waits for its goroutines.
func (r *Replica) Close() {
	r.cancel()
	r.wg.Wait()
}

// State reports the current lifecycle state.
func (r *Replica) State() State {
	st := r.cur.Load()
	if st == nil {
		return Syncing
	}
	return StateFor(true, st.staleness(r.now()), r.cfg.LagThreshold, r.cfg.MaxStaleness)
}

// Status is a point-in-time summary for operators (remos-stat, debug
// endpoints).
type Status struct {
	State     State
	Epoch     uint64
	Term      uint64        // HA lease term of the feeding leader (0 = no HA)
	Staleness time.Duration // time since last applied update
	Synced    bool
}

// Status reports the replica's current status.
func (r *Replica) Status() Status {
	st := r.cur.Load()
	if st == nil {
		return Status{State: Syncing}
	}
	stale := st.staleness(r.now())
	return Status{
		State:     StateFor(true, stale, r.cfg.LagThreshold, r.cfg.MaxStaleness),
		Epoch:     st.epoch,
		Term:      st.term,
		Staleness: stale,
		Synced:    true,
	}
}

// Telemetry implements collector.TelemetrySource.
func (r *Replica) Telemetry() *telemetry.Registry { return r.tel }

// ---------------------------------------------------------------------
// Feed: follow, apply.

func (r *Replica) feedLoop() {
	collector.Follow(r.ctx, collector.FollowConfig{
		Addrs:  r.cfg.FeedAddrs,
		Client: r.cfg.Client,
		Kind:   collector.WatchFeed,
		Base:   r.cfg.ResyncBackoff,
		Seed:   r.cfg.Seed,
		Ended: func(_ error, resync bool) {
			if !resync {
				r.telErrs.Inc()
			}
		},
	}, func(u collector.WatchUpdate) (bool, error) {
		if u.Err != "" {
			// Non-terminal evaluation error (e.g. collector has no
			// topology yet). The subscription recovers by itself.
			r.telErrs.Inc()
			return false, nil
		}
		if u.Feed == nil {
			return false, nil
		}
		return true, r.apply(u.Feed)
	})
}

// apply builds the successor store from one payload and publishes it.
func (r *Replica) apply(p *collector.FeedPayload) error {
	wall := r.now()
	prev := r.cur.Load()
	var base *collector.State // nil: nothing applied yet, only a Full payload extends it
	if prev != nil {
		if err := collector.FenceFeed(p, prev.term); err != nil {
			if errors.Is(err, collector.ErrDeposedTerm) {
				r.telFenceRej.Inc()
			}
			return err
		}
		base = prev.State
	}
	st, err := base.Extend(p)
	if p.Full {
		r.telFulls.Inc()
		if prev != nil && err == nil {
			// A full snapshot over an existing store is a re-base: the
			// replica recovered from a coherence loss or a healed
			// partition. (The trigger side — Follow abandoning a stream — can
			// fire without completing; this counts completions.)
			r.telResyncs.Inc()
		}
	} else if prev != nil {
		r.telDeltas.Inc()
	}
	if err != nil {
		return err
	}
	// Past the fence a delta carries the applied term, so p.Term is the
	// store's term either way.
	next := &store{State: st, epoch: p.Epoch, term: p.Term, feedNow: p.Now, appliedWall: wall}
	// lag.epochs counts collector epochs that were coalesced into this
	// update (0 = saw every epoch; the collector coalesces when the
	// replica is slow or the queue folds).
	if last := r.prevEpoch.Load(); last != 0 && next.epoch > last {
		r.telLagEpochs.Set(float64(next.epoch - last - 1))
	}
	r.prevEpoch.Store(next.epoch)
	r.cur.Store(next)
	r.telEpoch.Set(float64(next.epoch))
	r.telTerm.Set(float64(next.term))
	r.syncOnce.Do(func() { close(r.syncedCh) })
	r.bell.Ring()
	return nil
}

// stateLoop keeps the observable gauges fresh and counts state
// transitions; queries do not depend on it (state is computed on
// demand from the store's apply time).
func (r *Replica) stateLoop() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-r.ctx.Done():
			return
		}
		st := r.cur.Load()
		state := Syncing
		if st != nil {
			stale := st.staleness(r.now())
			r.telLagSecs.Set(stale.Seconds())
			state = StateFor(true, stale, r.cfg.LagThreshold, r.cfg.MaxStaleness)
		}
		r.telState.Set(float64(state))
		r.stateMu.Lock()
		if state == Fenced && r.lastState != Fenced {
			r.telFenceTrip.Inc()
		}
		r.lastState = state
		r.stateMu.Unlock()
	}
}

// ---------------------------------------------------------------------
// Query surface.

// gate loads the current store and enforces the staleness fence. Every
// query goes through it; the refusal is the typed ErrStaleReplica that
// the failover client routes around without marking this replica Down.
func (r *Replica) gate() (*store, error) {
	st := r.cur.Load()
	if st == nil {
		r.telFenced.Inc()
		return nil, fmt.Errorf("replica: not yet synced: %w", collector.ErrStaleReplica)
	}
	if fence := r.cfg.MaxStaleness; fence >= 0 && st.staleness(r.now()) > fence {
		r.telFenced.Inc()
		return nil, fmt.Errorf("replica: last update %.1fs ago: %w",
			st.staleness(r.now()).Seconds(), collector.ErrStaleReplica)
	}
	return st, nil
}

// TopologyCtx implements collector.Source.
func (r *Replica) TopologyCtx(context.Context) (*collector.Topology, error) {
	st, err := r.gate()
	if err != nil {
		return nil, err
	}
	return st.State.Topology(), nil
}

// CheckFresh reports whether the replica would accept a query right
// now: nil, or the typed ErrStaleReplica refusal the staleness fence
// is answering. Long-lived serving layers (the matrix handler's
// Modeler) consult it per call so a fenced replica refuses batched
// answers even when a higher layer holds cached state.
func (r *Replica) CheckFresh() error {
	_, err := r.gate()
	return err
}

// The measurement reads are the collector's own (collector.State)
// against the extrapolated clock: ages keep growing in wall time between
// feed updates, so a lagging replica's answers degrade honestly instead
// of freezing at their last-fed age.

// UtilizationCtx implements collector.Source.
func (r *Replica) UtilizationCtx(_ context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	st, err := r.gate()
	if err != nil {
		return stats.NoData(), err
	}
	return st.State.Utilization(key, span, st.virtualNow(r.now()))
}

// DataAgeCtx implements collector.Source.
func (r *Replica) DataAgeCtx(_ context.Context, key collector.ChannelKey) (float64, error) {
	st, err := r.gate()
	if err != nil {
		return 0, err
	}
	return st.State.DataAge(key, st.virtualNow(r.now()))
}

// SamplesCtx implements collector.Source.
func (r *Replica) SamplesCtx(_ context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	st, err := r.gate()
	if err != nil {
		return nil, err
	}
	return st.State.Samples(key)
}

// HostLoadCtx implements collector.Source.
func (r *Replica) HostLoadCtx(_ context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	st, err := r.gate()
	if err != nil {
		return stats.NoData(), err
	}
	return st.State.HostLoad(node, span, st.virtualNow(r.now()))
}

// Capacity mirrors Collector.Capacity.
func (r *Replica) Capacity(key collector.ChannelKey) (float64, bool) {
	st := r.cur.Load()
	if st == nil {
		return 0, false
	}
	return st.State.Capacity(key)
}

// Health implements collector.HealthSource: the agent health as of the
// last applied update.
func (r *Replica) Health() map[graph.NodeID]collector.AgentHealth {
	st := r.cur.Load()
	if st == nil {
		return map[graph.NodeID]collector.AgentHealth{}
	}
	return st.State.Health()
}

// DataVersion implements collector.VersionedSource: the replica's
// version IS the collector epoch it has applied, so watch subscribers
// on a replica see the same epoch numbering as on the collector.
func (r *Replica) DataVersion() (uint64, bool) {
	st := r.cur.Load()
	if st == nil {
		return 0, false
	}
	return st.epoch, true
}

// SubscribeVersion implements collector.VersionNotifier; the server's
// watch hub uses it to wake on feed applies instead of polling.
func (r *Replica) SubscribeVersion() (<-chan struct{}, func()) { return r.bell.SubscribeVersion() }
