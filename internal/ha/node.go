package ha

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Role is a node's current position in the pair.
type Role int32

const (
	RoleStandby Role = iota
	RoleLeader
)

func (r Role) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "standby"
}

// Defaults for Config knobs left zero.
const (
	defaultLeaseTTL  = 3.0 // lease units (virtual or wall seconds)
	defaultHeartbeat = 1.0 // virtual seconds between lease heartbeats
	defaultBackoff   = 250 * time.Millisecond
)

// Config wires a Node to its collector, lease, and peer.
type Config struct {
	// Collector is the local collector the node drives: started when
	// the node is leader, fed from the peer's WatchFeed while standby.
	Collector *collector.Collector
	// Clock schedules the lease heartbeat in virtual time — the same
	// clock the collector polls on, so failover tests are deterministic.
	Clock *simclock.Clock
	// Lease is the election primitive shared by the pair.
	Lease Lease
	// ID is this node's advertised query address. It doubles as the
	// lease holder identity and as the leader hint peers return from
	// ErrNotLeader refusals, so it must be dialable by clients.
	ID string
	// PeerAddr is the peer node's query address: the feed-sync source
	// while standby, and the fallback leader hint.
	PeerAddr string
	// LeaseTTL is the lease grant length, in the Lease's own time units
	// (default 3). Promotion after a leader crash is bounded by
	// LeaseTTL + Heartbeat: the grant must lapse, then the standby's
	// next heartbeat claims it.
	LeaseTTL float64
	// Heartbeat is the virtual-seconds period of lease renewal
	// (leader) and observation (standby). Default 1.
	Heartbeat float64
	// Client configures the standby's feed subscription to PeerAddr.
	//reach:keep the HA tests cut the standby's CallTimeout to 2 s to finish within their timeouts
	Client collector.ClientConfig
	// Telemetry receives the ha.* metrics; defaults to the collector's
	// own registry so they surface through the "stats" op.
	Telemetry *telemetry.Registry
	// Serialize runs fn mutually excluded with the clock driver. Every
	// collector mutation from the sync goroutine goes through it. The
	// default runs fn inline, which is only safe when nothing advances
	// the clock concurrently.
	Serialize func(fn func())
	// OnPromote and OnDemote are called (inside the heartbeat, under
	// the clock driver's serialization) after a role transition
	// completes. The daemon uses OnDemote to drain watch subscribers.
	OnPromote func(term uint64)
	OnDemote  func(term uint64)
}

// Node runs one side of a hot-standby pair.
type Node struct {
	cfg Config
	col *collector.Collector
	tel *telemetry.Registry

	role atomic.Int32
	term atomic.Uint64
	hint atomic.Value // string: last observed leader address
	dead atomic.Bool

	hb *simclock.Ticker

	// syncTerm is the highest feed term ever applied; touched only
	// under cfg.Serialize, which also covers role transitions.
	syncTerm uint64
	// lastRenew is the virtual time of the last confirmed lease grant
	// (acquire or renew); heartbeat-only, so unsynchronized.
	lastRenew simclock.Time

	syncMu     sync.Mutex
	syncCancel context.CancelFunc
	syncDone   chan struct{}

	telRole       *telemetry.Gauge
	telTerm       *telemetry.Gauge
	telPromotions *telemetry.Counter
	telDemotions  *telemetry.Counter
	telFenceRej   *telemetry.Counter
	telSyncErrs   *telemetry.Counter
	telResyncs    *telemetry.Counter
}

// New validates cfg and builds a Node. Call Start to join the pair.
func New(cfg Config) (*Node, error) {
	if cfg.Collector == nil {
		return nil, errors.New("ha: Config.Collector is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("ha: Config.Clock is required")
	}
	if cfg.Lease == nil {
		return nil, errors.New("ha: Config.Lease is required")
	}
	if cfg.ID == "" {
		return nil, errors.New("ha: Config.ID is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = cfg.Collector.Telemetry()
	}
	if cfg.Serialize == nil {
		cfg.Serialize = func(fn func()) { fn() }
	}
	n := &Node{
		cfg: cfg,
		col: cfg.Collector,
		tel: cfg.Telemetry,

		telRole:       cfg.Telemetry.Gauge("ha.role"),
		telTerm:       cfg.Telemetry.Gauge("ha.term"),
		telPromotions: cfg.Telemetry.Counter("ha.promotions"),
		telDemotions:  cfg.Telemetry.Counter("ha.demotions"),
		telFenceRej:   cfg.Telemetry.Counter("ha.fencing.rejections"),
		telSyncErrs:   cfg.Telemetry.Counter("ha.sync.errors"),
		telResyncs:    cfg.Telemetry.Counter("ha.sync.resyncs"),
	}
	n.hint.Store("")
	return n, nil
}

// Start joins the pair. A node started with leader=true tries to take
// the lease immediately and falls back to standby when someone else
// holds it; leader=false always starts standby (remos-collector
// -standby-of). Must run under the clock driver's serialization.
func (n *Node) Start(leader bool) error {
	took := false
	if leader {
		term, ok, err := n.cfg.Lease.Acquire(n.cfg.ID, n.cfg.LeaseTTL)
		if err != nil {
			return err
		}
		if ok {
			if err := n.promote(term); err != nil {
				return err
			}
			took = true
		}
	}
	if !took {
		n.enterStandby(0)
	}
	now := n.cfg.Clock.Now()
	n.hb = n.cfg.Clock.NewTicker(now+simclock.Time(n.cfg.Heartbeat),
		n.cfg.Heartbeat, "ha-heartbeat", n.heartbeat)
	return nil
}

// Role reports the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Term reports the highest lease term the node has seen.
//
//reach:keep the ha and HA chaos tests check the lease term a promotion took
func (n *Node) Term() uint64 { return n.term.Load() }

// LeaderHint is the address the node believes currently leads: itself,
// the observed lease holder, or the configured peer.
func (n *Node) LeaderHint() string {
	if h, _ := n.hint.Load().(string); h != "" {
		return h
	}
	return n.cfg.PeerAddr
}

// Gate implements collector.ServerConfig.Gate: a standby refuses every
// query and watch registration with ErrNotLeader carrying the leader
// hint, so failover clients re-route in one hop.
func (n *Node) Gate() error {
	if n.Role() == RoleLeader {
		return nil
	}
	hint := n.LeaderHint()
	if hint == n.cfg.ID {
		hint = ""
	}
	return &collector.NotLeaderError{Leader: hint}
}

// heartbeat is the lease tick: leaders renew, standbys observe and
// claim an expired lease. Runs inside the clock, i.e. under the
// driver's serialization.
func (n *Node) heartbeat(now simclock.Time) {
	if n.dead.Load() {
		return
	}
	if n.Role() == RoleLeader {
		ok, err := n.cfg.Lease.Renew(n.cfg.ID, n.term.Load(), n.cfg.LeaseTTL)
		switch {
		case err != nil:
			// Lease store unreachable. The grant stays ours until it
			// lapses, but once we can no longer confirm it before the
			// standby's acquisition horizon we must self-fence — one
			// heartbeat early, so our last poll round and the
			// successor's first can never overlap.
			n.telSyncErrs.Inc()
			if float64(now-n.lastRenew) >= n.cfg.LeaseTTL-n.cfg.Heartbeat {
				n.demote()
			}
		case !ok:
			// The lease moved on: a standby minted a higher term while
			// we were dark. Step down instead of double-polling.
			n.demote()
		default:
			n.lastRenew = now
		}
		return
	}
	st, err := n.cfg.Lease.Observe()
	if err != nil {
		n.telSyncErrs.Inc()
		return
	}
	if st.Holder != "" && st.Holder != n.cfg.ID && !st.Expired {
		// A live leader exists: track its identity and term so query
		// refusals hint at it and stamped responses carry the term.
		n.hint.Store(st.Holder)
		if st.Term > n.term.Load() {
			n.term.Store(st.Term)
			n.telTerm.Set(float64(st.Term))
			n.col.SetHA(st.Term, false)
		}
		return
	}
	term, ok, err := n.cfg.Lease.Acquire(n.cfg.ID, n.cfg.LeaseTTL)
	if err != nil || !ok {
		return
	}
	if err := n.promote(term); err != nil {
		// Could not start polling; give the lease back so the peer can
		// lead instead of the pair going dark for a full TTL.
		n.cfg.Lease.Release(n.cfg.ID, term)
		n.enterStandby(term)
	}
}

// promote takes leadership at term: stop syncing from the peer, stamp
// the new term on everything, start polling. The collector state is
// whatever the feed synced, so the start is warm — the first poll
// round re-baselines counters rather than fabricating a rate across
// the failover.
func (n *Node) promote(term uint64) error {
	n.stopSync()
	n.syncTerm = term
	n.lastRenew = n.cfg.Clock.Now()
	n.term.Store(term)
	n.hint.Store(n.cfg.ID)
	n.col.SetHA(term, true)
	if err := n.col.Start(); err != nil {
		n.col.SetHA(term, false)
		return err
	}
	n.role.Store(int32(RoleLeader))
	n.telRole.Set(1)
	n.telTerm.Set(float64(term))
	n.telPromotions.Inc()
	if n.cfg.OnPromote != nil {
		n.cfg.OnPromote(term)
	}
	return nil
}

// demote steps down after losing the lease: stop polling, adopt the
// observed term, resume syncing from the new leader.
func (n *Node) demote() {
	n.col.Stop()
	term := n.term.Load()
	hint := n.cfg.PeerAddr
	if st, err := n.cfg.Lease.Observe(); err == nil {
		if st.Term > term {
			term = st.Term
		}
		if st.Holder != "" && st.Holder != n.cfg.ID {
			hint = st.Holder
		}
	}
	n.enterStandby(term)
	if hint != "" {
		n.hint.Store(hint)
	}
	n.telDemotions.Inc()
	if n.cfg.OnDemote != nil {
		n.cfg.OnDemote(term)
	}
}

// enterStandby publishes the standby role and (re)starts the feed-sync
// goroutine.
func (n *Node) enterStandby(term uint64) {
	n.role.Store(int32(RoleStandby))
	if term > n.term.Load() {
		n.term.Store(term)
	}
	n.col.SetHA(n.term.Load(), false)
	n.telRole.Set(0)
	n.telTerm.Set(float64(n.term.Load()))
	n.startSync()
}

// syncPeer resolves where the standby syncs from: the configured peer,
// or — for a node started without one, e.g. an ex-leader restarted
// with its original flags — the observed lease holder's advertised
// address.
func (n *Node) syncPeer() string {
	if n.cfg.PeerAddr != "" {
		return n.cfg.PeerAddr
	}
	if h, _ := n.hint.Load().(string); h != "" && h != n.cfg.ID {
		return h
	}
	return ""
}

// Kill simulates a crash for tests: everything stops, the lease is NOT
// released — the standby must wait out the TTL, exactly like a real
// leader death. Safe under the clock driver's serialization.
func (n *Node) Kill() {
	if !n.dead.CompareAndSwap(false, true) {
		return
	}
	if n.hb != nil {
		n.hb.Stop()
	}
	n.stopSync()
	n.col.Stop()
}

// Close shuts the node down gracefully: a leader releases its lease so
// the peer can take over without waiting out the TTL. Close blocks for
// the sync goroutine, so it must NOT be called while holding the
// Serialize lock — call Kill under the lock, then Wait outside it.
func (n *Node) Close() {
	wasLeader := n.Role() == RoleLeader
	term := n.term.Load()
	n.Kill()
	if wasLeader {
		n.cfg.Lease.Release(n.cfg.ID, term)
	}
	n.Wait()
}

// Wait blocks until the sync goroutine (if any) has exited.
func (n *Node) Wait() {
	n.syncMu.Lock()
	done := n.syncDone
	n.syncMu.Unlock()
	if done != nil {
		<-done
	}
}

// startSync launches the standby's feed-sync goroutine, replacing any
// previous one: collector.Follow keeps one WatchFeed subscription to the
// peer alive (backoff in wall time — the peer dial is real I/O even when
// the pair shares a virtual clock) under the read replica's coherence
// rules, and every payload goes through applyPayload.
func (n *Node) startSync() {
	n.stopSync()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	n.syncMu.Lock()
	n.syncCancel = cancel
	n.syncDone = done
	n.syncMu.Unlock()
	go func() {
		defer close(done)
		collector.Follow(ctx, collector.FollowConfig{
			Dial: n.dialPeer,
			Kind: collector.WatchFeed,
			Base: defaultBackoff,
			Ended: func(_ error, resync bool) {
				if resync {
					n.telResyncs.Inc()
				} else {
					n.telSyncErrs.Inc()
				}
			},
		}, func(u collector.WatchUpdate) (bool, error) {
			if u.Err != "" || u.Feed == nil {
				return false, nil
			}
			err := n.applyPayload(u.Feed)
			if errors.Is(err, errStopped) {
				cancel() // no longer a standby: end the loop, not a resync
			}
			return err == nil, err
		})
	}()
}

// dialPeer connects to wherever the standby currently syncs from.
func (n *Node) dialPeer() (collector.WatchSource, func(), error) {
	peer := n.syncPeer()
	if peer == "" {
		return nil, nil, errors.New("ha: no peer to sync from yet")
	}
	cl, err := collector.DialConfig(peer, n.cfg.Client)
	if err != nil {
		return nil, nil, err
	}
	return cl, func() { cl.Close() }, nil
}

// stopSync cancels the sync goroutine without waiting: the goroutine
// may be blocked acquiring the Serialize lock the caller holds, and
// its apply closure re-checks the role, so a late wakeup is a no-op.
func (n *Node) stopSync() {
	n.syncMu.Lock()
	cancel := n.syncCancel
	n.syncCancel = nil
	n.syncMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// applyPayload installs one feed payload under the Serialize lock,
// where the role check and the term fence are ordered with promotions.
func (n *Node) applyPayload(p *collector.FeedPayload) (err error) {
	n.cfg.Serialize(func() {
		if n.dead.Load() || n.Role() != RoleStandby {
			err = errStopped
			return
		}
		// A deposed leader still feeding us is fenced; the resulting
		// resync redials, and the dial lands on whatever PeerAddr now
		// serves.
		if err = collector.FenceFeed(p, n.syncTerm); err != nil {
			if errors.Is(err, collector.ErrDeposedTerm) {
				n.telFenceRej.Inc()
			}
			return
		}
		if err = n.col.ApplyFeed(p); err != nil {
			return
		}
		n.syncTerm = p.Term
		if p.Term > n.term.Load() {
			n.term.Store(p.Term)
			n.telTerm.Set(float64(p.Term))
			n.col.SetHA(p.Term, false)
		}
	})
	return err
}
