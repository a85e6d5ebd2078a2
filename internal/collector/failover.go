package collector

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Client-side replication: a FailoverSource wraps N replica collector
// daemons behind one Source, the query-plane mirror of the per-agent
// breaker the collection pipeline already has. Each replica gets its own
// Client and a small health record; calls go to the preferred (earliest
// listed) healthy replica and fail over transparently — including in the
// middle of a query stream — when one dies. Downed replicas are
// re-probed in the background on an exponential-backoff schedule and
// rejoin the preference order as soon as they answer.

// DefaultProbeInterval is how often the background prober wakes to
// re-check downed replicas.
const DefaultProbeInterval = 500 * time.Millisecond

// replicaDownAfter is the consecutive-failure count at which a
// replica is marked Down and removed from the preference order until a
// probe succeeds. The first failure already makes the replica
// less-preferred for the failing call (it fails over immediately);
// Down additionally stops routing new calls at it.
const replicaDownAfter = 2

// FailoverConfig tunes a FailoverSource. The zero value of each field
// selects its default.
type FailoverConfig struct {
	// Client configures each per-replica client. SingleAttempt is
	// forced on: the failover layer owns retries, and trying the next
	// replica beats retrying the one that just failed.
	//reach:keep tests cut CallTimeout to 2 s so a killed replica fails over within their timeouts
	Client ClientConfig
	// ProbeInterval is the background re-probe wakeup period for downed
	// replicas (default DefaultProbeInterval); negative disables the
	// prober (downed replicas are then only retried as a last resort
	// when every other replica fails).
	//reach:keep tests shorten or disable the re-prober to finish within their timeouts
	ProbeInterval time.Duration
	// BackoffBase and BackoffMax bound the exponential backoff between
	// probe attempts at a downed replica: after the n-th consecutive
	// failure the next attempt waits min(BackoffBase·2^(n-1),
	// BackoffMax). Defaults: ProbeInterval and 16×BackoffBase.
	//reach:keep tests shorten the probe backoff to finish within their timeouts
	BackoffBase time.Duration
	//reach:keep tests shorten the probe backoff to finish within their timeouts
	BackoffMax time.Duration
	// Seed seeds the jitter RNG. Zero derives a per-process seed so a
	// fleet's probe schedules decorrelate; tests set it explicitly for
	// reproducible schedules.
	//reach:keep TestFailoverProbeBackoffJitter seeds two probe schedules apart
	Seed int64
	// Shuffle randomizes the initial routing order (seeded by Seed).
	// Without it every client in a fleet prefers the first listed
	// address, hammering one replica and failing over in lockstep when
	// it dies. Replicas() still reports in caller order.
	Shuffle bool
}

// DefaultFailoverJitter is the ±fraction applied to replica probe
// backoffs. Without it a fleet of clients that all watched the same
// replica die re-probes it at synchronized instants, a thundering herd
// at the worst possible moment (its restart).
const DefaultFailoverJitter = 0.2

func (fc *FailoverConfig) fill() {
	fc.Client.fill()
	fc.Client.SingleAttempt = true
	if fc.ProbeInterval == 0 {
		fc.ProbeInterval = DefaultProbeInterval
	}
	if fc.BackoffBase <= 0 {
		if fc.ProbeInterval > 0 {
			fc.BackoffBase = fc.ProbeInterval
		} else {
			fc.BackoffBase = DefaultProbeInterval
		}
	}
	if fc.BackoffMax <= 0 {
		fc.BackoffMax = 16 * fc.BackoffBase
	}
	if fc.Seed == 0 {
		fc.Seed = time.Now().UnixNano()
	}
}

// ReplicaStatus is an observability snapshot of one replica.
type ReplicaStatus struct {
	Addr                string
	State               HealthState
	ConsecutiveFailures int
	// Calls counts calls this replica answered (including app-level
	// errors, which prove the replica alive); Failures counts transport
	// failures and busy refusals; Sheds counts the subset of refusals
	// that were admission-queue load sheds.
	Calls    uint64
	Failures uint64
	Sheds    uint64
	LastErr  string
}

// replica is the mutable per-replica record; fields are guarded by
// FailoverSource.mu. The client has its own lock and is used outside it.
type replica struct {
	addr   string
	client *Client

	state       HealthState
	consec      int
	calls       uint64
	failures    uint64
	sheds       uint64
	lastErr     string
	nextAttempt time.Time
}

// FailoverSource is a replicated Source over several collector daemons.
type FailoverSource struct {
	remote   // the query surface, each call routed by f.call
	cfg      FailoverConfig
	replicas []*replica
	order    []int // routing preference: indexes into replicas (shuffled when cfg.Shuffle)
	tel      *telemetry.Registry

	mu       sync.Mutex
	rng      *rand.Rand // probe-backoff jitter; guarded by mu
	maxTerm  uint64     // highest HA lease term observed; guarded by mu
	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// DialFailover connects to a set of replica collector daemons. At least
// one replica must be reachable at dial time; unreachable ones start out
// Down and are re-probed in the background.
func DialFailover(addrs []string, cfg FailoverConfig) (*FailoverSource, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("collector: DialFailover needs at least one address")
	}
	cfg.fill()
	tel := cfg.Client.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	f := &FailoverSource{cfg: cfg, tel: tel, stop: make(chan struct{}),
		rng: rand.New(rand.NewSource(cfg.Seed))}
	f.remote = remote{f}
	reachable := 0
	var firstErr error
	for _, addr := range addrs {
		// Replica clients share the failover registry, so client.calls /
		// client.call_ms aggregate across the replica set.
		r := &replica{addr: addr, client: newClient(addr, cfg.Client, tel)}
		if _, err := r.client.connect(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			r.state = Down
			r.consec = replicaDownAfter
			r.lastErr = err.Error()
			r.nextAttempt = time.Now().Add(cfg.BackoffBase)
		} else {
			reachable++
		}
		f.replicas = append(f.replicas, r)
	}
	if reachable == 0 {
		f.closeClients()
		return nil, fmt.Errorf("collector: no replica reachable (tried %d): %w", len(addrs), firstErr)
	}
	f.order = make([]int, len(f.replicas))
	for i := range f.order {
		f.order[i] = i
	}
	if cfg.Shuffle {
		f.rng.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	}
	if cfg.ProbeInterval > 0 {
		f.probeWG.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Close stops the background prober and closes every replica client.
func (f *FailoverSource) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.probeWG.Wait()
	f.closeClients()
	return nil
}

func (f *FailoverSource) closeClients() {
	for _, r := range f.replicas {
		r.client.Close()
	}
}

// Telemetry implements TelemetrySource: the registry shared by this
// failover layer and its per-replica clients (never nil).
func (f *FailoverSource) Telemetry() *telemetry.Registry { return f.tel }

// noteReplicaStateLocked counts a replica health transition. Callers
// hold f.mu.
func (f *FailoverSource) noteReplicaStateLocked(from, to HealthState) {
	if from == to {
		return
	}
	f.tel.Counter("failover.replica.to_" + to.String()).Inc()
}

// Replicas returns a status snapshot in preference order.
func (f *FailoverSource) Replicas() []ReplicaStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ReplicaStatus, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = ReplicaStatus{
			Addr: r.addr, State: r.state,
			ConsecutiveFailures: r.consec,
			Calls:               r.calls, Failures: r.failures, Sheds: r.sheds,
			LastErr: r.lastErr,
		}
	}
	return out
}

// eligible reports whether the routing pass may use replica i now: not
// Down, or Down but due for a retry.
func (f *FailoverSource) eligible(i int, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.replicas[i]
	return r.state != Down || !now.Before(r.nextAttempt)
}

func (f *FailoverSource) recordSuccess(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.replicas[i]
	f.noteReplicaStateLocked(r.state, Healthy)
	r.state = Healthy
	r.consec = 0
	r.calls++
	r.lastErr = ""
	r.nextAttempt = time.Time{}
}

func (f *FailoverSource) recordFailure(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.replicas[i]
	r.failures++
	r.consec++
	f.tel.Counter("failover.failures").Inc()
	if err != nil {
		r.lastErr = err.Error()
	}
	next := Degraded
	if r.consec >= replicaDownAfter {
		next = Down
	}
	f.noteReplicaStateLocked(r.state, next)
	r.state = next
	// Jitter desynchronizes probe schedules across a client fleet: N
	// clients that all saw the replica die must not all re-probe it at
	// the same instants.
	r.nextAttempt = time.Now().Add(time.Duration(BackoffAfter(float64(f.cfg.BackoffBase),
		float64(f.cfg.BackoffMax), r.consec, DefaultFailoverJitter, f.rng.Float64)))
}

// errFencedTerm is the internal routing error for an answer rejected by
// term fencing: a node still claiming leadership at a term below one
// this source has already observed — a deposed leader that has not yet
// noticed its demotion. Routing treats it like a refusal (the process
// is alive; it just must not be believed).
var errFencedTerm = errors.New("collector: answer fenced (stale leader term)")

// observeTerm folds one HA term observation into the source-wide
// maximum and reports whether a leadership claim at that term is
// fenced. Term 0 (no HA) always passes.
func (f *FailoverSource) observeTerm(term uint64, leader bool) (fenced bool) {
	if term == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if leader && term < f.maxTerm {
		return true
	}
	if term > f.maxTerm {
		f.maxTerm = term
	}
	return false
}

// indexOf maps a replica address to its index (-1 when unknown).
func (f *FailoverSource) indexOf(addr string) int {
	for i, r := range f.replicas {
		if r.addr == addr {
			return i
		}
	}
	return -1
}

// nextIndex picks the next replica for a routing pass: a pending
// leader hint first (fresh information beats stale health records —
// it bypasses eligibility), then the first untried replica in routing
// order that the pass admits. -1 ends the pass.
func (f *FailoverSource) nextIndex(tried []bool, pass int, now time.Time, hint *int) int {
	if *hint >= 0 && !tried[*hint] {
		i := *hint
		*hint = -1
		return i
	}
	*hint = -1
	for _, i := range f.order {
		if tried[i] {
			continue
		}
		if pass == 0 && !f.eligible(i, now) {
			continue
		}
		return i
	}
	return -1
}

// route walks the replica set for one operation: first over eligible
// replicas in routing order, then — if every one of those failed — over
// anything not yet tried, because a marked-Down replica that actually
// recovered beats returning an error. try makes the attempt on one
// replica and reports whether its outcome stands (err, possibly an
// application-level error such as "unknown channel", is then returned
// as is). Of the outcomes that do not stand, typed refusals (busy, shed,
// subscription cap, stale replica, not-leader, fenced answer) prove the
// replica alive: they route around it without penalizing its health, a
// not-leader refusal promoting its leader hint to the next attempt.
// Anything else counts as a failure. The context is re-checked between
// attempts so an expired budget stops the loop instead of walking every
// replica with a dead deadline.
func (f *FailoverSource) route(ctx context.Context, try func(r *replica) (stands bool, err error)) error {
	now := time.Now()
	tried := make([]bool, len(f.replicas))
	var firstErr error
	hint := -1
	for pass := 0; pass < 2; pass++ {
		for {
			i := f.nextIndex(tried, pass, now, &hint)
			if i < 0 {
				break
			}
			if cerr := ctxCallError(ctx); cerr != nil {
				if firstErr == nil {
					firstErr = cerr
				}
				return fmt.Errorf("collector: failover aborted after %v: %w", firstErr, cerr)
			}
			tried[i] = true
			f.tel.Counter("failover.attempts").Inc()
			stands, err := try(f.replicas[i])
			if stands {
				f.recordSuccess(i)
				return err
			}
			switch {
			case errors.Is(err, ErrNotLeader):
				f.recordRefusal(i, err)
				if addr, ok := LeaderHint(err); ok {
					if j := f.indexOf(addr); j >= 0 && !tried[j] {
						hint = j
					}
				}
			case errors.Is(err, ErrServerBusy) || errors.Is(err, ErrLoadShed) ||
				errors.Is(err, ErrTooManySubscriptions) || errors.Is(err, ErrStaleReplica) ||
				errors.Is(err, errFencedTerm):
				f.recordRefusal(i, err)
			default:
				f.recordFailure(i, err)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	f.tel.Counter("failover.exhausted").Inc()
	if cerr := ctxCallError(ctx); cerr != nil {
		return fmt.Errorf("collector: failover exhausted (%v): %w", firstErr, cerr)
	}
	return fmt.Errorf("collector: all %d replicas failed: %w", len(f.replicas), firstErr)
}

// call implements caller by routing one request across the replica set.
// A replica that answers is authoritative — unless term fencing rejects
// it as a deposed leader's answer.
func (f *FailoverSource) call(ctx context.Context, req *request) (*response, error) {
	var resp *response
	err := f.route(ctx, func(r *replica) (stands bool, err error) {
		resp, err = r.client.call(ctx, req)
		switch {
		case resp == nil || errors.Is(err, ErrServerBusy) || errors.Is(err, ErrLoadShed) ||
			errors.Is(err, ErrStaleReplica) || errors.Is(err, ErrNotLeader):
			// No answer, or a typed refusal: route decides what it costs.
		case f.observeTerm(resp.Term, resp.Leader):
			// The answer is from a node claiming leadership at a term we
			// know is over: a deposed leader double-serving. Reject it
			// and route on.
			f.tel.Counter("failover.fencing.rejections").Inc()
			err = errFencedTerm
		default:
			return true, err
		}
		resp = nil
		return false, err
	})
	return resp, err
}

// recordRefusal notes an overload refusal without dinging the replica's
// failure counters: the replica answered, it is alive, it just declined
// the work right now.
func (f *FailoverSource) recordRefusal(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.replicas[i]
	r.failures++
	switch {
	case errors.Is(err, ErrLoadShed):
		r.sheds++
		f.tel.Counter("failover.refusals.shed").Inc()
	case errors.Is(err, ErrStaleReplica):
		f.tel.Counter("failover.refusals.stale").Inc()
	case errors.Is(err, ErrNotLeader):
		f.tel.Counter("failover.refusals.not_leader").Inc()
	case errors.Is(err, errFencedTerm):
		f.tel.Counter("failover.refusals.fenced").Inc()
	default:
		f.tel.Counter("failover.refusals.busy").Inc()
	}
	if err != nil {
		r.lastErr = err.Error()
	}
	if r.state == Healthy {
		f.noteReplicaStateLocked(r.state, Degraded)
		r.state = Degraded
	}
}

// probeLoop re-probes downed replicas in the background so a restarted
// primary rejoins the preference order without waiting for a foreground
// call to gamble on it.
func (f *FailoverSource) probeLoop() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		for i, r := range f.replicas {
			f.mu.Lock()
			due := r.state == Down && !time.Now().Before(r.nextAttempt)
			f.mu.Unlock()
			if !due {
				continue
			}
			resp, err := r.client.call(context.Background(), &request{Op: "ping"})
			if resp != nil && !errors.Is(err, ErrServerBusy) {
				f.recordSuccess(i)
			} else {
				f.recordFailure(i, err)
			}
		}
	}
}

// Watch implements WatchSource with transparent re-subscribe: the
// subscription is placed on the preferred eligible replica, and when
// that replica's stream dies with a transport error the proxy
// re-subscribes on the next one and marks the first update from the
// new stream Resync — epochs are per-replica and not comparable, so
// the consumer must treat that update as a fresh baseline rather than
// a delta. A clean Final (the serving replica drained its
// subscriptions on shutdown) is forwarded and ends the watch.
func (f *FailoverSource) Watch(ctx context.Context, wr WatchRequest) (*WatchHandle, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	if !validWatchKind(wr.Kind) {
		return nil, fmt.Errorf("collector: unknown watch kind %q", wr.Kind)
	}
	inner, err := f.subscribeAny(ctx, wr)
	if err != nil {
		return nil, err
	}
	h := newWatchHandle(0)
	stop := context.AfterFunc(ctx, h.Cancel)
	go f.proxyWatch(ctx, wr, h, inner, stop)
	return h, nil
}

// subscribeAny routes one subscribe across the replica set.
func (f *FailoverSource) subscribeAny(ctx context.Context, wr WatchRequest) (*WatchHandle, error) {
	var h *WatchHandle
	err := f.route(ctx, func(r *replica) (stands bool, err error) {
		h, err = r.client.Watch(ctx, wr)
		return err == nil, err
	})
	return h, err
}

// proxyWatch forwards updates from replica streams onto h until a
// clean Final, a Cancel, or an unrecoverable subscribe failure. Each
// transport loss triggers a re-subscribe sweep; while every replica is
// down it keeps retrying on the backoff base, because a watch is a
// standing interest — "the collectors are all restarting" is exactly
// when the subscriber most wants the stream back.
func (f *FailoverSource) proxyWatch(ctx context.Context, wr WatchRequest, h *WatchHandle, inner *WatchHandle, stop func() bool) {
	defer stop()
	defer close(h.out)
	resync := false
	for {
		for inner != nil {
			select {
			case u, ok := <-inner.C:
				if !ok {
					if err := inner.Err(); err == nil {
						// Clean end without Final: the inner handle was
						// cancelled (our ctx ended) — nothing to resync.
						return
					}
					inner = nil // transport loss: fall through to re-subscribe
					continue
				}
				if f.observeTerm(u.Term, u.Term > 0) {
					// The stream is fed by a deposed leader still pushing
					// at its old term: abandon it and re-subscribe (the
					// hint routing lands on the new leader).
					f.tel.Counter("failover.fencing.rejections").Inc()
					inner.Cancel()
					inner = nil
					continue
				}
				if resync {
					u.Resync = true
					resync = false
					f.tel.Counter("failover.watch.resyncs").Inc()
				}
				if !h.send(u) || u.Final {
					inner.Cancel()
					return
				}
			case <-h.ctx.Done():
				inner.Cancel()
				return
			}
		}
		for inner == nil {
			if h.ctx.Err() != nil {
				return
			}
			nh, err := f.subscribeAny(ctx, wr)
			if err == nil {
				inner = nh
				resync = true
				f.tel.Counter("failover.watch.resubscribes").Inc()
				break
			}
			if cerr := ctxCallError(ctx); cerr != nil {
				h.setErr(cerr)
				return
			}
			if !sleepCtx(h.ctx, f.cfg.BackoffBase) {
				return
			}
		}
	}
}
