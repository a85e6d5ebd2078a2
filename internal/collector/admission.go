package collector

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Admission control for the query server: a weighted work semaphore
// with a bounded FIFO wait queue. Cheap requests (a point read) cost
// one unit; expensive ones (full topology serialization) cost
// several, so "max inflight" bounds actual work rather than request
// count. When the semaphore is full a request waits — bounded both by
// the queue depth (beyond it the server sheds with a typed retry-after
// refusal, ErrLoadShed) and by the request's own deadline (waiting past
// the caller's budget would only compute a dead answer; the gate
// returns ErrDeadlineExceeded instead).

// DefaultQueueWait bounds the queue wait of a request that carried no
// budget of its own: nothing may wait in admission forever.
const DefaultQueueWait = 5 * time.Second

// retryAfterUnit scales the shed retry-after hint by queue pressure:
// the deeper the queue at shed time, the longer the hint.
const retryAfterUnit = 25 * time.Millisecond

type gateWaiter struct {
	weight int
	ready  chan struct{} // closed by grantLocked when the slot is handed over
}

// workGate is the weighted semaphore + bounded queue.
type workGate struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	maxQueue int
	waiters  []*gateWaiter

	// shed/timedOut/admitted are diagnostics surfaced via Server.Stats.
	admitted uint64
	shed     uint64
	timedOut uint64

	// Telemetry mirrors of the counters above plus the wait-time
	// distribution and live queue depth. All nil (no-op) until
	// instrument is called; GateStats stays the compatibility surface.
	telAdmitted   *telemetry.Counter
	telShed       *telemetry.Counter
	telTimedOut   *telemetry.Counter
	telWaitMS     *telemetry.Quantile
	telQueueDepth *telemetry.Gauge
}

func newWorkGate(capacity, queueDepth int) *workGate {
	if capacity <= 0 {
		return nil
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &workGate{capacity: capacity, maxQueue: queueDepth}
}

// instrument wires the gate's decisions into a telemetry registry. A
// nil gate or nil registry leaves every instrument a no-op.
func (g *workGate) instrument(reg *telemetry.Registry) {
	if g == nil {
		return
	}
	g.telAdmitted = reg.Counter("server.admission.admitted")
	g.telShed = reg.Counter("server.admission.shed")
	g.telTimedOut = reg.Counter("server.admission.timed_out")
	g.telWaitMS = reg.Quantile("server.admission.wait_ms", 0)
	g.telQueueDepth = reg.Gauge("server.admission.queue_depth")
}

// clamp keeps a single heavyweight op admissible on a small gate.
func (g *workGate) clamp(weight int) int {
	if weight > g.capacity {
		return g.capacity
	}
	return weight
}

// acquire claims weight units, waiting in FIFO order until deadline
// (zero deadline = DefaultQueueWait). It returns a *ShedError when the
// queue is full at arrival and ErrDeadlineExceeded when the wait runs
// out the budget.
func (g *workGate) acquire(weight int, deadline time.Time) error {
	weight = g.clamp(weight)
	arrived := time.Now()
	g.mu.Lock()
	if g.grantNowLocked(weight) {
		g.mu.Unlock()
		return nil
	}
	if len(g.waiters) >= g.maxQueue {
		depth := len(g.waiters)
		g.shed++
		g.mu.Unlock()
		g.telShed.Inc()
		return &ShedError{RetryAfter: time.Duration(depth+1) * retryAfterUnit}
	}
	w := &gateWaiter{weight: weight, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.telQueueDepth.Set(float64(len(g.waiters)))
	g.mu.Unlock()

	wait := DefaultQueueWait
	if !deadline.IsZero() {
		wait = time.Until(deadline)
	}
	if wait < 0 {
		wait = 0
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		g.telAdmitted.Inc()
		g.telWaitMS.Observe(float64(time.Since(arrived)) / float64(time.Millisecond))
		return nil
	case <-timer.C:
		g.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the timer and won: we own the slot.
			g.mu.Unlock()
			g.telAdmitted.Inc()
			g.telWaitMS.Observe(float64(time.Since(arrived)) / float64(time.Millisecond))
			return nil
		default:
		}
		g.removeLocked(w)
		g.timedOut++
		g.telQueueDepth.Set(float64(len(g.waiters)))
		g.mu.Unlock()
		g.telTimedOut.Inc()
		return fmt.Errorf("admission queue wait exhausted budget: %w", ErrDeadlineExceeded)
	}
}

// tryAcquire claims weight units only if acquire would grant them
// without queueing, for a caller that must not wait: the connection's
// read loop answering inline (DESIGN §21).
func (g *workGate) tryAcquire(weight int) bool {
	if g == nil || weight <= 0 {
		return true // no gate, or a free op
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.grantNowLocked(g.clamp(weight))
}

// grantNowLocked is acquire's fast path: nobody queues ahead and the
// units are free.
func (g *workGate) grantNowLocked(weight int) bool {
	if len(g.waiters) > 0 || g.inUse+weight > g.capacity {
		return false
	}
	g.inUse += weight
	g.admitted++
	g.telAdmitted.Inc()
	g.telWaitMS.Observe(0)
	return true
}

// release returns weight units and hands freed capacity to queued
// waiters in FIFO order.
func (g *workGate) release(weight int) {
	weight = g.clamp(weight)
	g.mu.Lock()
	g.inUse -= weight
	if g.inUse < 0 { // defensive; indicates an acquire/release mismatch
		g.inUse = 0
	}
	g.grantLocked()
	g.mu.Unlock()
}

func (g *workGate) grantLocked() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.inUse+w.weight > g.capacity {
			return // strict FIFO: no overtaking past the head waiter
		}
		g.inUse += w.weight
		g.admitted++
		g.waiters = g.waiters[1:]
		g.telQueueDepth.Set(float64(len(g.waiters)))
		close(w.ready)
	}
}

func (g *workGate) removeLocked(target *gateWaiter) {
	for i, w := range g.waiters {
		if w == target {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// GateStats is a snapshot of the admission gate's counters.
type GateStats struct {
	// Admitted counts requests that acquired work units (immediately or
	// after queueing); Shed counts queue-full refusals; TimedOut counts
	// requests whose budget expired while queued.
	Admitted, Shed, TimedOut uint64
	// InUse and Queued describe the instantaneous state.
	InUse, Queued int
}

func (g *workGate) stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{
		Admitted: g.admitted, Shed: g.shed, TimedOut: g.timedOut,
		InUse: g.inUse, Queued: len(g.waiters),
	}
}
