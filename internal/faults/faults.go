// Package faults is the deterministic fault-injection layer for the
// simulated deployment. It wraps an snmp.Transport with per-agent,
// virtual-time failure schedules — blackholes (drop everything),
// probabilistic loss, added response latency, response corruption, and
// flap-at-time-T windows.
//
// Every probabilistic fault draws from one seeded RNG and every
// scheduled fault consults the simulation clock, so a robustness
// scenario replays bit-for-bit under a fixed seed: the substrate the
// collection pipeline's health machine, backoff, and accuracy-decay
// behaviour are tested on.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/simclock"
	"repro/internal/snmp"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// tests and callers can distinguish injected faults from real ones.
var ErrInjected = errors.New("faults: injected failure")

// DefaultTimeout is the virtual-time budget an injected latency must
// stay under for a request to be answered at all (see Latency).
const DefaultTimeout = 0.5

// Counters snapshots what the injector did to one agent's traffic.
type Counters struct {
	Attempts   uint64 // requests presented to the injector
	Delivered  uint64 // requests that reached the agent and returned
	Blackholed uint64 // dropped by a blackhole window
	Lost       uint64 // dropped by probabilistic loss
	TimedOut   uint64 // answered too late (injected latency >= timeout)
	Corrupted  uint64 // delivered with a flipped response byte
}

type window struct{ from, to float64 }

func (w window) contains(t float64) bool { return t >= w.from && t < w.to }

// agentFaults is the record of one agent address: its live schedule,
// guarded by Injector.mu, and its counters, which outlive Restore.
type agentFaults struct {
	attempts, delivered, blackholed, lost, timedOut, corrupted atomic.Uint64

	// armed is set, under Injector.mu, while the schedule below holds
	// any fault; a request to an unarmed agent takes no lock.
	armed atomic.Bool

	windows []window // blackhole intervals
	loss    float64  // per-request drop probability
	latency float64  // added response latency (virtual seconds)
	corrupt float64  // per-request corruption probability
}

// Injector wraps a Transport with a per-agent fault schedule. It is
// itself a snmp.Transport, so it slots between the collector's client
// and whatever real transport carries the requests.
type Injector struct {
	inner   snmp.Transport
	clock   *simclock.Clock
	timeout float64

	mu  sync.Mutex // guards every schedule, rng and timeout
	rng *rand.Rand

	agents sync.Map // address -> *agentFaults, created on first use
}

// New wraps inner with an empty fault schedule. The clock positions
// scheduled faults in virtual time; seed drives probabilistic loss and
// corruption deterministically.
func New(inner snmp.Transport, clock *simclock.Clock, seed int64) *Injector {
	return &Injector{
		inner:   inner,
		clock:   clock,
		timeout: DefaultTimeout,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// SetTimeout changes the virtual-time response budget that injected
// latency is compared against (default DefaultTimeout). A request whose
// injected latency meets or exceeds it times out instead of answering.
func (i *Injector) SetTimeout(d float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.timeout = d
}

func (i *Injector) faultsFor(addr string) *agentFaults {
	f, ok := i.agents.Load(addr)
	if !ok {
		f, _ = i.agents.LoadOrStore(addr, &agentFaults{})
	}
	return f.(*agentFaults)
}

// rearm sets f.armed from its schedule; callers hold i.mu.
func (f *agentFaults) rearm() {
	f.armed.Store(len(f.windows) > 0 || f.loss > 0 || f.latency > 0 || f.corrupt > 0)
}

// Blackhole drops every request to addr in the virtual-time interval
// [from, to). A non-positive `to` means forever (until Restore).
func (i *Injector) Blackhole(addr string, from, to float64) {
	if to <= 0 {
		to = math.Inf(1)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	f := i.faultsFor(addr)
	f.windows = append(f.windows, window{from: from, to: to})
	f.rearm()
}

// FlapAt takes addr down at virtual time `at` for `downFor` seconds —
// the router-reboot scenario.
func (i *Injector) FlapAt(addr string, at, downFor float64) {
	i.Blackhole(addr, at, at+downFor)
}

// Loss drops each request to addr independently with probability p.
func (i *Injector) Loss(addr string, p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f := i.faultsFor(addr)
	f.loss = p
	f.rearm()
}

// Latency adds d virtual seconds to every response from addr. A
// synchronous poll cannot observe sub-timeout latency, so the only
// visible effect is binary: latency at or above the injector timeout
// turns the request into a timeout failure.
func (i *Injector) Latency(addr string, d float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f := i.faultsFor(addr)
	f.latency = d
	f.rearm()
}

// Corrupt flips one byte of each response from addr independently with
// probability p, so the decode/validation path upstream must reject it.
func (i *Injector) Corrupt(addr string, p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f := i.faultsFor(addr)
	f.corrupt = p
	f.rearm()
}

// Restore clears addr's entire fault schedule; its counters stay.
func (i *Injector) Restore(addr string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f := i.faultsFor(addr)
	f.windows, f.loss, f.latency, f.corrupt = nil, 0, 0, 0
	f.rearm()
}

// CountersFor returns a snapshot of the injector's effect on addr.
func (i *Injector) CountersFor(addr string) Counters {
	f := i.faultsFor(addr)
	return Counters{Attempts: f.attempts.Load(), Delivered: f.delivered.Load(), Blackholed: f.blackholed.Load(),
		Lost: f.lost.Load(), TimedOut: f.timedOut.Load(), Corrupted: f.corrupted.Load()}
}

// RoundTrip implements snmp.Transport: it applies addr's schedule at
// the current virtual time, then delegates survivors to the wrapped
// transport. An agent with no fault scheduled costs its two counters
// and no lock; otherwise the schedule takes the mutex once, and again
// only to draw a due corruption's byte.
func (i *Injector) RoundTrip(addr string, req []byte) ([]byte, error) {
	f := i.faultsFor(addr)
	f.attempts.Add(1)
	corrupt := false
	if f.armed.Load() {
		var err error
		if corrupt, err = i.schedule(f, addr); err != nil {
			return nil, err
		}
	}
	resp, err := i.inner.RoundTrip(addr, req)
	if err != nil {
		return nil, err
	}
	if corrupt && len(resp) > 0 {
		i.mu.Lock()
		at := i.rng.Intn(len(resp))
		i.mu.Unlock()
		out := append([]byte(nil), resp...)
		out[at] ^= 0xFF
		f.corrupted.Add(1)
		return out, nil
	}
	f.delivered.Add(1)
	return resp, nil
}

// schedule applies f's armed schedule to one request at the current
// virtual time: an error drops it, and corrupt says its response is to
// be corrupted.
func (i *Injector) schedule(f *agentFaults, addr string) (corrupt bool, err error) {
	now := float64(i.clock.Now())
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, w := range f.windows {
		if w.contains(now) {
			f.blackholed.Add(1)
			return false, fmt.Errorf("faults: %s blackholed at t=%.3f: %w", addr, now, ErrInjected)
		}
	}
	if f.loss > 0 && i.rng.Float64() < f.loss {
		f.lost.Add(1)
		return false, fmt.Errorf("faults: %s lost request at t=%.3f: %w", addr, now, ErrInjected)
	}
	if f.latency > 0 && f.latency >= i.timeout {
		f.timedOut.Add(1)
		return false, fmt.Errorf("faults: %s response %.3fs late (budget %.3fs): %w",
			addr, f.latency, i.timeout, ErrInjected)
	}
	return f.corrupt > 0 && i.rng.Float64() < f.corrupt, nil
}
