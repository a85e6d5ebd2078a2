package collector

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Per-agent health tracking: the collector's reaction layer. Every poll
// or discovery attempt feeds a small state machine per agent —
//
//	Healthy --failure--> Degraded --DownAfter failures--> Down
//	   ^___________________success___________________________|
//
// — and failing agents are retried on an exponential-backoff schedule
// (a circuit breaker) instead of on every poll tick, so a dead router
// costs a handful of probe attempts per backoff period while healthy
// agents keep being polled at full rate. Queries keep being answered
// from the surviving topology; staleness surfaces through Stat.Age and
// accuracy decay rather than errors.

// HealthState is an agent's position in the health state machine.
type HealthState int

const (
	// Healthy: the last attempt succeeded.
	Healthy HealthState = iota
	// Degraded: at least one failure since the last success, but fewer
	// than Config.DownAfter consecutive ones.
	Degraded
	// Down: DownAfter or more consecutive failures; the circuit breaker
	// is throttling attempts to the backoff schedule.
	Down
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// AgentHealth is a snapshot of one agent's collection health.
type AgentHealth struct {
	State HealthState

	// ConsecutiveFailures counts failed attempts since the last success.
	ConsecutiveFailures int

	// LastSuccess and LastAttempt are virtual times; -1 before the first.
	LastSuccess float64
	LastAttempt float64

	// NextAttempt is the earliest virtual time the breaker allows another
	// attempt (0 when the agent is healthy).
	NextAttempt float64

	// Skipped counts poll opportunities the breaker suppressed.
	Skipped uint64
}

// HealthSource is implemented by Sources that track per-agent health
// (the in-process Collector, the TCP Client, and Merged). A nil map
// means the source has no health information.
type HealthSource interface {
	Health() map[graph.NodeID]AgentHealth
}

// healthLocked returns (creating if needed) the mutable health record
// of agent slot i. The records are in node-ID order, as the agents are,
// so once every agent has one, agent i's is record i. Callers hold c.mu.
func (c *Collector) healthLocked(i int) *AgentHealth {
	id := c.agents[i].id
	if i < len(c.st.health) && c.st.health[i].Node == id {
		return &c.st.health[i].Health
	}
	j, ok := c.st.healthAt(id)
	if !ok {
		c.st.health = slices.Insert(c.st.health, j, NodeHealth{Node: id, Health: AgentHealth{LastSuccess: -1, LastAttempt: -1}})
	}
	return &c.st.health[j].Health
}

// allowAttempt consults the circuit breaker for agent slot i: it
// reports whether the agent may be contacted now, recording either the
// attempt or the skip, and hands back the agent's current poll plan
// (nil: not learned yet), resolved against the current topology, from
// the same critical section.
func (c *Collector) allowAttempt(i int, now float64) (*pollPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(i)
	if now < h.NextAttempt {
		h.Skipped++
		c.tel.Counter("collector.breaker.skips").Inc()
		return nil, false
	}
	h.LastAttempt = now
	return c.resolvePlanLocked(i, c.agents[i].plan), true
}

// noteTransitionLocked counts a health state change in the telemetry
// registry, so breaker flips are visible without diffing Health() maps.
func (c *Collector) noteTransitionLocked(from, to HealthState) {
	if from == to {
		return
	}
	c.tel.Counter("collector.health.to_" + to.String()).Inc()
}

// recordSuccess closes the breaker and resets the agent to Healthy.
func (c *Collector) recordSuccess(i int, now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(i)
	c.noteTransitionLocked(h.State, Healthy)
	h.State = Healthy
	h.ConsecutiveFailures = 0
	h.LastSuccess = now
	h.NextAttempt = 0
}

// recordFailure advances the state machine and re-arms the breaker with
// exponential backoff.
func (c *Collector) recordFailure(i int, now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollErrors++
	c.telPollErrors.Inc()
	h := c.healthLocked(i)
	h.ConsecutiveFailures++
	next := Degraded
	if h.ConsecutiveFailures >= c.cfg.DownAfter {
		next = Down
	}
	c.noteTransitionLocked(h.State, next)
	h.State = next
	h.NextAttempt = now + BackoffAfter(c.cfg.BackoffBase, c.cfg.BackoffMax,
		h.ConsecutiveFailures, 0, nil)
}

// Health implements HealthSource: a snapshot of every agent's health,
// keyed by node ID.
func (c *Collector) Health() map[graph.NodeID]AgentHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Health()
}

// HealthOf returns one agent's health snapshot.
func (c *Collector) HealthOf(id graph.NodeID) (AgentHealth, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.st.healthAt(id)
	if !ok {
		return AgentHealth{}, false
	}
	return c.st.health[j].Health, true
}
