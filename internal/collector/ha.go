package collector

import (
	"fmt"
	"sync/atomic"
)

// Collector-side hooks for the hot-standby pair (internal/ha): the HA
// node publishes its lease term and role here, the feed and query
// layers stamp them on everything that leaves the process, and a
// standby keeps its state warm by applying the leader's feed payloads
// directly into the collector — so a promotion starts from synced
// windows, not a cold discovery.

// haMode values for the haMode atomic.
const (
	haModeOff     = 0 // not part of a pair: HAStatus reports ok=false
	haModeStandby = 1
	haModeLeader  = 2
)

// SetHA publishes the collector's HA role and lease term. The ha.Node
// calls it on every role transition; a collector that never sees a
// SetHA call reports no HA state and all wire stamping stays zero.
func (c *Collector) SetHA(term uint64, leader bool) {
	c.haTerm.Store(term)
	if leader {
		c.haMode.Store(haModeLeader)
	} else {
		c.haMode.Store(haModeStandby)
	}
}

// HAStatus implements HAStatusSource: the current lease term and role.
// ok is false when the collector is not part of a hot-standby pair.
func (c *Collector) HAStatus() (term uint64, leader bool, ok bool) {
	mode := c.haMode.Load()
	if mode == haModeOff {
		return 0, false, false
	}
	return c.haTerm.Load(), mode == haModeLeader, true
}

// advanceVersionTo raises dataVersion to at least v (and always by at
// least one), keeping epochs monotonic when a standby mirrors its
// leader's epochs and then starts minting its own after promotion.
func advanceVersionTo(dv *atomic.Uint64, v uint64) {
	for {
		cur := dv.Load()
		next := v
		if next <= cur {
			next = cur + 1
		}
		if dv.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ApplyFeed installs one replication feed payload into the collector: a
// standby's live state sync. The successor state is built whole
// (State.Extend) and installed at once, so a corrupt payload leaves the
// collector exactly as it was. Full payloads replace the measurement
// state wholesale (bumping the state generation, exactly like a
// checkpoint restore, so any downstream feed cursors re-snapshot);
// deltas extend the existing windows, and a promoted standby's poll
// rounds carry on appending at their tips. Counter baselines are not
// carried by the feed: the first poll round after a promotion
// re-baselines each counter instead of fabricating a rate across the
// failover. Coherence (Seq gaps, term fencing) is the caller's job.
func (c *Collector) ApplyFeed(p *FeedPayload) error {
	if p == nil {
		return fmt.Errorf("collector: nil feed payload")
	}
	c.mu.Lock()
	next, err := c.st.Extend(p)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	applied := "collector.feed.applied.delta"
	if p.Full {
		c.counters = make([]counterState, len(next.topo.chans))
		c.stateGen++
		applied = "collector.feed.applied.full"
	} else if next.topo != c.st.topo {
		c.counters = carry(c.counters, next.topo.chans, c.st.topo.chanSlotOf)
	}
	c.st = next
	c.mu.Unlock()
	advanceVersionTo(&c.dataVersion, p.Epoch)
	c.bell.Ring()
	c.tel.Counter(applied).Inc()
	return nil
}
