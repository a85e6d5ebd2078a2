package collector

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Replication feed: the "feed" watch kind streams a collector's full
// measurement state to stateless read replicas (internal/replica). It
// rides the multiplexed watch plane unchanged — same bounded per-
// subscription queues, dense Seq numbers, Overflowed marks, stalled-
// subscriber eviction, and terminal Final on drain — so the feed
// inherits every backpressure property subscriptions already have.
//
// Protocol: the first update on a fresh subscription carries a Full
// payload (the checkpoint-shaped snapshot of topology, sample windows,
// capacities, loads, and health). After that, each data-version bump
// produces a delta payload holding only the samples newer than the
// per-subscription cursor, plus the topology/capacity maps when a
// rediscovery moved them and the (small) health map every time. Epochs
// are the collector's DataVersion, so a replica's applied epoch is
// directly comparable to its collector's.
//
// Coherence is the subscriber's job: a Seq gap, an Overflowed mark, or
// a failover Resync mark means deltas were lost, and the only honest
// recovery is a fresh subscription (whose first update is Full again).
// A checkpoint restore replaces the collector's state wholesale; the
// state generation counter detects that and re-ships a Full payload on
// the existing subscription instead of a delta against windows that no
// longer exist.

// WatchFeed is the replication watch kind (WatchRequest.Kind): full
// snapshot first, epoch deltas after. Only sources implementing
// FeedSource accept it.
const WatchFeed = "feed"

// FeedPayload is the replication payload of one WatchFeed update. A
// Full one is the serialized form of a State (state.go), so it is also
// the body of a checkpoint and the whole of a history file.
type FeedPayload struct {
	// Epoch is the source DataVersion the payload was collected at.
	Epoch uint64
	// Full marks a complete state snapshot: the receiver replaces
	// everything. False means a delta against the previous payload.
	Full bool
	// Now is the collector's virtual clock at collection time; replicas
	// extrapolate data ages from it between updates and across
	// partitions.
	Now float64
	// HalfLife is the collector's accuracy half-life (0 = decay
	// disabled), so replicas decay answers exactly like their feeder.
	HalfLife float64
	// WindowLen / WindowAge are the collector's sample-window bounds;
	// replicas size their windows identically.
	WindowLen int
	WindowAge float64
	// PollPeriod is the collector's poll interval in virtual seconds —
	// the expected heartbeat rate of this feed.
	PollPeriod float64
	// Term is the source's HA lease term (0 without HA). Receivers fence
	// on it: payloads with a term below the applied one are from a
	// deposed leader and must be rejected; a term advance forces a fresh
	// Full payload, exactly like a state-generation bump.
	Term uint64

	// Topo and Capacity are set on Full payloads and whenever a
	// rediscovery moved the topology; nil otherwise.
	Topo     *WireTopo
	Capacity []ChannelCapacity

	// Channels and Loads carry the samples newer than the subscription
	// cursor (everything retained, on Full payloads).
	Channels []ChannelSamples
	Loads    []NodeSamples

	// Health is every agent's record (small; shipped whole on every
	// payload).
	Health []NodeHealth
}

// A payload's sections are a map's entries as a slice, in strictly
// ascending key order: channels by (Global, Dir), nodes by ID. That is
// the slot order of the topology (Topology.index), so a producer walks
// its slots into them and an applier walks them into its slots, and the
// encoding of a payload is canonical. A channel or node outside the
// topology fails the payload (State.Extend).

// ChannelSamples is one channel's samples in a FeedPayload.
type ChannelSamples struct {
	Key     ChannelKey
	Samples []stats.Sample
}

// NodeSamples is one host's CPU-load samples in a FeedPayload.
type NodeSamples struct {
	Node    graph.NodeID
	Samples []stats.Sample
}

// ChannelCapacity is one channel's capacity in a FeedPayload, bits/s.
type ChannelCapacity struct {
	Key ChannelKey
	Bps float64
}

// NodeHealth is one agent's health record in a FeedPayload.
type NodeHealth struct {
	Node   graph.NodeID
	Health AgentHealth
}

// Topology decodes the payload's topology (nil when the payload
// carries none — an unchanged-topology delta). It errors on an
// incoherent wire topology — a replica must reject such a payload and
// resync, not panic.
func (p *FeedPayload) Topology() (*Topology, error) {
	if p.Topo == nil {
		return nil, nil
	}
	return topoFromWireChecked(p.Topo)
}

// FeedCursor is one subscription's replication progress: what the
// subscriber has already been sent. It is owned by the single evaluator
// goroutine that runs the subscription. The zero cursor has sent
// nothing, so its first FeedSince is Full.
type FeedCursor struct {
	sentFull bool
	gen      uint64 // state generation (checkpoint restores reset it)
	term     uint64 // HA lease term last shipped (promotions force Full)
	epoch    uint64
	// topo is the topology last shipped; chans and nodes are the newest
	// sample time shipped per slot of it.
	topo  *Topology
	chans []sentMark
	nodes []sentMark
}

// sentMark is where a cursor stands in one window: at the newest sample
// shipped. The zero mark has shipped nothing, so the whole window goes.
type sentMark struct {
	at   float64
	sent bool
}

// FeedSource is a Source that can stream its state to read replicas.
// Implemented by *Collector; servers refuse WatchFeed subscriptions on
// sources that lack it.
type FeedSource interface {
	// FeedSince collects everything newer than the cursor and advances
	// it. A nil payload with nil error means nothing new. The first call
	// on a fresh cursor (and any call after the source's state was
	// replaced wholesale) returns a Full payload.
	FeedSince(cur *FeedCursor) (*FeedPayload, error)
}

// FeedSince implements FeedSource.
func (c *Collector) FeedSince(cur *FeedCursor) (*FeedPayload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	if st.topo == nil {
		return nil, fmt.Errorf("collector: topology not discovered yet")
	}
	epoch := c.dataVersion.Load()
	term, _, _ := c.HAStatus()
	full := !cur.sentFull || cur.gen != c.stateGen || cur.term != term
	if !full && epoch == cur.epoch {
		return nil, nil
	}
	var p *FeedPayload
	if full {
		p = st.Payload()
		cur.chans, cur.nodes = newestMarks(st.channels), newestMarks(st.loads)
	} else {
		p = &FeedPayload{
			HalfLife:  st.halfLife,
			WindowLen: st.windowLen,
			WindowAge: st.windowAge,
			Channels:  make([]ChannelSamples, 0, len(st.channels)),
			Loads:     make([]NodeSamples, 0, len(st.loads)),
			Health:    append(make([]NodeHealth, 0, len(st.health)), st.health...),
		}
		if st.topo != cur.topo {
			p.Topo = topoToWire(st.topo)
			p.Capacity = st.capacities()
			cur.chans = carry(cur.chans, st.topo.chans, cur.topo.chanSlotOf)
			cur.nodes = carry(cur.nodes, st.topo.nodes, cur.topo.nodeSlotOf)
		}
		// A delta is about one sample per window: its sample slices are
		// carved out of one slab (capped, so no later append can reach
		// into a neighbour's). A window new to the cursor is copied whole.
		slab := make([]stats.Sample, 0, len(st.channels)+len(st.loads))
		collect := func(w *stats.Window, mark *sentMark) []stats.Sample {
			var samples []stats.Sample
			if !mark.sent {
				samples = w.Samples()
			} else {
				from := len(slab)
				slab = w.AppendSince(slab, mark.at)
				samples = slab[from:len(slab):len(slab)]
			}
			if n := len(samples); n > 0 {
				*mark = sentMark{at: samples[n-1].Time, sent: true}
			}
			return samples
		}
		for s := range st.channels {
			if w := &st.channels[s]; w.Made() {
				if samples := collect(w, &cur.chans[s]); len(samples) > 0 {
					p.Channels = append(p.Channels, ChannelSamples{Key: st.topo.chans[s], Samples: samples})
				}
			}
		}
		for s := range st.loads {
			if w := &st.loads[s]; w.Made() {
				if samples := collect(w, &cur.nodes[s]); len(samples) > 0 {
					p.Loads = append(p.Loads, NodeSamples{Node: st.topo.nodes[s], Samples: samples})
				}
			}
		}
	}
	p.Epoch, p.Term = epoch, term
	p.Now = float64(c.cfg.Clock.Now())
	p.PollPeriod = c.cfg.PollPeriod
	cur.sentFull = true
	cur.gen = c.stateGen
	cur.term = term
	cur.epoch = epoch
	cur.topo = st.topo
	return p, nil
}

// newestMarks is where a cursor stands after shipping windows whole: at
// the newest sample of each.
func newestMarks(windows []stats.Window) []sentMark {
	marks := make([]sentMark, len(windows))
	for s := range windows {
		if last, ok := windows[s].Latest(); ok {
			marks[s] = sentMark{at: last.Time, sent: true}
		}
	}
	return marks
}
