package collector

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/stats"
)

// State is the collector's measurement state — everything a Modeler ever
// reads: the topology, a sample window per channel and per host, link
// capacities, agent health, and the bounds and half-life the windows and
// answers are built with. Every tier holds this one type: the Collector
// (polled, fed as an HA standby, or restored from a checkpoint), a read
// replica, and a Replay of a history file. Its serialized form is a Full
// FeedPayload (StateFromPayload / Payload); its read methods take the
// reference clock as an argument, so a tier supplies only its "now".
//
// The state is held by slot: windows and capacities are slices in the
// topology's slot order (Topology.index), so the poll, the feed and a
// replica's apply reach a channel by position, and only a point read
// looks a key up. A State's slots always index its own topology; a new
// topology carries the windows over by key (carry).
//
// A State handed out by StateFromPayload or Extend is never written
// again by this package: a holder that publishes it to concurrent
// readers (the replica) needs no lock. The Collector is the one holder
// that mutates its State in place, under its own mutex.
type State struct {
	topo *Topology
	// channels and capacity by channel slot, loads by node slot. A zero
	// Window is a channel or host without data; a NaN capacity, a
	// channel the state has none for.
	channels []stats.Window
	loads    []stats.Window
	capacity []float64
	// health holds every agent's record in ascending node-ID order. It
	// is not by slot: an agent that never answered discovery has a
	// record and may be in no topology.
	health []NodeHealth

	halfLife  float64 // accuracy half-life in seconds (0 = no decay)
	windowLen int
	windowAge float64
}

func newState(halfLife float64, windowLen int, windowAge float64) *State {
	return &State{halfLife: halfLife, windowLen: windowLen, windowAge: windowAge}
}

// StateFromPayload builds a State from a complete payload: a Full feed
// update, the body of a checkpoint, a history file. It is all or
// nothing — an incoherent topology, a channel or host outside it, a
// non-finite sample or samples out of time order fail the whole payload
// and nothing is returned.
func StateFromPayload(p *FeedPayload) (*State, error) {
	if p.Topo == nil {
		return nil, fmt.Errorf("collector: full payload without topology")
	}
	// stats.NewWindow panics on a non-positive length, and the length
	// bounds what a window may retain, so a corrupt one must not license
	// unbounded growth.
	windowLen := p.WindowLen
	if windowLen <= 0 {
		windowLen = 512
	} else if windowLen > 1<<16 {
		windowLen = 1 << 16
	}
	return newState(p.HalfLife, windowLen, p.WindowAge).extend(p)
}

// Extend builds the successor of st from a delta payload and leaves st
// as it was: the slot slices copied, windows extended only where new
// samples landed, topology/capacity and health replaced only when the
// payload re-shipped them. Extended windows share their predecessor's
// storage (stats.Window), so a delta costs the samples it ships, not the
// windows it touches. A Full payload is a fresh StateFromPayload; a nil
// or never-discovered st can be extended by nothing else.
func (st *State) Extend(p *FeedPayload) (*State, error) {
	if p.Full {
		return StateFromPayload(p)
	}
	if st == nil || st.topo == nil {
		return nil, fmt.Errorf("collector: feed delta before any full payload")
	}
	return st.extend(p)
}

func (st *State) extend(p *FeedPayload) (*State, error) {
	topo, err := p.Topology()
	if err != nil {
		return nil, err
	}
	next := *st
	next.halfLife = p.HalfLife
	if topo == nil {
		// Windows are values: the copied slices fork every window at
		// once and are the one slab the successor's window headers live
		// in. A header lives in exactly one state's slice, so no slab
		// outlives its state, whether or not the delta touched its
		// windows; states share only sample storage, which each window
		// bounds.
		next.channels = slices.Clone(st.channels)
		next.loads = slices.Clone(st.loads)
	} else {
		next.topo = topo.index()
		next.channels = carry(st.channels, topo.chans, st.topo.chanSlotOf)
		next.loads = carry(st.loads, topo.nodes, st.topo.nodeSlotOf)
		next.capacity = make([]float64, len(topo.chans))
		for i := range next.capacity {
			next.capacity[i] = math.NaN()
		}
		if err := inStep(topo.chans, p.Capacity, func(e *ChannelCapacity) ChannelKey { return e.Key }, compareKeys,
			func(s int, e *ChannelCapacity) error { next.capacity[s] = e.Bps; return nil }); err != nil {
			return nil, err
		}
	}
	if err := inStep(next.topo.chans, p.Channels, func(e *ChannelSamples) ChannelKey { return e.Key }, compareKeys,
		func(s int, e *ChannelSamples) error { return next.extendWindow(&next.channels[s], e.Samples) }); err != nil {
		return nil, err
	}
	if err := inStep(next.topo.nodes, p.Loads, func(e *NodeSamples) graph.NodeID { return e.Node }, compareNodes,
		func(s int, e *NodeSamples) error { return next.extendWindow(&next.loads[s], e.Samples) }); err != nil {
		return nil, err
	}
	if p.Health != nil {
		for i := 1; i < len(p.Health); i++ {
			if compareNodes(p.Health[i-1].Node, p.Health[i].Node) >= 0 {
				return nil, fmt.Errorf("collector: payload health not in ascending node order at %q", p.Health[i].Node)
			}
		}
		// Health ships with every delta, whole: one slab, which the
		// Collector may go on to write in place.
		next.health = slices.Clone(p.Health)
	}
	return &next, nil
}

func compareNodes(a, b graph.NodeID) int { return strings.Compare(string(a), string(b)) }

// inStep calls apply for each entry of a payload section with the slot
// of its key, found by walking the entries and the topology's ascending
// keys in step: no lookup. An entry whose key is not above its
// predecessor's, or is not in keys, fails the whole payload — under
// slots it has nowhere to go.
func inStep[E, K any](keys []K, entries []E, keyOf func(*E) K, compare func(K, K) int, apply func(int, *E) error) error {
	s := 0
	for i := range entries {
		k := keyOf(&entries[i])
		if i > 0 && compare(keyOf(&entries[i-1]), k) >= 0 {
			return fmt.Errorf("collector: payload key %v not above its predecessor", k)
		}
		for s < len(keys) && compare(keys[s], k) < 0 {
			s++
		}
		if s == len(keys) || compare(keys[s], k) != 0 {
			return fmt.Errorf("collector: payload key %v is not in the topology", k)
		}
		if err := apply(s, &entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// carry lays vals, held by the slots oldSlot resolves, out in the order
// of keys: the rare path of a new topology. A value whose key is not in
// keys is left behind; a key new to keys starts at the zero value.
func carry[T, K any](vals []T, keys []K, oldSlot func(K) (int, bool)) []T {
	out := make([]T, len(keys))
	for s, k := range keys {
		if o, ok := oldSlot(k); ok {
			out[s] = vals[o]
		}
	}
	return out
}

// extendWindow appends the shipped samples to *w, making it first when
// the slot has no window yet. This is the one place shipped samples are
// checked: each must be finite, and times must not go backwards (a
// corrupt or adversarial payload fails the apply, it does not poison a
// window).
func (st *State) extendWindow(w *stats.Window, samples []stats.Sample) error {
	for _, s := range samples {
		if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) ||
			math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("collector: non-finite sample in payload")
		}
	}
	if !w.Made() {
		*w = stats.MakeWindow(st.windowLen, st.windowAge)
	}
	if err := w.AddAll(samples); err != nil {
		return fmt.Errorf("collector: corrupt payload: %w", err)
	}
	return nil
}

// setTopology installs a new topology into a state its holder owns (the
// Collector's), carrying every window over by key, with capacity by
// channel slot.
func (st *State) setTopology(topo *Topology, capacity []float64) {
	st.channels = carry(st.channels, topo.chans, st.topo.chanSlotOf)
	st.loads = carry(st.loads, topo.nodes, st.topo.nodeSlotOf)
	st.topo, st.capacity = topo, capacity
}

// Payload is the inverse of StateFromPayload: the Full payload holding
// everything in st, every section in slot order. The caller stamps what
// a State does not know — the Epoch, Term, Now and PollPeriod of the
// moment it is taken.
func (st *State) Payload() *FeedPayload {
	p := &FeedPayload{
		Full:      true,
		HalfLife:  st.halfLife,
		WindowLen: st.windowLen,
		WindowAge: st.windowAge,
		Topo:      topoToWire(st.topo),
		Capacity:  st.capacities(),
		Channels:  make([]ChannelSamples, 0, len(st.channels)),
		Loads:     make([]NodeSamples, 0, len(st.loads)),
		Health:    append(make([]NodeHealth, 0, len(st.health)), st.health...),
	}
	for s := range st.channels {
		if w := &st.channels[s]; w.Made() {
			p.Channels = append(p.Channels, ChannelSamples{Key: st.topo.chans[s], Samples: w.Samples()})
		}
	}
	for s := range st.loads {
		if w := &st.loads[s]; w.Made() {
			p.Loads = append(p.Loads, NodeSamples{Node: st.topo.nodes[s], Samples: w.Samples()})
		}
	}
	return p
}

// capacities is st's capacity section, in slot order.
func (st *State) capacities() []ChannelCapacity {
	out := make([]ChannelCapacity, 0, len(st.capacity))
	for s, v := range st.capacity {
		if !math.IsNaN(v) {
			out = append(out, ChannelCapacity{Key: st.topo.chans[s], Bps: v})
		}
	}
	return out
}

// Topology returns the state's network map (nil before any discovery).
func (st *State) Topology() *Topology { return st.topo }

// channel is key's window; nil when the state holds none.
func (st *State) channel(key ChannelKey) *stats.Window {
	if s, ok := st.topo.chanSlotOf(key); ok && st.channels[s].Made() {
		return &st.channels[s]
	}
	return nil
}

// aged stamps the data age at the reference time now onto a summary and
// decays its accuracy by the half-life: how an agent outage, a feed
// partition or downtime across a restart shows up in answers
// (stale-but-served) instead of as an error.
func (st *State) aged(s stats.Stat, w *stats.Window, now float64) stats.Stat {
	latest, ok := w.Latest()
	if !ok {
		return s
	}
	s.Age = math.Max(0, now-latest.Time)
	return s.AgeDecayed(st.halfLife)
}

// Utilization summarizes a channel over the trailing span, aged at now.
func (st *State) Utilization(key ChannelKey, span, now float64) (stats.Stat, error) {
	w := st.channel(key)
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: unknown channel %v", key)
	}
	return st.aged(w.Summary(span), w, now), nil
}

// HostLoad summarizes a host's CPU load over the trailing span, aged at
// now.
func (st *State) HostLoad(node graph.NodeID, span, now float64) (stats.Stat, error) {
	s, ok := st.topo.nodeSlotOf(node)
	if !ok || !st.loads[s].Made() {
		return stats.NoData(), fmt.Errorf("collector: no load data for %q", node)
	}
	w := &st.loads[s]
	return st.aged(w.Summary(span), w, now), nil
}

// DataAge is how many seconds before now the channel's newest sample
// was taken.
func (st *State) DataAge(key ChannelKey, now float64) (float64, error) {
	w := st.channel(key)
	if w == nil {
		return 0, fmt.Errorf("collector: unknown channel %v", key)
	}
	latest, ok := w.Latest()
	if !ok {
		return math.Inf(1), nil
	}
	return math.Max(0, now-latest.Time), nil
}

// Samples returns a copy of a channel's retained samples.
func (st *State) Samples(key ChannelKey) ([]stats.Sample, error) {
	w := st.channel(key)
	if w == nil {
		return nil, fmt.Errorf("collector: unknown channel %v", key)
	}
	return w.Samples(), nil
}

// Capacity returns the discovered capacity of a channel in bits/s.
func (st *State) Capacity(key ChannelKey) (float64, bool) {
	s, ok := st.topo.chanSlotOf(key)
	if !ok || math.IsNaN(st.capacity[s]) {
		return 0, false
	}
	return st.capacity[s], true
}

// Health returns a copy of the per-agent health map.
func (st *State) Health() map[graph.NodeID]AgentHealth {
	out := make(map[graph.NodeID]AgentHealth, len(st.health))
	for _, h := range st.health {
		out[h.Node] = h.Health
	}
	return out
}

// healthAt is the index of id's record in st.health, or where it would
// go, and whether it is there.
func (st *State) healthAt(id graph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(st.health, id, func(h NodeHealth, id graph.NodeID) int { return compareNodes(h.Node, id) })
}
