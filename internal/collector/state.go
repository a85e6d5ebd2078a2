package collector

import (
	"fmt"
	"maps"
	"math"

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
// A State handed out by StateFromPayload or Extend is never written
// again by this package: a holder that publishes it to concurrent
// readers (the replica) needs no lock. The Collector is the one holder
// that mutates its State in place, under its own mutex.
type State struct {
	topo     *Topology
	channels map[ChannelKey]*stats.Window
	loads    map[graph.NodeID]*stats.Window
	capacity map[ChannelKey]float64
	health   map[graph.NodeID]*AgentHealth

	halfLife  float64 // accuracy half-life in seconds (0 = no decay)
	windowLen int
	windowAge float64
}

func newState(halfLife float64, windowLen int, windowAge float64) *State {
	return &State{
		channels:  make(map[ChannelKey]*stats.Window),
		loads:     make(map[graph.NodeID]*stats.Window),
		capacity:  make(map[ChannelKey]float64),
		health:    make(map[graph.NodeID]*AgentHealth),
		halfLife:  halfLife,
		windowLen: windowLen,
		windowAge: windowAge,
	}
}

// StateFromPayload builds a State from a complete payload: a Full feed
// update, the body of a checkpoint, a history file. It is all or
// nothing — an incoherent topology, a non-finite sample or samples out
// of time order fail the whole payload and nothing is returned.
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
// as it was: shallow map copies, windows forked only where new samples
// landed, topology/capacity and health replaced only when the payload
// re-shipped them. Forked windows share their predecessor's storage
// (stats.Window), so a delta costs the samples it ships, not the
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
	next.channels = maps.Clone(st.channels)
	next.loads = maps.Clone(st.loads)
	if topo != nil {
		next.topo = topo
		next.capacity = make(map[ChannelKey]float64, len(p.Capacity))
		maps.Copy(next.capacity, p.Capacity)
	}
	for k, samples := range p.Channels {
		if next.channels[k], err = next.extendWindow(next.channels[k], samples); err != nil {
			return nil, err
		}
	}
	for id, samples := range p.Loads {
		nid := graph.NodeID(id)
		if next.loads[nid], err = next.extendWindow(next.loads[nid], samples); err != nil {
			return nil, err
		}
	}
	if p.Health != nil {
		// Health ships with every delta: one slab, not a record per agent.
		records := make([]AgentHealth, 0, len(p.Health))
		next.health = make(map[graph.NodeID]*AgentHealth, len(p.Health))
		for id, h := range p.Health {
			records = append(records, h)
			next.health[graph.NodeID(id)] = &records[len(records)-1]
		}
	}
	return &next, nil
}

// extendWindow forks prev (nil: a window new to this state) and appends
// the shipped samples to the fork; prev is left as it was. This is the
// one place shipped samples are checked: each must be finite, and times
// must not go backwards (a corrupt or adversarial payload fails the
// apply, it does not poison a window).
func (st *State) extendWindow(prev *stats.Window, samples []stats.Sample) (*stats.Window, error) {
	for _, s := range samples {
		if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) ||
			math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("collector: non-finite sample in payload")
		}
	}
	var w *stats.Window
	if prev == nil {
		w = stats.NewWindow(st.windowLen, st.windowAge)
	} else {
		w = prev.Fork()
	}
	if err := w.AddAll(samples); err != nil {
		return nil, fmt.Errorf("collector: corrupt payload: %w", err)
	}
	return w, nil
}

// Payload is the inverse of StateFromPayload: the Full payload holding
// everything in st. The caller stamps what a State does not know — the
// Epoch, Term, Now and PollPeriod of the moment it is taken.
func (st *State) Payload() *FeedPayload {
	p := &FeedPayload{
		Full:      true,
		HalfLife:  st.halfLife,
		WindowLen: st.windowLen,
		WindowAge: st.windowAge,
		Topo:      topoToWire(st.topo),
		Capacity:  maps.Clone(st.capacity),
		Channels:  make(map[ChannelKey][]stats.Sample, len(st.channels)),
		Loads:     make(map[string][]stats.Sample, len(st.loads)),
		Health:    make(map[string]AgentHealth, len(st.health)),
	}
	for k, w := range st.channels {
		p.Channels[k] = w.Samples()
	}
	for id, w := range st.loads {
		p.Loads[string(id)] = w.Samples()
	}
	for id, h := range st.health {
		p.Health[string(id)] = *h
	}
	return p
}

// Topology returns the state's network map (nil before any discovery).
func (st *State) Topology() *Topology { return st.topo }

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
	w := st.channels[key]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: unknown channel %v", key)
	}
	return st.aged(w.Summary(span), w, now), nil
}

// HostLoad summarizes a host's CPU load over the trailing span, aged at
// now.
func (st *State) HostLoad(node graph.NodeID, span, now float64) (stats.Stat, error) {
	w := st.loads[node]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: no load data for %q", node)
	}
	return st.aged(w.Summary(span), w, now), nil
}

// DataAge is how many seconds before now the channel's newest sample
// was taken.
func (st *State) DataAge(key ChannelKey, now float64) (float64, error) {
	w := st.channels[key]
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
	w := st.channels[key]
	if w == nil {
		return nil, fmt.Errorf("collector: unknown channel %v", key)
	}
	return w.Samples(), nil
}

// Capacity returns the discovered capacity of a channel in bits/s.
func (st *State) Capacity(key ChannelKey) (float64, bool) {
	v, ok := st.capacity[key]
	return v, ok
}

// Health returns a copy of the per-agent health map.
func (st *State) Health() map[graph.NodeID]AgentHealth {
	out := make(map[graph.NodeID]AgentHealth, len(st.health))
	for id, h := range st.health {
		out[id] = *h
	}
	return out
}
