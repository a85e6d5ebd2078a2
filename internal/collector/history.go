package collector

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/stats"
)

// History persistence: the paper cites Dinda's "database of historical
// load information" as one way applications learn about resources. A
// collector can dump its measurement state to a stream; a Replay source
// serves the dump offline, letting a Modeler answer queries about a
// network it is no longer connected to (post-mortem analysis, capacity
// planning, tests with recorded traces).

// historyDump is the serialized form.
type historyDump struct {
	Topo     *WireTopo
	Channels map[ChannelKey][]stats.Sample
	Capacity map[ChannelKey]float64
	Loads    map[string][]stats.Sample
}

// SaveHistory writes the collector's topology and all measurement
// windows to w (gob-encoded).
func (c *Collector) SaveHistory(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return fmt.Errorf("collector: nothing to save before discovery")
	}
	dump := historyDump{
		Topo:     topoToWire(c.topo),
		Channels: make(map[ChannelKey][]stats.Sample, len(c.windows)),
		Capacity: make(map[ChannelKey]float64, len(c.capacity)),
		Loads:    make(map[string][]stats.Sample, len(c.loads)),
	}
	for k, win := range c.windows {
		dump.Channels[k] = win.Samples()
	}
	for k, v := range c.capacity {
		dump.Capacity[k] = v
	}
	for id, win := range c.loads {
		dump.Loads[string(id)] = win.Samples()
	}
	return gob.NewEncoder(w).Encode(&dump)
}

// Replay is a read-only Source backed by a saved history.
type Replay struct {
	topo     *Topology
	channels map[ChannelKey]*stats.Window
	loads    map[graph.NodeID]*stats.Window
}

// LoadHistory reads a dump written by SaveHistory.
func LoadHistory(r io.Reader) (*Replay, error) {
	var dump historyDump
	if err := gob.NewDecoder(r).Decode(&dump); err != nil {
		return nil, fmt.Errorf("collector: loading history: %w", err)
	}
	if dump.Topo == nil {
		return nil, fmt.Errorf("collector: history has no topology")
	}
	rp := &Replay{
		topo:     topoFromWire(dump.Topo),
		channels: make(map[ChannelKey]*stats.Window, len(dump.Channels)),
		loads:    make(map[graph.NodeID]*stats.Window, len(dump.Loads)),
	}
	fill := func(samples []stats.Sample) (*stats.Window, error) {
		n := len(samples)
		if n == 0 {
			n = 1
		}
		w := stats.NewWindow(n, 0)
		if err := w.AddAll(samples); err != nil {
			return nil, fmt.Errorf("collector: corrupt history: %w", err)
		}
		return w, nil
	}
	for k, samples := range dump.Channels {
		w, err := fill(samples)
		if err != nil {
			return nil, err
		}
		rp.channels[k] = w
	}
	for id, samples := range dump.Loads {
		w, err := fill(samples)
		if err != nil {
			return nil, err
		}
		rp.loads[graph.NodeID(id)] = w
	}
	return rp, nil
}

// Topology implements Source.
func (r *Replay) Topology() (*Topology, error) { return r.topo, nil }

// Utilization implements Source.
func (r *Replay) Utilization(key ChannelKey, span float64) (stats.Stat, error) {
	w := r.channels[key]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: no recorded data for %v", key)
	}
	return w.Summary(span), nil
}

// Samples implements Source.
func (r *Replay) Samples(key ChannelKey) ([]stats.Sample, error) {
	w := r.channels[key]
	if w == nil {
		return nil, fmt.Errorf("collector: no recorded data for %v", key)
	}
	return w.Samples(), nil
}

// HostLoad implements Source.
func (r *Replay) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	w := r.loads[node]
	if w == nil {
		return stats.NoData(), fmt.Errorf("collector: no recorded load for %q", node)
	}
	return w.Summary(span), nil
}

// DataAge implements Source. Recorded data has no live reference clock;
// a replayed trace is by definition as fresh as it will ever be, so the
// age is zero for channels the dump contains.
func (r *Replay) DataAge(key ChannelKey) (float64, error) {
	if r.channels[key] == nil {
		return 0, fmt.Errorf("collector: no recorded data for %v", key)
	}
	return 0, nil
}
