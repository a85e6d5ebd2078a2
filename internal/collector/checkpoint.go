package collector

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Checkpoint/warm-restart: a collector can serialize its full state —
// topology, measurement windows, counter baselines, per-agent health,
// poll statistics — and a restarted collector can restore it and answer
// queries immediately, with honest data ages that include the downtime,
// instead of erroring through a cold discovery-and-poll warmup. The
// format is gob with a versioned magic header so a restore from a
// corrupt, truncated, or incompatible file is rejected loudly rather
// than half-applied.

// checkpointMagic identifies a collector checkpoint stream.
const checkpointMagic = "REMOS-CKPT"

// CheckpointVersion is the current checkpoint format version. Restores
// reject any other version: state formats evolve and a silent
// misdecode is worse than a cold start.
const CheckpointVersion = 1

// checkpointHeader precedes the dump. It is encoded as its own gob
// value so header validation happens before the (much larger) dump is
// even read.
type checkpointHeader struct {
	Magic   string
	Version int
}

// wireCounter is counterState with exported fields for gob.
type wireCounter struct {
	At     float64
	Octets uint32
	Valid  bool
}

// checkpointDump is the serialized collector state.
type checkpointDump struct {
	// SavedAt is the virtual time of the save; SavedAtWallNanos is the
	// wall clock (UnixNano) at the same moment, letting a restarting
	// daemon translate real downtime into virtual seconds.
	SavedAt          float64
	SavedAtWallNanos int64

	Polls       uint64
	PollErrors  uint64
	Discoveries uint64

	Topo     *WireTopo
	Counters map[ChannelKey]wireCounter
	Channels map[ChannelKey][]stats.Sample
	Capacity map[ChannelKey]float64
	Loads    map[string][]stats.Sample
	Health   map[string]AgentHealth
}

// CheckpointInfo describes a restored checkpoint.
type CheckpointInfo struct {
	// SavedAt is the virtual time at which the checkpoint was taken.
	// The caller should advance its clock to at least SavedAt (plus the
	// virtual equivalent of the downtime) before starting the
	// collector, so restored samples stay in the past and reported data
	// ages are honest.
	SavedAt float64
	// SavedAtWall is the wall time of the save.
	SavedAtWall time.Time
	// Version is the format version read from the file.
	Version int
}

// SaveCheckpoint writes the collector's full state to w.
func (c *Collector) SaveCheckpoint(w io.Writer) error {
	wallStart := time.Now()
	defer func() {
		c.tel.Counter("collector.checkpoint.saves").Inc()
		c.tel.Quantile("collector.checkpoint.save_ms", 0).
			Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return fmt.Errorf("collector: nothing to checkpoint before discovery")
	}
	dump := checkpointDump{
		SavedAt:          float64(c.cfg.Clock.Now()),
		SavedAtWallNanos: time.Now().UnixNano(),
		Polls:            c.polls,
		PollErrors:       c.pollErrors,
		Discoveries:      c.discoveries,
		Topo:             topoToWire(c.topo),
		Counters:         make(map[ChannelKey]wireCounter, len(c.counters)),
		Channels:         make(map[ChannelKey][]stats.Sample, len(c.windows)),
		Capacity:         make(map[ChannelKey]float64, len(c.capacity)),
		Loads:            make(map[string][]stats.Sample, len(c.loads)),
		Health:           make(map[string]AgentHealth, len(c.health)),
	}
	for k, cs := range c.counters {
		dump.Counters[k] = wireCounter{At: cs.at, Octets: cs.octets, Valid: cs.valid}
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
	for id, h := range c.health {
		dump.Health[string(id)] = *h
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&checkpointHeader{Magic: checkpointMagic, Version: CheckpointVersion}); err != nil {
		return fmt.Errorf("collector: writing checkpoint header: %w", err)
	}
	if err := enc.Encode(&dump); err != nil {
		return fmt.Errorf("collector: writing checkpoint: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state saved by SaveCheckpoint into c,
// replacing any existing state. It validates the header first and
// decodes the whole dump before touching the collector, so a corrupt or
// truncated file leaves c unchanged.
func (c *Collector) RestoreCheckpoint(r io.Reader) (CheckpointInfo, error) {
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: reading checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return CheckpointInfo{}, fmt.Errorf("collector: not a collector checkpoint (magic %q)", hdr.Magic)
	}
	if hdr.Version != CheckpointVersion {
		return CheckpointInfo{}, fmt.Errorf("collector: unsupported checkpoint version %d (want %d)",
			hdr.Version, CheckpointVersion)
	}
	var dump checkpointDump
	if err := dec.Decode(&dump); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint: %w", err)
	}
	if dump.Topo == nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint: no topology")
	}

	// Rebuild windows outside the lock; install everything at once.
	rebuild := func(samples []stats.Sample) (*stats.Window, error) {
		w := stats.NewWindow(c.cfg.WindowLen, c.cfg.WindowAge)
		if err := w.AddAll(samples); err != nil {
			return nil, fmt.Errorf("collector: corrupt checkpoint: %w", err)
		}
		return w, nil
	}
	windows := make(map[ChannelKey]*stats.Window, len(dump.Channels))
	for k, samples := range dump.Channels {
		w, err := rebuild(samples)
		if err != nil {
			return CheckpointInfo{}, err
		}
		windows[k] = w
	}
	loads := make(map[graph.NodeID]*stats.Window, len(dump.Loads))
	for id, samples := range dump.Loads {
		w, err := rebuild(samples)
		if err != nil {
			return CheckpointInfo{}, err
		}
		loads[graph.NodeID(id)] = w
	}
	counters := make(map[ChannelKey]counterState, len(dump.Counters))
	for k, wc := range dump.Counters {
		counters[k] = counterState{at: wc.At, octets: wc.Octets, valid: wc.Valid}
	}
	capacity := make(map[ChannelKey]float64, len(dump.Capacity))
	for k, v := range dump.Capacity {
		capacity[k] = v
	}
	health := make(map[graph.NodeID]*AgentHealth, len(dump.Health))
	for id, h := range dump.Health {
		hc := h
		health[graph.NodeID(id)] = &hc
	}

	c.mu.Lock()
	c.topo = topoFromWire(dump.Topo)
	c.counters = counters
	c.windows = windows
	c.capacity = capacity
	c.loads = loads
	c.health = health
	c.polls = dump.Polls
	c.pollErrors = dump.PollErrors
	c.discoveries = dump.Discoveries
	// The restore replaced every window wholesale: feed subscriptions
	// must re-snapshot rather than delta against the old state.
	c.stateGen++
	c.mu.Unlock()
	c.dataVersion.Add(1)
	c.notifyVersion()
	c.tel.Counter("collector.checkpoint.restores").Inc()

	return CheckpointInfo{
		SavedAt:     dump.SavedAt,
		SavedAtWall: time.Unix(0, dump.SavedAtWallNanos),
		Version:     hdr.Version,
	}, nil
}
