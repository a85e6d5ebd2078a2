package collector

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// History persistence: the paper cites Dinda's "database of historical
// load information" as one way applications learn about resources. A
// collector can dump its measurement state to a stream; a Replay source
// serves the dump offline, letting a Modeler answer queries about a
// network it is no longer connected to (post-mortem analysis, capacity
// planning, tests with recorded traces).

// historyMagic and historyVersion head a history file: a state file
// (checkpoint.go) whose body is one Full feed payload. Version 1 wrote
// the feed body of wire 0x84, its maps in map iteration order.
const (
	historyMagic   = "REMOS-HIST"
	historyVersion = 2
)

// SaveHistory writes the collector's topology and all measurement
// windows to w as a history file.
func (c *Collector) SaveHistory(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.topo == nil {
		return fmt.Errorf("collector: nothing to save before discovery")
	}
	p := c.st.Payload()
	_, err := w.Write(appendStateFile(nil, historyMagic, historyVersion, func(b []byte) []byte {
		return AppendFeedPayload(b, p)
	}))
	return err
}

// Replay is a read-only Source backed by a saved history.
type Replay struct{ st *State }

// LoadHistory reads a history file written by SaveHistory.
func LoadHistory(r io.Reader) (*Replay, error) {
	body, err := readStateFile(r, "history file", historyMagic, historyVersion)
	if err != nil {
		return nil, err
	}
	p, err := DecodeFeedPayload(body)
	if err != nil {
		return nil, fmt.Errorf("collector: corrupt history: %w", err)
	}
	st, err := StateFromPayload(p)
	if err != nil {
		return nil, fmt.Errorf("collector: corrupt history: %w", err)
	}
	return &Replay{st: st}, nil
}

// replayNow is Replay's reference clock. Recorded data has no live
// clock; a replayed trace is by definition as fresh as it will ever be,
// so every age is measured from before any sample and clamps to zero.
var replayNow = math.Inf(-1)

// TopologyCtx implements Source.
func (r *Replay) TopologyCtx(context.Context) (*Topology, error) { return r.st.topo, nil }

// UtilizationCtx implements Source.
func (r *Replay) UtilizationCtx(_ context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	return r.st.Utilization(key, span, replayNow)
}

// SamplesCtx implements Source.
func (r *Replay) SamplesCtx(_ context.Context, key ChannelKey) ([]stats.Sample, error) {
	return r.st.Samples(key)
}

// HostLoadCtx implements Source.
func (r *Replay) HostLoadCtx(_ context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return r.st.HostLoad(node, span, replayNow)
}

// DataAgeCtx implements Source.
func (r *Replay) DataAgeCtx(_ context.Context, key ChannelKey) (float64, error) {
	return r.st.DataAge(key, replayNow)
}
