package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/collector"
	"repro/internal/graph"
)

// Push subscriptions: WatchGraph and WatchFlowInfo turn the two §4
// queries into standing interests. The Modeler subscribes to the
// source's data-version stream (collector.WatchSource — in-process
// collector, TCP client, or failover set), re-evaluates the query when
// an epoch arrives, and delivers the recomputed answer only when it
// changed materially. The delivery channel is bounded with the same
// drop-oldest discipline as the wire queues: a consumer that falls
// behind loses intermediate answers, never the freshest one, and the
// next update it reads is marked Overflowed.

// watchBuffer is the depth of a Modeler watch's update channel.
const watchBuffer = 4

// WatchOptions tunes a Modeler subscription.
type WatchOptions struct {
	// Threshold is the minimum relative change (0..1) in any annotated
	// bandwidth median — per link for WatchGraph, per flow for
	// WatchFlowInfo — since the last delivered answer that counts as
	// material. 0 delivers an answer for every source epoch. The first
	// clean answer after an Err is always delivered.
	Threshold float64
}

// GraphUpdate is one recomputed GetGraph answer.
type GraphUpdate struct {
	// Graph is the recomputed answer; nil when Err is set or Final.
	Graph *Graph
	// Seq is the underlying subscription's dense update sequence
	// number. With Threshold 0 a delivered-Seq gap always rides with an
	// Overflowed or Resync mark; with a positive threshold, gaps also
	// come from answers gated out as immaterial.
	Seq uint64
	// Epoch is the source data version the answer was computed at.
	// After a Resync it restarts: epochs are per-replica.
	Epoch uint64
	// Overflowed marks the first update delivered after older ones were
	// dropped — on the wire or in this channel — because the consumer
	// (or the network) fell behind.
	Overflowed bool
	// Resync marks the first update after the failover layer
	// re-subscribed on a different replica: treat it as a fresh
	// baseline, not a delta.
	Resync bool
	// TopoChanged reports the physical topology was rediscovered since
	// the previous update.
	TopoChanged bool
	// Final is the terminal update: the source drained the subscription
	// (graceful shutdown). The channel closes after it.
	Final bool
	// Err carries a non-terminal evaluation error; the subscription
	// stays live and recovers when evaluation succeeds again.
	Err error
}

// FlowInfoUpdate is one recomputed QueryFlowInfo answer.
type FlowInfoUpdate struct {
	// Info is the recomputed answer; nil when Err is set or Final.
	Info *FlowInfo
	// Seq, Epoch, Overflowed, Resync, Final, Err: as in GraphUpdate.
	Seq        uint64
	Epoch      uint64
	Overflowed bool
	Resync     bool
	Final      bool
	Err        error
}

// GraphWatch is a live WatchGraph subscription.
type GraphWatch struct {
	// C delivers updates in order; it closes after a Final update, a
	// Cancel, or a transport failure (then Err() is non-nil).
	C <-chan GraphUpdate
	h *collector.WatchHandle
}

// Cancel stops the subscription; C closes shortly after. Idempotent.
func (w *GraphWatch) Cancel() { w.h.Cancel() }

// Err reports why C closed: nil after a clean Final or Cancel, the
// transport error otherwise.
func (w *GraphWatch) Err() error { return w.h.Err() }

// FlowInfoWatch is a live WatchFlowInfo subscription.
type FlowInfoWatch struct {
	C <-chan FlowInfoUpdate
	h *collector.WatchHandle
}

func (w *FlowInfoWatch) Cancel()    { w.h.Cancel() }
func (w *FlowInfoWatch) Err() error { return w.h.Err() }

// WatchGraph subscribes to GetGraph(nodes, tf): the answer is
// recomputed at every source epoch and delivered when it changed
// materially (see WatchOptions.Threshold), when the topology was
// rediscovered, or after a resync. ctx cancels the subscription.
func (m *Modeler) WatchGraph(ctx context.Context, nodes []graph.NodeID, tf Timeframe, opts WatchOptions) (*GraphWatch, error) {
	c, h, err := watchQuery(m, ctx, opts.Threshold,
		func(ctx context.Context) (*Graph, error) { return m.GetGraphCtx(ctx, nodes, tf) },
		graphSignature,
		func(u collector.WatchUpdate, g *Graph, err error) GraphUpdate {
			return GraphUpdate{Graph: g, Seq: u.Seq, Epoch: u.Epoch, Overflowed: u.Overflowed,
				Resync: u.Resync, TopoChanged: u.TopoChanged, Final: u.Final, Err: err}
		},
		func(u *GraphUpdate, dropped GraphUpdate) {
			u.Overflowed = true
			u.Resync = u.Resync || dropped.Resync
			u.TopoChanged = u.TopoChanged || dropped.TopoChanged
		})
	if err != nil {
		return nil, err
	}
	return &GraphWatch{C: c, h: h}, nil
}

// WatchFlowInfo subscribes to QueryFlowInfo(fixed, variable,
// independent, tf) with the same semantics as WatchGraph: re-evaluated
// per source epoch, delivered on material change.
func (m *Modeler) WatchFlowInfo(ctx context.Context, fixed, variable, independent []Flow, tf Timeframe, opts WatchOptions) (*FlowInfoWatch, error) {
	c, h, err := watchQuery(m, ctx, opts.Threshold,
		func(ctx context.Context) (*FlowInfo, error) {
			return m.QueryFlowInfoCtx(ctx, fixed, variable, independent, tf)
		},
		flowSignature,
		func(u collector.WatchUpdate, fi *FlowInfo, err error) FlowInfoUpdate {
			return FlowInfoUpdate{Info: fi, Seq: u.Seq, Epoch: u.Epoch, Overflowed: u.Overflowed,
				Resync: u.Resync, Final: u.Final, Err: err}
		},
		func(u *FlowInfoUpdate, dropped FlowInfoUpdate) {
			u.Overflowed = true
			u.Resync = u.Resync || dropped.Resync
		})
	if err != nil {
		return nil, err
	}
	return &FlowInfoWatch{C: c, h: h}, nil
}

// watchQuery is the one Modeler watch loop behind WatchGraph and
// WatchFlowInfo. It subscribes to the source's version stream and, per
// update, re-runs query — after a Refresh when the topology was
// rediscovered or the stream resynced — and delivers the answer, built
// by mk, when its signature moved by at least threshold since the last
// delivered one. Errors, Final, TopoChanged, Resync and Overflowed
// updates always go out, and so does the first clean answer after an
// error, as on the wire (watchEval.eval). Delivery never blocks: when
// the channel is full its oldest update is dropped and fold merges that
// update's marks into the new one.
func watchQuery[A, U any](m *Modeler, ctx context.Context, threshold float64,
	query func(context.Context) (A, error), signature func(A) []float64,
	mk func(collector.WatchUpdate, A, error) U, fold func(u *U, dropped U)) (chan U, *collector.WatchHandle, error) {
	ws, ok := m.cfg.Source.(collector.WatchSource)
	if !ok {
		return nil, nil, fmt.Errorf("core: source %T does not support watch subscriptions", m.cfg.Source)
	}
	h, err := ws.Watch(ctx, collector.WatchRequest{Kind: collector.WatchVersion})
	if err != nil {
		return nil, nil, err
	}
	out := make(chan U, watchBuffer)
	go func() {
		defer close(out)
		var last []float64 // signature of the last delivered answer; nil after an error
		for u := range h.C {
			var a A
			var err error
			if u.Err != "" {
				err = errors.New(u.Err)
			} else if !u.Final {
				if u.TopoChanged || u.Resync {
					// The cached snapshot predates the rediscovery (or
					// belongs to the previous replica): rebuild it.
					m.Refresh()
				}
				a, err = query(ctx)
			}
			switch {
			case err != nil:
				last = nil
			case !u.Final:
				sig := signature(a)
				if last != nil && !u.TopoChanged && !u.Resync && !u.Overflowed &&
					threshold > 0 && maxRelDelta(last, sig) < threshold {
					continue // below threshold: not material
				}
				last = sig
			}
			deliver(out, mk(u, a, err), fold)
			if u.Final {
				return
			}
		}
	}()
	return out, h, nil
}

// deliver sends u without ever blocking the watch loop: when the buffer
// is full the oldest buffered update is dropped and folded into u.
func deliver[U any](out chan U, u U, fold func(u *U, dropped U)) {
	for {
		select {
		case out <- u:
			return
		default:
		}
		select {
		case old := <-out:
			fold(&u, old)
		default:
			// The consumer drained the channel between the two selects;
			// try the send again.
		}
	}
}

// graphSignature flattens a Graph's dynamic annotations into the
// vector the material-change threshold compares: both directions'
// availability medians per link, in answer order.
func graphSignature(g *Graph) []float64 {
	sig := make([]float64, 0, 2*len(g.Links))
	for i := range g.Links {
		sig = append(sig, g.Links[i].Avail[0].Median, g.Links[i].Avail[1].Median)
	}
	return sig
}

// flowSignature flattens a FlowInfo into its per-flow allocation
// medians, in query order.
func flowSignature(fi *FlowInfo) []float64 {
	all := fi.All()
	sig := make([]float64, len(all))
	for i := range all {
		sig[i] = all[i].Bandwidth.Median
	}
	return sig
}

// maxRelDelta is the largest relative element-wise change between two
// signature vectors; structurally different vectors (a link or flow
// appeared or vanished) are maximally different.
func maxRelDelta(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(b[i] - a[i])
		if d == 0 {
			continue
		}
		base := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if base == 0 {
			continue
		}
		if r := d / base; r > worst {
			worst = r
		}
	}
	return worst
}
