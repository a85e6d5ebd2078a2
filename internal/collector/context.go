package collector

import (
	"context"

	"repro/internal/graph"
	"repro/internal/stats"
)

// ContextSource is another name for Source. It exists only because the
// frozen benchmark module names it; the benchmark thaw deletes it.
type ContextSource = Source

// The CtxXxx helpers are a query entry point's dead-context check and
// its Source call in one; the Modeler and the frozen benchmark call
// through them, and Reader.Read makes the same check once per read.
// Nothing below checks again: an in-process source answers at once, and
// a dialed one checks its deadline as part of its I/O.

// CtxTopology is TopologyCtx behind a dead-context check.
func CtxTopology(ctx context.Context, s Source) (*Topology, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	return s.TopologyCtx(ctx)
}

// CtxUtilization is UtilizationCtx behind a dead-context check.
func CtxUtilization(ctx context.Context, s Source, key ChannelKey, span float64) (stats.Stat, error) {
	if err := ctxError(ctx); err != nil {
		return stats.NoData(), err
	}
	return s.UtilizationCtx(ctx, key, span)
}

// CtxSamples is SamplesCtx behind a dead-context check.
func CtxSamples(ctx context.Context, s Source, key ChannelKey) ([]stats.Sample, error) {
	if err := ctxError(ctx); err != nil {
		return nil, err
	}
	return s.SamplesCtx(ctx, key)
}

// CtxHostLoad is HostLoadCtx behind a dead-context check.
func CtxHostLoad(ctx context.Context, s Source, node graph.NodeID, span float64) (stats.Stat, error) {
	if err := ctxError(ctx); err != nil {
		return stats.NoData(), err
	}
	return s.HostLoadCtx(ctx, node, span)
}

// CtxDataAge is DataAgeCtx behind a dead-context check.
func CtxDataAge(ctx context.Context, s Source, key ChannelKey) (float64, error) {
	if err := ctxError(ctx); err != nil {
		return 0, err
	}
	return s.DataAgeCtx(ctx, key)
}
