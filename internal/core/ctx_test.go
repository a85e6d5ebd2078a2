package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// lifecycleSource wraps a working Source but answers every measurement
// query with a fixed lifecycle error, the way a remote collector under
// deadline pressure or load shedding would. Topology still works, so
// queries get far enough to hit the availability path.
type lifecycleSource struct {
	collector.Source
	err error
}

func (s *lifecycleSource) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	return s.Source.TopologyCtx(ctx)
}
func (s *lifecycleSource) UtilizationCtx(context.Context, collector.ChannelKey, float64) (stats.Stat, error) {
	return stats.NoData(), s.err
}
func (s *lifecycleSource) SamplesCtx(context.Context, collector.ChannelKey) ([]stats.Sample, error) {
	return nil, s.err
}
func (s *lifecycleSource) HostLoadCtx(context.Context, graph.NodeID, float64) (stats.Stat, error) {
	return stats.NoData(), s.err
}
func (s *lifecycleSource) DataAgeCtx(context.Context, collector.ChannelKey) (float64, error) {
	return 0, s.err
}

// TestGraphQueryPropagatesDeadline: when the source refuses with a
// deadline error, GetGraphCtx must surface that typed error — not paper
// over it with the capacity fallback ("no dead answers").
func TestGraphQueryPropagatesDeadline(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	mod := New(Config{Source: &lifecycleSource{Source: r.col, err: collector.ErrDeadlineExceeded}})
	_, err := mod.GetGraphCtx(context.Background(), nil, TFHistory(5))
	if !errors.Is(err, collector.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
}

// TestFlowQueryPropagatesShed: a load-shed refusal from the source
// aborts the flow query with the typed error and its retry-after hint
// intact through the whole Modeler stack.
func TestFlowQueryPropagatesShed(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	shed := &collector.ShedError{RetryAfter: 75 * time.Millisecond}
	mod := New(Config{Source: &lifecycleSource{Source: r.col, err: shed}})
	_, err := mod.QueryFlowInfoCtx(context.Background(), nil, nil,
		[]Flow{{Src: "m-1", Dst: "m-8", Kind: IndependentFlow}}, TFHistory(5))
	if !errors.Is(err, collector.ErrLoadShed) {
		t.Fatalf("got %v, want ErrLoadShed", err)
	}
	if ra, ok := collector.RetryAfterHint(err); !ok || ra != 75*time.Millisecond {
		t.Fatalf("retry-after hint lost through the Modeler: %v (ok=%v)", ra, ok)
	}
}

// TestMeasurementErrorStillDegrades: a non-lifecycle measurement error
// keeps the paper's behaviour — degrade to physical capacity at low
// accuracy rather than failing the query.
func TestMeasurementErrorStillDegrades(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	mod := New(Config{Source: &lifecycleSource{Source: r.col, err: errors.New("sensor exploded")}})
	g, err := mod.GetGraphCtx(context.Background(), []graph.NodeID{"m-1", "m-5"}, TFHistory(5))
	if err != nil {
		t.Fatalf("semantic measurement error escalated to query failure: %v", err)
	}
	for _, l := range g.Links {
		for _, av := range []stats.Stat{l.AvailFrom(l.A), l.AvailFrom(l.B)} {
			if av.Median != l.Capacity.Median {
				t.Fatalf("degraded availability %v != capacity %v", av, l.Capacity)
			}
			if av.Accuracy > 0.1+1e-9 {
				t.Fatalf("degraded answer claims accuracy %v", av.Accuracy)
			}
		}
	}
}

// TestCancelledContextShortCircuits: a dead context stops a query
// against a healthy in-process source before any work happens.
func TestCancelledContextShortCircuits(t *testing.T) {
	r := testbedRig(t)
	r.clk.RunUntil(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.mod.GetGraphCtx(ctx, nil, TFHistory(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := r.mod.AvailableBandwidthCtx(ctx, "m-1", "m-5", TFHistory(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
