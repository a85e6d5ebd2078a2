package collector

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// TestShedCountMatchesTelemetry pins the accounting exactly: with one
// work unit, no queue, and the only slot held by a blocked request,
// every further arrival is shed — and the client-observed ErrLoadShed
// count, the gate's Shed counter, and the server.admission.shed
// telemetry counter must all agree to the unit.
func TestShedCountMatchesTelemetry(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{
		MaxInflight:   1,
		QueueDepth:    0,
		DefaultBudget: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	blocker, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	blocked := make(chan error, 1)
	go func() {
		_, err := blocker.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
		blocked <- err
	}()
	<-entered // the handler holds the gate's only work unit

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const attempts = 7
	clientShed := 0
	for i := 0; i < attempts; i++ {
		_, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
		if !errors.Is(err, ErrLoadShed) {
			t.Fatalf("attempt %d: got %v, want ErrLoadShed", i, err)
		}
		clientShed++
	}
	release()
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request should have succeeded: %v", err)
	}

	if st := srv.GateStats(); st.Shed != attempts {
		t.Errorf("gate shed = %d, want %d", st.Shed, attempts)
	}
	if got := srv.Telemetry().Counter("server.admission.shed").Value(); got != attempts {
		t.Errorf("server.admission.shed = %d, want %d", got, attempts)
	}
	if got := srv.Telemetry().Counter("server.admission.admitted").Value(); got != 1 {
		t.Errorf("server.admission.admitted = %d, want 1 (the blocked request)", got)
	}

	// Every shed request still gets a span, with the shed verdict.
	verdicts := 0
	for _, sp := range srv.Telemetry().Spans() {
		if sp.Name == "rpc.read" && sp.Attrs["verdict"] == "shed" {
			verdicts++
		}
	}
	if verdicts != attempts {
		t.Errorf("spans with verdict=shed = %d, want %d", verdicts, attempts)
	}

	// After the server drains, no span may be left open.
	srv.Close()
	started, finished := srv.Telemetry().SpanCounts()
	if started != finished {
		t.Errorf("span leak after Close: started %d finished %d", started, finished)
	}
}

// TestClientTelemetryAndStatsOp: a client-side registry records call
// latencies, the stats op merges server and source registries, and the
// wire carries the caller's trace ID into the server's span log.
func TestClientTelemetryAndStatsOp(t *testing.T) {
	srv, err := ServeConfig(&fakeSource{}, "127.0.0.1:0", ServerConfig{
		MaxInflight: 4,
		QueueDepth:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	cli, err := DialConfig(srv.Addr(), ClientConfig{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	trace := telemetry.NewTraceID()
	ctx := telemetry.WithTrace(context.Background(), trace)
	if _, err := cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 5); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("client.calls").Value(); got != 1 {
		t.Errorf("client.calls = %d, want 1", got)
	}
	if q := reg.Quantile("client.call_ms", 0); q.Count() != 1 {
		t.Errorf("client.call_ms count = %d, want 1", q.Count())
	}

	// The trace ID crossed the wire: the server's span log has it.
	recs := srv.Telemetry().SpansFor(trace)
	if len(recs) != 1 || recs[0].Name != "rpc.read" {
		t.Fatalf("server spans for trace %q = %+v", trace, recs)
	}
	if recs[0].Attrs["verdict"] != "admitted" {
		t.Errorf("span verdict = %q, want admitted", recs[0].Attrs["verdict"])
	}

	// The stats op returns a merged snapshot covering the server's own
	// counters and admission gauges.
	snap, err := cli.TelemetrySnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.op.read"] != 1 {
		t.Errorf("snapshot server.op.read = %d, want 1", snap.Counters["server.op.read"])
	}
	if _, ok := snap.Gauges["server.admission.in_use"]; !ok {
		t.Errorf("snapshot missing server.admission.in_use gauge: %v", snap.Gauges)
	}
}

// TestMsAttrMatchesPrintf: the span attributes keep the text "%.3f"
// of the milliseconds gave them.
func TestMsAttrMatchesPrintf(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 499, 501, 999, 1000, 1499, 12345678, 1999999600, 7 * time.Hour, -5} {
		want := fmt.Sprintf("%.3f", float64(max(d, 0))/float64(time.Millisecond))
		if got := msAttr(d); got != want {
			t.Errorf("msAttr(%d ns) = %q, want %q", d, got, want)
		}
	}
}

// ctxSpy is a Source that records what each serving-side call
// was handed.
type ctxSpy struct {
	fakeSource
	mu       sync.Mutex
	traces   []string
	deadline []bool
}

func (s *ctxSpy) saw(ctx context.Context) {
	_, has := ctx.Deadline()
	s.mu.Lock()
	s.traces = append(s.traces, telemetry.TraceFrom(ctx))
	s.deadline = append(s.deadline, has)
	s.mu.Unlock()
}

func (s *ctxSpy) TopologyCtx(ctx context.Context) (*Topology, error) {
	s.saw(ctx)
	return s.fakeSource.TopologyCtx(ctx)
}
func (s *ctxSpy) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	s.saw(ctx)
	return s.fakeSource.UtilizationCtx(ctx, key, span)
}
func (s *ctxSpy) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	s.saw(ctx)
	return s.fakeSource.SamplesCtx(ctx, key)
}
func (s *ctxSpy) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	s.saw(ctx)
	return s.fakeSource.HostLoadCtx(ctx, node, span)
}
func (s *ctxSpy) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) {
	s.saw(ctx)
	return s.fakeSource.DataAgeCtx(ctx, key)
}

// TestScalarOpsCarryTraceAndDeadlineToSource: every scalar query of a
// dialed handle — topology, and the one-entry reads behind its
// measurement methods — reaches the serving Source with the caller's
// trace ID and, when the request has a budget, its deadline — and with a
// bare context when it has neither.
func TestScalarOpsCarryTraceAndDeadlineToSource(t *testing.T) {
	spy := &ctxSpy{}
	srv, err := ServeConfig(spy, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	scalarOps := func(ctx context.Context) {
		t.Helper()
		_, err1 := cli.TopologyCtx(ctx)
		_, err2 := cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 10)
		_, err3 := cli.SamplesCtx(ctx, ChannelKey{Global: 1})
		_, err4 := cli.HostLoadCtx(ctx, "a", 10)
		_, err5 := cli.DataAgeCtx(ctx, ChannelKey{Global: 1})
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			t.Fatal(err)
		}
	}
	scalarOps(context.Background())
	traced, cancel := context.WithTimeout(telemetry.WithTrace(context.Background(), "trace-7"), 5*time.Second)
	defer cancel()
	scalarOps(traced)

	spy.mu.Lock()
	defer spy.mu.Unlock()
	// Six source calls per round: a window read asks for the samples and
	// for their age.
	const calls = 6
	if len(spy.traces) != 2*calls {
		t.Fatalf("source saw %d context calls, want %d", len(spy.traces), 2*calls)
	}
	for i := 0; i < calls; i++ {
		if spy.traces[i] != "" || spy.deadline[i] {
			t.Errorf("call %d, bare request: source saw trace %q, deadline %v", i, spy.traces[i], spy.deadline[i])
		}
		if spy.traces[calls+i] != "trace-7" || !spy.deadline[calls+i] {
			t.Errorf("call %d, traced and budgeted: source saw trace %q, deadline %v", i, spy.traces[calls+i], spy.deadline[calls+i])
		}
	}
}
