package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// span is one timed call into a layer. Op ties the spans of one
// benchmark op together; Parent is the span that caused this one (0 for
// a root). Op and Parent are 0 on spans the benchmark could not
// attribute: Server.handle calls the scalar Source methods without a
// context, so a server-side span of a scalar op cannot know its op.
type span struct {
	Op      uint64 `json:"op_id"`
	ID      uint64 `json:"span_id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans into a preallocated slice. Recording is switched
// on and off during the traced phase (alternating slices) so one run
// yields the traced and the untraced latency of the same fixture.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// enabled is nil-safe so untraced fixtures pass a nil tracer around.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

type spanRef struct{ op, id uint64 }

type spanKey struct{}

func noSpan() {}

// begin opens a span under the span carried by ctx (or under the trace
// ID a server handed the benchmark's handler wrapper) and returns a
// context carrying the new span and the function that ends it. With
// recording off it returns ctx and a no-op.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if !t.enabled() {
		return ctx, noSpan
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	if parent.id == 0 {
		parent = refFromTraceID(telemetry.TraceFrom(ctx))
	}
	ref := spanRef{op: parent.op, id: t.ids.Add(1)}
	start := time.Since(t.epoch)
	return context.WithValue(ctx, spanKey{}, ref), func() {
		t.record(span{Op: ref.op, ID: ref.id, Parent: parent.id, Name: name,
			StartNS: int64(start), EndNS: int64(time.Since(t.epoch))})
	}
}

// beginOp opens the root span of benchmark op number op. The context it
// returns also carries the span as a telemetry trace ID, which is the
// only thing the wire forwards to the serving side.
func (t *tracer) beginOp(ctx context.Context, op uint64, name string) (context.Context, func()) {
	if !t.enabled() {
		return ctx, noSpan
	}
	ref := spanRef{op: op, id: t.ids.Add(1)}
	ctx = context.WithValue(ctx, spanKey{}, ref)
	ctx = telemetry.WithTrace(ctx, fmt.Sprintf("bench-%d-%d", ref.op, ref.id))
	start := time.Since(t.epoch)
	return ctx, func() {
		t.record(span{Op: op, ID: ref.id, Name: name,
			StartNS: int64(start), EndNS: int64(time.Since(t.epoch))})
	}
}

// interval records a span whose ends were timestamped elsewhere (watch
// receivers timestamp arrivals; the driver turns them into spans).
func (t *tracer) interval(op, parent uint64, name string, start, end time.Time) {
	if !t.enabled() {
		return
	}
	t.record(span{Op: op, ID: t.ids.Add(1), Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))})
}

func (t *tracer) record(s span) {
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

func refFromTraceID(id string) spanRef {
	var r spanRef
	if _, err := fmt.Sscanf(id, "bench-%d-%d", &r.op, &r.id); err != nil {
		return spanRef{}
	}
	return r
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover (children of parallel calls may overlap, so the
// cover is a union of intervals).
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerRow is one line of the traced run's per-span-name table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50US   float64 `json:"p50_us"`
	SelfP50 float64 `json:"self_p50_us"`
}

func summarizeSpans(spans []span, self []int64) []layerRow {
	dur := map[string][]float64{}
	slf := map[string][]float64{}
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.EndNS-s.StartNS)/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[i])/1e3)
	}
	rows := make([]layerRow, 0, len(dur))
	for name, d := range dur {
		rows = append(rows, layerRow{Name: name, Count: len(d), P50US: median(d), SelfP50: median(slf[name])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

func writeSpans(path string, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recordingSource is the benchmark's span recorder at a collector.Source
// boundary. It forwards Source, ContextSource, VersionedSource and
// MatrixSource and nothing else: losing DataVersion would switch the
// Modeler's memo off and measure a different program, while the other
// optional capabilities (health, watch, feed, telemetry) are not on the
// path of any workload that is decorated.
type recordingSource struct {
	inner  collector.Source
	prefix string // "source." on the client side, "collector." on the serving side
	tr     *tracer
	calls  atomic.Uint64
}

var (
	_ collector.Source          = (*recordingSource)(nil)
	_ collector.ContextSource   = (*recordingSource)(nil)
	_ collector.VersionedSource = (*recordingSource)(nil)
	_ collector.MatrixSource    = (*recordingSource)(nil)
)

func (r *recordingSource) span(ctx context.Context, method string) (context.Context, func()) {
	r.calls.Add(1)
	if !r.tr.enabled() {
		return ctx, noSpan // before the name is built: this is the untraced slices' path
	}
	return r.tr.begin(ctx, r.prefix+method)
}

func (r *recordingSource) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	ctx, end := r.span(ctx, "Topology")
	defer end()
	return collector.CtxTopology(ctx, r.inner)
}

func (r *recordingSource) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	ctx, end := r.span(ctx, "Utilization")
	defer end()
	return collector.CtxUtilization(ctx, r.inner, key, span)
}

func (r *recordingSource) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	ctx, end := r.span(ctx, "Samples")
	defer end()
	return collector.CtxSamples(ctx, r.inner, key)
}

func (r *recordingSource) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	ctx, end := r.span(ctx, "HostLoad")
	defer end()
	return collector.CtxHostLoad(ctx, r.inner, node, span)
}

func (r *recordingSource) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	ctx, end := r.span(ctx, "DataAge")
	defer end()
	return collector.CtxDataAge(ctx, r.inner, key)
}

func (r *recordingSource) Topology() (*collector.Topology, error) {
	return r.TopologyCtx(context.Background())
}

func (r *recordingSource) Utilization(key collector.ChannelKey, span float64) (stats.Stat, error) {
	return r.UtilizationCtx(context.Background(), key, span)
}

func (r *recordingSource) Samples(key collector.ChannelKey) ([]stats.Sample, error) {
	return r.SamplesCtx(context.Background(), key)
}

func (r *recordingSource) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	return r.HostLoadCtx(context.Background(), node, span)
}

func (r *recordingSource) DataAge(key collector.ChannelKey) (float64, error) {
	return r.DataAgeCtx(context.Background(), key)
}

// DataVersion forwards the inner version; a source without one reports
// ok=false, which is what the Modeler sees for it undecorated.
func (r *recordingSource) DataVersion() (uint64, bool) {
	if vs, ok := r.inner.(collector.VersionedSource); ok {
		return vs.DataVersion()
	}
	return 0, false
}

// MatrixQuery forwards to a native matrix source; without one it answers
// ErrMatrixUnsupported, on which the Modeler computes locally exactly as
// it does for a source that lacks the method.
func (r *recordingSource) MatrixQuery(ctx context.Context, req *collector.MatrixRequest) (*collector.MatrixAnswer, error) {
	ms, ok := r.inner.(collector.MatrixSource)
	if !ok {
		return nil, collector.ErrMatrixUnsupported
	}
	ctx, end := r.span(ctx, "MatrixQuery")
	defer end()
	return ms.MatrixQuery(ctx, req)
}
