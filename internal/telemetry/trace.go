package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A trace ID is minted once at the remos API edge
// (core.Modeler's Ctx entry points), rides the context through the
// Modeler and the collector client, crosses the wire in the request
// frame next to BudgetMS, and is stamped into span records on both
// sides. Matching the client's span to the server's by trace ID turns
// "this query was slow" into "this query waited 40 ms in replica B's
// admission queue".
//
// IDs are not cryptographic: a random per-process prefix plus an
// atomic counter is collision-free within a process and
// collision-unlikely across the handful of processes one deployment
// runs, which is all log correlation needs.

// DefaultSpanLog is the per-registry cap on retained finished spans.
const DefaultSpanLog = 256

var (
	tracePrefix = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degraded uniqueness (time-based) beats failing to start.
			return uint64(time.Now().UnixNano())
		}
		return binary.BigEndian.Uint64(b[:])
	}()
	traceCounter atomic.Uint64
)

// NewTraceID mints a process-unique trace ID.
func NewTraceID() string {
	return fmt.Sprintf("%08x-%06x", uint32(tracePrefix), traceCounter.Add(1))
}

type traceKey struct{}

// WithTrace returns ctx carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom extracts the trace ID from ctx ("" when none is set).
func TraceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// EnsureTrace returns ctx guaranteed to carry a trace ID, minting one
// when absent, plus the ID either way. The remos API edge calls this so
// a caller-supplied trace (WithTrace) is honored and an undecorated
// call still becomes traceable.
func EnsureTrace(ctx context.Context) (context.Context, string) {
	if id := TraceFrom(ctx); id != "" {
		return ctx, id
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}

// SpanRecord is one finished span: what happened to one request at one
// layer. Attrs carries the layer-specific details (queue wait,
// admission verdict, replica tried, error class) as strings so the
// record crosses the wire and JSON without a schema per layer.
type SpanRecord struct {
	Trace    string
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]string
}

// Span is an in-progress span. Obtain one from Registry.StartSpan;
// Finish is mandatory (and idempotent) — the chaos suite asserts every
// started span is finished.
type Span struct {
	reg *Registry

	mu   sync.Mutex
	rec  SpanRecord
	done bool
}

// StartSpan begins a span for the given trace. A nil registry returns a
// nil (no-op) span, so disabled telemetry costs nothing at call sites.
func (r *Registry) StartSpan(trace, name string) *Span {
	if r == nil {
		return nil
	}
	r.spansStarted.Add(1)
	return &Span{reg: r, rec: SpanRecord{Trace: trace, Name: name, Start: time.Now()}}
}

// SetAttr attaches one key/value detail. No-op on a nil or finished
// span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		if s.rec.Attrs == nil {
			s.rec.Attrs = make(map[string]string, 4)
		}
		s.rec.Attrs[key] = value
	}
	s.mu.Unlock()
}

// Finish stamps the duration and commits the record to the registry's
// span log. Safe to call more than once (later calls are no-ops) and on
// a nil span.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.rec.Duration = time.Since(s.rec.Start)
	rec := s.rec
	s.mu.Unlock()
	s.reg.spansFinished.Add(1)
	s.reg.spans.add(rec)
}

// RecordSpan commits a span the caller timed itself: it counts as both
// started and finished, and no *Span is allocated. Hot paths that
// already hold the start time and duration use it instead of
// StartSpan/Finish. No-op on a nil registry.
func (r *Registry) RecordSpan(rec SpanRecord) {
	if r == nil {
		return
	}
	r.spansStarted.Add(1)
	r.spansFinished.Add(1)
	r.spans.add(rec)
}

// Spans returns the retained finished spans, oldest first (nil on a nil
// registry).
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.spans.records()
}

// SpansFor returns the retained finished spans carrying the given trace
// ID, oldest first.
func (r *Registry) SpansFor(trace string) []SpanRecord {
	var out []SpanRecord
	for _, rec := range r.Spans() {
		if rec.Trace == trace {
			out = append(out, rec)
		}
	}
	return out
}

// SpanCounts returns (started, finished) span totals.
func (r *Registry) SpanCounts() (started, finished uint64) {
	if r == nil {
		return 0, 0
	}
	return r.spansStarted.Load(), r.spansFinished.Load()
}

// spanLog is a bounded ring of finished spans.
type spanLog struct {
	mu    sync.Mutex
	limit int
	buf   []SpanRecord
	next  int
	full  bool
}

func (l *spanLog) add(rec SpanRecord) {
	l.mu.Lock()
	if l.buf == nil {
		limit := l.limit
		if limit <= 0 {
			limit = DefaultSpanLog
		}
		l.buf = make([]SpanRecord, limit)
	}
	l.buf[l.next] = rec
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

func (l *spanLog) records() []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf == nil {
		return nil
	}
	n := len(l.buf)
	if !l.full {
		n = l.next
	}
	out := make([]SpanRecord, n)
	if l.full {
		copy(out, l.buf[l.next:])
		copy(out[len(l.buf)-l.next:], l.buf[:l.next])
	} else {
		copy(out, l.buf[:l.next])
	}
	return out
}
