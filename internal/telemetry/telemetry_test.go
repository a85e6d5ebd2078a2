package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: a nil registry hands out nil instruments whose every
// method is a no-op — the whole "disabled telemetry" contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(3)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %v", got)
	}
	r.Quantile("q", 8).Observe(1)
	if got := r.Quantile("q", 8).Count(); got != 0 {
		t.Errorf("nil quantile count = %d", got)
	}
	if st := r.Quantile("q", 8).Summary(); st.Valid() {
		t.Errorf("nil quantile summary valid: %+v", st)
	}
	sp := r.StartSpan("t", "n")
	sp.SetAttr("k", "v")
	sp.Finish()
	sp.Finish() // idempotent on nil too
	if got := r.Spans(); got != nil {
		t.Errorf("nil registry spans = %v", got)
	}
	if s, f := r.SpanCounts(); s != 0 || f != 0 {
		t.Errorf("nil registry span counts = %d/%d", s, f)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot non-empty: %+v", snap)
	}
}

// TestQuantileWraparound: the ring must summarize exactly the most
// recent window observations once it wraps.
func TestQuantileWraparound(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("w", 4)
	for i := 1; i <= 10; i++ { // window of 4 ends holding 7, 8, 9, 10
		q.Observe(float64(i))
	}
	snap := q.snapshot()
	if snap.Count != 10 || snap.Window != 4 {
		t.Fatalf("count/window = %d/%d, want 10/4", snap.Count, snap.Window)
	}
	st := snap.Stat
	if st.Min != 7 || st.Max != 10 {
		t.Errorf("window summary min/max = %v/%v, want 7/10", st.Min, st.Max)
	}
	if !(st.Min <= st.Q1 && st.Q1 <= st.Median && st.Median <= st.Q3 && st.Q3 <= st.Max) {
		t.Errorf("quartiles out of order: %+v", st)
	}

	// Partial window: summary covers only what has been observed.
	p := r.Quantile("p", 8)
	p.Observe(5)
	p.Observe(3)
	snap = p.snapshot()
	if snap.Window != 2 || snap.Stat.Min != 3 || snap.Stat.Max != 5 {
		t.Errorf("partial window snapshot = %+v", snap)
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// writers while readers snapshot — meaningful under -race, and checks
// final counts for lost updates.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("c").Inc()
				r.Counter(fmt.Sprintf("c%d", w%3)).Inc() // contended get-or-create
				r.Gauge("g").Set(float64(i))
				r.Quantile("q", 64).Observe(float64(i))
				sp := r.StartSpan(fmt.Sprintf("t-%d-%d", w, i), "work")
				sp.SetAttr("round", fmt.Sprint(i))
				sp.Finish()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot()
			if snap.Counters["c"] > writers*rounds {
				t.Errorf("counter overshoot: %d", snap.Counters["c"])
				return
			}
			for _, rec := range snap.Spans {
				if rec.Name != "work" {
					t.Errorf("corrupt span record: %+v", rec)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("c").Value(); got != writers*rounds {
		t.Errorf("lost counter updates: %d, want %d", got, writers*rounds)
	}
	if got := r.Quantile("q", 64).Count(); got != writers*rounds {
		t.Errorf("lost quantile updates: %d, want %d", got, writers*rounds)
	}
	started, finished := r.SpanCounts()
	if started != finished || started != writers*rounds {
		t.Errorf("span counts %d/%d, want %d/%d", started, finished, writers*rounds, writers*rounds)
	}
}

// TestSpanLogRing: the span log retains the most recent DefaultSpanLog
// records, oldest first, and SpansFor filters by trace.
func TestSpanLogRing(t *testing.T) {
	r := NewRegistry()
	total := DefaultSpanLog + 10
	for i := 0; i < total; i++ {
		sp := r.StartSpan(fmt.Sprintf("trace-%d", i), "op")
		sp.Finish()
	}
	recs := r.Spans()
	if len(recs) != DefaultSpanLog {
		t.Fatalf("retained %d spans, want %d", len(recs), DefaultSpanLog)
	}
	if recs[0].Trace != "trace-10" || recs[len(recs)-1].Trace != fmt.Sprintf("trace-%d", total-1) {
		t.Errorf("ring order wrong: first %q last %q", recs[0].Trace, recs[len(recs)-1].Trace)
	}
	if got := r.SpansFor("trace-42"); len(got) != 1 || got[0].Trace != "trace-42" {
		t.Errorf("SpansFor = %+v", got)
	}
	if got := r.SpansFor("trace-0"); len(got) != 0 { // evicted
		t.Errorf("evicted trace still present: %+v", got)
	}
}

// TestSpanFinishIdempotent: double Finish records the span once.
func TestSpanFinishIdempotent(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("t", "op")
	sp.Finish()
	sp.Finish()
	sp.SetAttr("late", "ignored")
	if got := len(r.Spans()); got != 1 {
		t.Fatalf("span recorded %d times", got)
	}
	if _, finished := r.SpanCounts(); finished != 1 {
		t.Errorf("finished count = %d", finished)
	}
	if attrs := r.Spans()[0].Attrs; attrs["late"] != "" {
		t.Errorf("attr set after finish leaked: %v", attrs)
	}
}

// TestTraceContext: the context plumbing honors existing IDs and mints
// unique fresh ones.
func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceFrom(ctx); got != "" {
		t.Errorf("empty ctx trace = %q", got)
	}
	ctx2, id := EnsureTrace(ctx)
	if id == "" || TraceFrom(ctx2) != id {
		t.Errorf("EnsureTrace minted %q, ctx carries %q", id, TraceFrom(ctx2))
	}
	ctx3, id3 := EnsureTrace(ctx2)
	if id3 != id || ctx3 != ctx2 {
		t.Errorf("EnsureTrace re-minted over existing trace: %q -> %q", id, id3)
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Errorf("duplicate trace IDs: %q", a)
	}
	if got := TraceFrom(WithTrace(ctx, "custom")); got != "custom" {
		t.Errorf("WithTrace round trip = %q", got)
	}
}

// TestMergeSnapshots: counters sum, later gauges win, the
// more-populated quantile wins, spans concatenate.
func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(3)
	a.Gauge("g").Set(1)
	a.Quantile("q", 8).Observe(1)
	a.StartSpan("ta", "opa").Finish()

	b := NewRegistry()
	b.Counter("c").Add(4)
	b.Counter("only-b").Inc()
	b.Gauge("g").Set(2)
	qb := b.Quantile("q", 8)
	qb.Observe(5)
	qb.Observe(6)
	b.StartSpan("tb", "opb").Finish()

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if m.Counters["c"] != 7 || m.Counters["only-b"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 2 {
		t.Errorf("merged gauge = %v", m.Gauges["g"])
	}
	if m.Quantiles["q"].Count != 2 || m.Quantiles["q"].Stat.Min != 5 {
		t.Errorf("merged quantile = %+v", m.Quantiles["q"])
	}
	if len(m.Spans) != 2 || m.SpansStarted != 2 || m.SpansFinished != 2 {
		t.Errorf("merged spans = %d (%d/%d)", len(m.Spans), m.SpansStarted, m.SpansFinished)
	}
	names := m.CounterNames()
	if len(names) != 2 || names[0] != "c" || names[1] != "only-b" {
		t.Errorf("CounterNames = %v", names)
	}
}

// TestDebugMux: /metrics serves the merged registries as JSON and
// /healthz answers.
func TestDebugMux(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("server.requests").Add(2)
	r2 := NewRegistry()
	r2.Counter("collector.polls").Add(9)
	r2.Quantile("collector.poll.wall_ms", 8).Observe(1.5)

	srv := httptest.NewServer(DebugMux(r1, r2))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] != 2 || snap.Counters["collector.polls"] != 9 {
		t.Errorf("metrics endpoint counters = %v", snap.Counters)
	}
	if snap.Quantiles["collector.poll.wall_ms"].Count != 1 {
		t.Errorf("metrics endpoint quantiles = %v", snap.Quantiles)
	}

	hz, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != 200 {
		t.Errorf("healthz status = %d", hz.StatusCode)
	}
}

// TestQuantilePercentiles: the percentile reader interpolates linearly
// over one consistent window snapshot, clamps at the extremes, and
// NaN-fills before the first observation.
func TestQuantilePercentiles(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("lat", 16)

	for _, v := range q.Percentiles(50, 99) {
		if !math.IsNaN(v) {
			t.Fatalf("empty window percentile = %v, want NaN", v)
		}
	}
	var nilQ *Quantile
	if !math.IsNaN(nilQ.Percentile(50)) {
		t.Fatal("nil quantile percentile must be NaN")
	}

	// 1..10 observed out of order: percentiles see the sorted window.
	for _, v := range []float64{7, 2, 9, 4, 1, 10, 3, 6, 8, 5} {
		q.Observe(v)
	}
	got := q.Percentiles(0, 25, 50, 90, 100)
	want := []float64{1, 3.25, 5.5, 9.1, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("percentiles(0,25,50,90,100) = %v, want %v", got, want)
		}
	}
	if p := q.Percentile(-5); p != 1 {
		t.Fatalf("percentile below 0 = %v, want min", p)
	}
	if p := q.Percentile(200); p != 10 {
		t.Fatalf("percentile above 100 = %v, want max", p)
	}

	// Wraparound: 16 more observations fully replace a 16-slot ring.
	for i := 11; i <= 26; i++ {
		q.Observe(float64(i))
	}
	if p := q.Percentile(0); p != 11 {
		t.Fatalf("post-wrap min = %v, want 11 (window keeps the last 16)", p)
	}
	if p := q.Percentile(100); p != 26 {
		t.Fatalf("post-wrap max = %v, want 26", p)
	}
}

// TestRecordSpan: a caller-timed span lands in the log as recorded and
// counts as started and finished; a nil registry drops it.
func TestRecordSpan(t *testing.T) {
	r := NewRegistry()
	start := time.Unix(100, 0)
	r.RecordSpan(SpanRecord{Trace: "t", Name: "op", Start: start, Duration: 3 * time.Millisecond})
	recs := r.Spans()
	if len(recs) != 1 || recs[0].Name != "op" || !recs[0].Start.Equal(start) || recs[0].Duration != 3*time.Millisecond {
		t.Fatalf("recorded spans = %+v", recs)
	}
	if s, f := r.SpanCounts(); s != 1 || f != 1 {
		t.Errorf("span counts %d/%d, want 1/1", s, f)
	}
	var nilReg *Registry
	nilReg.RecordSpan(SpanRecord{Trace: "t", Name: "op"})
}
