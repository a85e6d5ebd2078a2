package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/graph"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the
// catalogue the program reports from in step.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
}

// TestSmoke runs every workload for half a second, untraced and traced,
// with every op oracle-checked, and asserts the output contract: every
// named metric once, finite, with its unit; no failed op; no admission
// refusal; no overflowed update; and wire-point never reaching core.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, options{seed: 1, seconds: 1, trace: trace, smoke: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if res.Checks+res.Skipped != res.Attempted {
				t.Errorf("%s trace=%v: %d checks + %d skipped of %d ops; smoke checks every op",
					w.name, trace, res.Checks, res.Skipped, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d named", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.name, trace, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			for _, name := range []string{"admission.shed", "admission.timed_out", "watch.overflowed"} {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0", w.name, name, v)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: span file: %v", w.name, err)
			}
		}
	}
}

// TestWirePointBypassesCore is the bypass prediction: a scalar op over
// the wire must make no call into core. The Modeler serving the
// endpoint's matrix op is the only core in that process, so its query
// quantiles must stay empty.
func TestWirePointBypassesCore(t *testing.T) {
	w := workloadByName("wire-point")
	tr := newTracer(1 << 12)
	fx, err := newFixture(w.fixture, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	s, err := w.connect(fx, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	buildSchedules(w, fx, s, 1)
	for _, c := range s.clients {
		for i := 0; i < 100; i++ {
			if _, err := c.do(context.Background(), &c.ops[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fx.served.calls.Load() != 200 {
		t.Errorf("serving-side recorder saw %d Source calls for 200 ops", fx.served.calls.Load())
	}
	for name, q := range fx.serving.Telemetry().Snapshot().Quantiles {
		if q.Count != 0 {
			t.Errorf("serving Modeler recorded %d samples in %s; wire-point must not reach core", q.Count, name)
		}
	}
}

// TestScheduleDeterminism: the same seed gives a byte-identical schedule
// and another seed another one.
func TestScheduleDeterminism(t *testing.T) {
	for _, kind := range []string{fig3, hier300} {
		fx, err := newFixture(kind, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			if w.fixture != kind {
				continue
			}
			sha := func(seed int64) string {
				s := &session{clients: []*client{{}, {}}}
				return buildSchedules(w, fx, s, seed)
			}
			a, b, c := sha(1), sha(1), sha(2)
			if a != b {
				t.Errorf("%s: seed 1 gave schedules %s and %s", w.name, a, b)
			}
			if a == c {
				t.Errorf("%s: seeds 1 and 2 gave the same schedule %s", w.name, a)
			}
		}
		fx.close()
	}
}

// TestRecordingSourceCapabilities: the decorator offers exactly the four
// capabilities the Modeler and the matrix path consult and hides the
// rest, and a source without a version still reads as unversioned.
func TestRecordingSourceCapabilities(t *testing.T) {
	fx, err := newFixture(fig3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	var rec any = &recordingSource{inner: fx.tb.Collector, prefix: "collector."}
	if _, ok := rec.(collector.Source); !ok {
		t.Error("not a Source")
	}
	if _, ok := rec.(collector.ContextSource); !ok {
		t.Error("not a ContextSource")
	}
	if _, ok := rec.(collector.MatrixSource); !ok {
		t.Error("not a MatrixSource")
	}
	if v, ok := rec.(collector.VersionedSource).DataVersion(); !ok || v != fx.version() {
		t.Errorf("DataVersion = %d, %v; the collector's is %d", v, ok, fx.version())
	}
	hidden := map[string]bool{}
	_, hidden["HealthSource"] = rec.(collector.HealthSource)
	_, hidden["WatchSource"] = rec.(collector.WatchSource)
	_, hidden["FeedSource"] = rec.(collector.FeedSource)
	_, hidden["VersionNotifier"] = rec.(collector.VersionNotifier)
	_, hidden["TelemetrySource"] = rec.(collector.TelemetrySource)
	_, hidden["HAStatusSource"] = rec.(collector.HAStatusSource)
	_, hidden["RegionSummarySource"] = rec.(collector.RegionSummarySource)
	for name, offered := range hidden {
		if offered {
			t.Errorf("decorator offers %s", name)
		}
	}

	cl, err := collector.Dial(fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, ok := (&recordingSource{inner: cl}).DataVersion(); ok {
		t.Error("a dialed client has no data version; the decorator invented one")
	}
}

// TestRecordingSourceTransparent: 1,000 seeded calls through the
// decorator, with recording on, answer exactly what the bare source does.
func TestRecordingSourceTransparent(t *testing.T) {
	fx, err := newFixture(fig3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	tr := newTracer(1 << 11)
	tr.on.Store(true)
	col := fx.tb.Collector
	rec := &recordingSource{inner: col, prefix: "collector.", tr: tr}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		key := fx.keys[rng.Intn(len(fx.keys))]
		host := fx.hosts[rng.Intn(len(fx.hosts))]
		var got, want any
		var gotErr, wantErr error
		switch rng.Intn(5) {
		case 0:
			got, gotErr = rec.UtilizationCtx(ctx, key, querySpan)
			want, wantErr = col.UtilizationCtx(ctx, key, querySpan)
		case 1:
			got, gotErr = rec.HostLoad(host, querySpan)
			want, wantErr = col.HostLoad(host, querySpan)
		case 2:
			got, gotErr = rec.DataAgeCtx(ctx, key)
			want, wantErr = col.DataAgeCtx(ctx, key)
		case 3:
			got, gotErr = rec.Samples(key)
			want, wantErr = col.Samples(key)
		case 4:
			// An unknown host: errors pass through too.
			got, gotErr = rec.HostLoadCtx(ctx, graph.NodeID("no-such-host"), querySpan)
			want, wantErr = col.HostLoadCtx(ctx, graph.NodeID("no-such-host"), querySpan)
		}
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("call %d: decorator %v, %v; source %v, %v", i, got, gotErr, want, wantErr)
		}
	}
	if n := len(tr.recorded()); n != 1000 {
		t.Errorf("%d spans recorded for 1000 calls", n)
	}
	gt, err := rec.Topology()
	wt, _ := col.Topology()
	if err != nil || gt != wt {
		t.Errorf("Topology: decorator %p, %v; source %p", gt, err, wt)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50}, // overlaps span 2: cover is a union
		{ID: 4, Parent: 1, StartNS: 70, EndNS: 80},
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 45},
	}
	want := []int64{50, 20, 10, 10, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestCompareVerdicts pins the four verdicts and the failed-share rule.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := newSide([]float64{100, 101, 99, 100, 102})
	cases := []struct {
		name string
		b    []float64
		d    metricDef
		want string
	}{
		{"same", []float64{101, 100, 99, 102, 100}, lower, "unchanged"},
		{"slower", []float64{120, 121, 119, 122, 120}, lower, "regressed"},
		{"faster", []float64{80, 81, 79, 82, 80}, lower, "improved"},
		{"more throughput", []float64{120, 121, 119, 122, 120}, higher, "improved"},
		{"less throughput", []float64{80, 81, 79, 82, 80}, higher, "regressed"},
		{"noisy", []float64{70, 130, 95, 160, 100}, lower, "unresolved"},
		{"noisy but every run worse", []float64{150, 230, 195, 260, 300}, lower, "regressed"},
	}
	for _, c := range cases {
		if got := judge(steady, newSide(c.b), c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
