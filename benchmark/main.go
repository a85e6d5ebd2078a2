// Command benchmark is the Remos benchmark: four named workloads, six
// end-to-end metrics measured with tracing off, and a per-layer ladder
// measured in a separate traced run. See README.md for the catalogue.
//
//	go run -C benchmark . --workload wire-point --seed 1 --seconds 27 --trace 0
//	go run -C benchmark . -smoke                      # all four, 0.5 s each, every op oracle-checked
//	go run -C benchmark . -compare out/a out/b        # two sets of result files
//
// One process hosts the system under test and the generator; traffic
// crosses the host loopback, not a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

const loopbackNote = "system under test and generator share one process; traffic crosses the host loopback (127.0.0.1), not a real link"

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reconcileRow compares a workload's measured p50 with the sum of rungs
// predicted for it before the first measurement.
type reconcileRow struct {
	Workload    string  `json:"workload"`
	Rule        string  `json:"rule"`
	MeasuredUS  float64 `json:"measured_p50_us"`
	PredictedUS float64 `json:"predicted_us"`
	Residual    float64 `json:"residual_share"` // (measured - predicted) / measured
}

// result is one workload run: the document written to out/ and the
// source of the contract line on stdout.
type result struct {
	Workload   string           `json:"workload"`
	Why        string           `json:"why"`
	Trace      bool             `json:"trace"`
	Smoke      bool             `json:"smoke"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Note       string           `json:"note"`
	Schedule   string           `json:"schedule_sha256"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Samples    int              `json:"latency_samples"`
	Checks     int              `json:"checks"`
	Skipped    int              `json:"checks_skipped"`
	Metrics    map[string]value `json:"metrics"`
	Extra      map[string]value `json:"extra"` // printed beside the metrics, not part of the contract
	// SliceOpsPerS is the throughput of each 1 s slice of the measured
	// phase, in order: how steady the machine was during the run.
	SliceOpsPerS []float64     `json:"slice_ops_per_s,omitempty"`
	Layers       []layerRow    `json:"span_layers,omitempty"`
	Reconcile    *reconcileRow `json:"reconcile,omitempty"`
	Problems     []string      `json:"problems,omitempty"`
}

func main() {
	var o options
	var name string
	var trace int
	var compare bool
	flag.StringVar(&name, "workload", "", "workload to run (wire-point, app-flow, wire-matrix, epoch-fanout); empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op schedule")
	flag.Float64Var(&o.seconds, "seconds", 27, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans recorded")
	flag.BoolVar(&o.smoke, "smoke", false, "half a second per workload with every op oracle-checked")
	flag.StringVar(&o.outDir, "out", "out", "directory for result and span files")
	flag.BoolVar(&compare, "compare", false, "compare two sets of result files: -compare A B (each a file or a directory)")
	flag.Parse()
	o.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files or directories"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		run = []*workload{w}
	}
	allCorrect := true
	for _, w := range run {
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := writeResult(o.outDir, res); err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload sets the workload up (several times, for a steady
// setup_s), warms it, measures it and reports.
func runWorkload(w *workload, o options) (*result, error) {
	res := &result{
		Workload: w.name, Why: w.why, Trace: o.trace, Smoke: o.smoke, Seed: o.seed, Seconds: o.seconds,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: loopbackNote, Metrics: map[string]value{}, Extra: map[string]value{},
	}
	warm, measured, slice, checkEvery, rung := time.Second, time.Duration(o.seconds*float64(time.Second)), time.Second, 64, 120*time.Millisecond
	setups := 5
	if w.fixture == hier300 {
		setups = 3
	}
	if o.smoke {
		warm, measured, slice, checkEvery, rung, setups = 100*time.Millisecond, 500*time.Millisecond, 50*time.Millisecond, 1, 10*time.Millisecond, 1
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(int(measured.Seconds()*20000) + 1<<16)
	}

	// Set-up, repeated so setup_s is a median; the last one is kept.
	var fx *fixture
	var s *session
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = newFixture(w.fixture, tr, w.decorate); err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
		if s, err = w.connect(fx, tr); err != nil {
			fx.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	closeAll := sync.OnceFunc(func() {
		s.close()
		fx.close()
	})
	defer closeAll()
	res.Schedule = buildSchedules(w, fx, s, o.seed)

	runPhase(s.clients, warm, nil, checkEvery, slice)
	before := readResources()
	ph := runPhase(s.clients, measured, tr, checkEvery, slice)
	after := readResources()

	ops := len(ph.samples)
	lat := summarizeLatency(ph.latencies(false))
	latTraced := summarizeLatency(ph.latencies(true))
	cpu := after.cpu - before.cpu
	res.Attempted, res.Failed, res.Samples = ops, ph.failed, lat.n
	res.Checks, res.Skipped = ph.checks, ph.skipped
	res.Problems = append(res.Problems, ph.errs...)
	gate := fx.srv.GateStats()
	cpuUtil := cpu.Seconds() / (ph.wall.Seconds() * float64(runtime.NumCPU()))
	res.Extra["failed_share"] = value{float64(ph.failed) / float64(max(ops, 1)), "ratio"}
	res.Extra["latency_tail_pct"] = value{lat.tailPct, "%"}
	res.Extra["latency_ms_tail"] = value{lat.tailMS, "ms"}

	if !o.trace {
		var rate, p50, cpuPerOp []float64
		for _, sl := range ph.slices() {
			rate, p50, cpuPerOp = append(rate, sl.opsPerS), append(p50, sl.p50MS), append(cpuPerOp, sl.cpuMSPerOp)
		}
		res.SliceOpsPerS = rate
		// Release the generator's buffers so the heap reading is the
		// system's own state: connections, subscriptions, windows.
		ph.samples = nil
		for _, c := range s.clients {
			c.ops = nil
		}
		heap := liveHeapMB()
		runtime.KeepAlive(fx)
		runtime.KeepAlive(s)
		res.Metrics["setup_s"] = value{median(setupS), "s"}
		res.Metrics["ops_per_s"] = value{median(rate), "1/s"}
		res.Metrics["latency_ms_p50"] = value{median(p50), "ms"}
		res.Metrics["latency_ms_p99"] = value{lat.p99MS, "ms"}
		res.Metrics["cpu_ms_per_op"] = value{median(cpuPerOp), "ms"}
		res.Metrics["live_heap_mb"] = value{heap, "MiB"}
		res.Extra["process.cpu_util"] = value{cpuUtil, "ratio"}
		res.Extra["generator.idle_share"] = value{ph.idleShare(), "ratio"}
		res.Extra["whole_run.ops_per_s"] = value{float64(ops) / ph.wall.Seconds(), "1/s"}
		res.Extra["whole_run.latency_ms_p50"] = value{lat.p50MS, "ms"}
		res.Extra["whole_run.cpu_ms_per_op"] = value{cpu.Seconds() * 1e3 / float64(max(ops, 1)), "ms"}
	} else {
		m := map[string]float64{
			"admission.admitted":    float64(gate.Admitted),
			"admission.shed":        float64(gate.Shed),
			"admission.timed_out":   float64(gate.TimedOut),
			"admission.wait_ms_p99": fx.srv.Telemetry().Quantile("server.admission.wait_ms", 0).Percentile(99),
			"process.allocs_per_op": float64(after.mallocs-before.mallocs) / float64(max(ops, 1)),
			"process.bytes_per_op":  float64(after.bytes-before.bytes) / float64(max(ops, 1)),
			"process.gc_pause_ms":   float64(after.pause-before.pause) / 1e6,
			"process.cpu_util":      cpuUtil,
			"trace.overhead_share":  latTraced.p50MS/lat.p50MS - 1,
			"generator.idle_share":  ph.idleShare(),
			"checks_skipped":        float64(ph.skipped),
			"core.memo_hit_ratio":   memoHitRatio(fx, s),
		}
		spans := tr.recorded()
		self := selfTimes(spans)
		res.Layers = summarizeSpans(spans, self)
		m["core.source_calls_per_op"], m["core.self_us_per_op"] = coreSpanStats(spans, self)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".json"), spans, tr.dropped.Load()); err != nil {
			return nil, err
		}
		res.Extra["trace.spans"] = value{float64(len(spans)), "count"}
		res.Extra["trace.spans_dropped"] = value{float64(tr.dropped.Load()), "count"}

		// The ladder runs on its own idle fixtures, after this
		// workload's are gone.
		closeAll()
		rungs, err := ladder(rung)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range rungs {
			m[k] = v
		}
		if s.fan != nil {
			m["watch.overflowed"] += float64(s.fan.overflowed)
		}
		for _, d := range perLayer {
			v, ok := m[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // a quantile nothing was observed into reads NaN
			}
			res.Metrics[d.Name] = value{v, d.Unit}
		}
		rule := reconcileRules[w.name]
		pred := rule.predictUS(m)
		res.Reconcile = &reconcileRow{
			Workload: w.name, Rule: rule.text,
			MeasuredUS: lat.p50MS * 1e3, PredictedUS: pred, Residual: (lat.p50MS*1e3 - pred) / (lat.p50MS * 1e3),
		}
	}

	// What fails a run beyond a failed op.
	if gate.Shed != 0 || gate.TimedOut != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("admission refused work (shed %d, timed out %d): 2 closed-loop clients must never fill the gate", gate.Shed, gate.TimedOut))
	}
	if !o.smoke {
		if !o.trace && !lat.p99Supported() {
			res.Problems = append(res.Problems, fmt.Sprintf("%d samples are too few for p99; highest supported percentile is p%.2f = %.4f ms", lat.n, lat.tailPct, lat.tailMS))
		}
		if ph.idleShare() > 0.05 {
			res.Problems = append(res.Problems, fmt.Sprintf("generator.idle_share %.3f is above 0.05: the numbers measure the generator", ph.idleShare()))
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// memoHitRatio reads the availability-memo counters of the workload's
// Modelers: the application's own on app-flow, otherwise the one serving
// the endpoint's matrix op. Both carry a registry only in traced runs.
func memoHitRatio(fx *fixture, s *session) float64 {
	mods := s.modelers
	if len(mods) == 0 {
		mods = append(mods, fx.serving)
	}
	var hits, misses uint64
	for _, m := range mods {
		snap := m.Telemetry().Snapshot()
		hits += snap.Counters["modeler.avail_memo_hits"]
		misses += snap.Counters["modeler.avail_memo_misses"]
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// coreSpanStats reads the spans named core.*: how many Source calls each
// caused, and its median self time in us.
func coreSpanStats(spans []span, self []int64) (callsPerOp, selfUS float64) {
	isCore := map[uint64]bool{}
	var selfs []float64
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "core.") {
			isCore[s.ID] = true
			selfs = append(selfs, float64(self[i])/1e3)
		}
	}
	if len(selfs) == 0 {
		return 0, 0
	}
	calls := 0
	for _, s := range spans {
		if isCore[s.Parent] {
			calls++
		}
	}
	return float64(calls) / float64(len(selfs)), median(selfs)
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if res.Trace {
		kind = "trace"
	}
	name := fmt.Sprintf("result-%s-%s-%s.json", time.Now().UTC().Format("20060102T150405.000000000Z"), res.Workload, kind)
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}

// printResult writes the aligned table and, as the last line, the one
// JSON object of the benchmark contract.
func printResult(out io.Writer, res *result) {
	fmt.Fprintf(out, "\n== %s  seed=%d seconds=%g trace=%v smoke=%v  %s nproc=%d GOMAXPROCS=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Smoke, res.GoVersion, res.NumCPU, res.GOMAXPROCS)
	fmt.Fprintf(out, "   %s\n   schedule_sha256=%s\n", res.Note, res.Schedule)
	fmt.Fprintf(out, "   attempted=%d failed=%d latency_samples=%d checks=%d checks_skipped=%d\n",
		res.Attempted, res.Failed, res.Samples, res.Checks, res.Skipped)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	printValues := func(m map[string]value, order []string) {
		for _, k := range order {
			if v, ok := m[k]; ok {
				fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", k, v.Value, v.Unit)
			}
		}
	}
	var order []string
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		order = append(order, d.Name)
	}
	printValues(res.Metrics, order)
	extra := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	fmt.Fprintf(tw, "   --\t\t\n")
	printValues(res.Extra, extra)
	tw.Flush()
	if len(res.Layers) > 0 {
		fmt.Fprintf(out, "   spans (traced slices):\n")
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "   name\tcount\tp50_us\tself_p50_us\n")
		for _, l := range res.Layers {
			fmt.Fprintf(tw, "   %s\t%d\t%.2f\t%.2f\n", l.Name, l.Count, l.P50US, l.SelfP50)
		}
		tw.Flush()
	}
	if r := res.Reconcile; r != nil {
		verdict := "within 20%"
		if math.Abs(r.Residual) > 0.20 {
			verdict = "FINDING: residual above 20%"
		}
		fmt.Fprintf(out, "   reconcile: p50 %.1f us vs %s = %.1f us (residual %.1f%% of %.1f us) %s\n",
			r.MeasuredUS, r.Rule, r.PredictedUS, 100*r.Residual, r.MeasuredUS, verdict)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(out, "   PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}
