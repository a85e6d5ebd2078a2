package main

// metricDef is one row of the metric catalogue. BENCHMARK.json repeats
// name, unit, better and bound; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string
	What   string // the public function timed, or how the count is taken
}

// endToEnd is measured with tracing off, the same six on every workload.
// failed_share is not among them because a bounded metric may never read
// 0; failures travel in the result's attempted/failed/correct fields and
// any failure fails the run.
//
// The timing bounds are 25 %, not the 10 % the issue asked for: this
// sandbox has fast and slow periods lasting minutes (the same code reads
// 4,700 and 3,400 ops/s on wire-point an hour apart), and over ten seeds
// the interquartile spread of these metrics reached 19 to 25 % of the
// median.
// README.md records the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "end-to-end", "fixture build (topology, 150 poll rounds of history, endpoint) plus dialing the workload's handles; median of repeated set-ups"},
	{"ops_per_s", "1/s", "higher", 0.25, "end-to-end", "completed ops per second, 2 closed-loop clients; median over the 1 s slices of the measured phase"},
	{"latency_ms_p50", "ms", "lower", 0.25, "end-to-end", "per-op latency from issue to return: median over the 1 s slices of each slice's median"},
	{"latency_ms_p99", "ms", "lower", 0.25, "end-to-end", "per-op latency from issue to return, 99th percentile of the whole measured phase (needs 10 samples beyond it)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "end-to-end", "process user+sys CPU (getrusage) / ops, median over the 1 s slices"},
	{"live_heap_mb", "MiB", "lower", 0.10, "end-to-end", "HeapAlloc after a forced GC at the end of the measured phase, generator buffers released"},
}

// perLayer is measured in the traced run: rungs of the single-threaded
// ladder, counts read at layer boundaries of the workload, and process
// counters of the workload's measured phase.
var perLayer = []metricDef{
	{"socket.loopback_rtt_us", "us", "lower", 0, "socket", "64-byte echo over 127.0.0.1 against the benchmark's own listener"},

	{"wire.ping_us", "us", "lower", 0, "wire", "Client.PingCtx"},
	{"wire.point_us", "us", "lower", 0, "wire", "Client.UtilizationCtx"},
	{"wire.point_residual_us", "us", "lower", 0, "wire", "wire.point_us - wire.ping_us - collector.read_ns"},
	{"wire.topology_us", "us", "lower", 0, "wire", "Client.TopologyCtx"},
	{"wire.matrix_us", "us", "lower", 0, "wire", "Client.MatrixQuery 64x64 on hier-300, warm"},
	{"wire.matrix_overhead_us", "us", "lower", 0, "wire", "wire.matrix_us - core.matrix_warm_us"},
	{"wire.pipelined_point_us", "us", "lower", 0, "wire", "16 concurrent Client.UtilizationCtx on one connection / 16"},
	{"wire.allocs_per_point", "count", "lower", 0, "wire", "process mallocs per Client.UtilizationCtx, both ends"},

	{"admission.admitted", "count", "higher", 0, "admission", "Server.GateStats of the workload's endpoint"},
	{"admission.shed", "count", "lower", 0, "admission", "Server.GateStats; must read 0"},
	{"admission.timed_out", "count", "lower", 0, "admission", "Server.GateStats; must read 0"},
	{"admission.wait_ms_p99", "ms", "lower", 0, "admission", "server registry server.admission.wait_ms"},

	{"failover.overhead_us", "us", "lower", 0, "failover", "FailoverSource.UtilizationCtx - Client.UtilizationCtx"},

	{"snmp.get_us", "us", "lower", 0, "snmp", "snmp.Client.Get against an in-process agent"},
	{"snmp.requests_per_round", "count", "lower", 0, "snmp", "sum of Agent.Requests deltas per poll round, hier-300"},

	{"collector.read_ns", "ns", "lower", 0, "collector", "Collector.UtilizationCtx"},
	{"collector.poll_round_ms", "ms", "lower", 0, "collector", "Testbed.Run(2) on hier-300: one poll of every agent"},
	{"collector.poll_us_per_agent", "us", "lower", 0, "collector", "collector.poll_round_ms / agents"},
	{"collector.poll_allocs", "count", "lower", 0, "collector", "process mallocs per poll round, hier-300"},
	{"collector.feed_delta_us", "us", "lower", 0, "collector", "Collector.FeedSince(cursor) after one poll"},
	{"collector.feed_delta_bytes", "bytes", "lower", 0, "collector", "gob size of that delta payload"},
	{"collector.feed_full_ms", "ms", "lower", 0, "collector", "Collector.FeedSince(fresh cursor)"},
	{"collector.feed_full_bytes", "bytes", "lower", 0, "collector", "gob size of the full payload"},

	{"stats.summary_ns", "ns", "lower", 0, "stats", "Window.Summary(10) on a 150-sample window"},
	{"graph.routes_tree_us", "us", "lower", 0, "graph", "Graph.Routes + RouteTable.Tree(src) on hier-300"},
	{"maxmin.solve_ns", "ns", "lower", 0, "maxmin", "SolveClasses on the 4-flow problem of app-flow"},

	{"core.flow_warm_us", "us", "lower", 0, "core", "Testbed.Modeler.QueryFlowInfoCtx, memo warm"},
	{"core.flow_cold_us", "us", "lower", 0, "core", "same, first query after a version bump"},
	{"core.graph_warm_us", "us", "lower", 0, "core", "Testbed.Modeler.GetGraphCtx, memo warm"},
	{"core.graph_cold_us", "us", "lower", 0, "core", "same, first query after a version bump"},
	{"core.matrix_warm_us", "us", "lower", 0, "core", "Testbed.Modeler.QueryMatrixCtx 64x64 on hier-300, sweeps compiled"},
	{"core.matrix_cold_us", "us", "lower", 0, "core", "same, first query after a version bump"},
	{"core.memo_hit_ratio", "ratio", "higher", 0, "core", "modeler.avail_memo_hits / (hits+misses) over the workload's Modelers; 0 when it has none"},
	{"core.source_calls_per_op", "count", "lower", 0, "core", "Source calls under a core span / core spans; 0 when the workload has none"},
	{"core.self_us_per_op", "us", "lower", 0, "core", "median self time of core spans (duration - Source children)"},

	{"replica.apply_lag_ms", "ms", "lower", 0, "replica", "poll done -> Replica.DataVersion holds the epoch"},
	{"replica.full_sync_ms", "ms", "lower", 0, "replica", "Replica.Start -> WaitSynced on hier-300"},
	{"replica.read_ns", "ns", "lower", 0, "replica", "Replica.UtilizationCtx"},

	{"watch.fanout_ms_s1", "ms", "lower", 0, "watch", "poll done -> 1 version subscriber holds the epoch"},
	{"watch.fanout_ms_s64", "ms", "lower", 0, "watch", "poll done -> all 64 subscribers hold the epoch"},
	{"watch.per_sub_us", "us", "lower", 0, "watch", "(fanout_ms_s64 - fanout_ms_s1) / 63"},
	{"watch.allocs_per_delivery", "count", "lower", 0, "watch", "(epoch mallocs at 64 subscribers - at 1) / 63"},
	{"watch.overflowed", "count", "lower", 0, "watch", "updates that arrived marked Overflowed; must read 0"},

	{"process.allocs_per_op", "count", "lower", 0, "process", "runtime.MemStats.Mallocs delta of the measured phase / ops"},
	{"process.bytes_per_op", "bytes", "lower", 0, "process", "TotalAlloc delta / ops"},
	{"process.gc_pause_ms", "ms", "lower", 0, "process", "PauseTotalNs delta of the measured phase"},
	{"process.cpu_util", "ratio", "lower", 0, "process", "CPU seconds / (wall x nproc): says whether ops_per_s is CPU-bound"},
	{"trace.overhead_share", "ratio", "lower", 0, "process", "p50 of ops recorded with spans / p50 of ops without, - 1, interleaved slices of one phase"},
	{"generator.idle_share", "ratio", "lower", 0, "process", "share of the clients' time outside calls into the system; the run fails above 0.05"},
	{"checks_skipped", "count", "lower", 0, "process", "oracle checks skipped because a poll moved the epoch between op and oracle"},
}

// reconcileRules are the pre-registered sums of rungs each workload's p50
// should come to, in us.
var reconcileRules = map[string]struct {
	text      string
	predictUS func(m map[string]float64) float64
}{
	"wire-point": {"failover.overhead_us + wire.point_us", func(m map[string]float64) float64 {
		return m["failover.overhead_us"] + m["wire.point_us"]
	}},
	"app-flow": {"core.source_calls_per_op x wire.point_us + core.self_us_per_op", func(m map[string]float64) float64 {
		return m["core.source_calls_per_op"]*m["wire.point_us"] + m["core.self_us_per_op"]
	}},
	"wire-matrix": {"wire.ping_us + core.matrix_warm_us + wire.matrix_overhead_us", func(m map[string]float64) float64 {
		return m["wire.ping_us"] + m["core.matrix_warm_us"] + m["wire.matrix_overhead_us"]
	}},
	"epoch-fanout": {"collector.poll_round_ms + max(replica.apply_lag_ms, watch.fanout_ms_s64)", func(m map[string]float64) float64 {
		return (m["collector.poll_round_ms"] + max(m["replica.apply_lag_ms"], m["watch.fanout_ms_s64"])) * 1e3
	}},
}
