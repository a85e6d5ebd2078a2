package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/remos"
)

type opKind uint8

const (
	opUtil opKind = iota
	opLoad
	opAge
	opGraph
	opFlow
	opMatrix
	opEpoch
)

// op is one pre-generated input. Which fields are set depends on Kind.
type op struct {
	Kind  opKind
	Key   collector.ChannelKey   // opUtil, opAge
	Hosts []graph.NodeID         // opLoad: 1 host; opGraph: 4 nodes; opFlow: 4 src/dst pairs
	Base  int                    // opMatrix: index of the first of 64 consecutive hosts
	Keys  []collector.ChannelKey // opEpoch: channels compared on the replica after the epoch

	// Derived from the fields above when the schedule is built, so the
	// timed call allocates nothing of the generator's.
	fixed, variable, independent []core.Flow
	matrix                       *collector.MatrixRequest
}

// session is a workload's live client side: handles, subscriptions and
// the closed-loop clients that drive them.
type session struct {
	clients  []*client
	modelers []*core.Modeler    // application Modelers whose memo counters are read (traced runs)
	sources  []*recordingSource // application-side span recorders (traced runs)
	fan      *fanout            // epoch-fanout only
	close    func()
}

// workload is one named traffic mix. connect is timed as part of set-up;
// schedule is pure generation from the seed and is not.
type workload struct {
	name     string
	why      string
	fixture  string
	decorate bool // traced runs wrap the served source in a span recorder
	schedLen int  // ops generated per client; a longer phase cycles them
	connect  func(fx *fixture, tr *tracer) (*session, error)
	schedule func(fx *fixture, rng *rand.Rand, n int) []op
}

const matrixSide = 64

var workloads = []*workload{
	{
		name: "wire-point", fixture: fig3, decorate: true, schedLen: 1 << 15,
		why:      "Smallest message over the wire: per-frame cost (codec, mux, admission, socket, failover routing) is all of the time and core/maxmin do nothing; a solver or sweep change must read no change here.",
		connect:  connectWirePoint,
		schedule: scheduleWirePoint,
	},
	{
		name: "app-flow", fixture: fig3, decorate: true, schedLen: 1 << 12,
		why:      "The paper's deployment, a Modeler in the application over a dialed collector: many dependent scalar fetches per query beside poll writes; pipelining, batch fetch or a remote memo show here only.",
		connect:  connectAppFlow,
		schedule: scheduleAppFlow,
	},
	{
		name: "wire-matrix", fixture: hier300, decorate: true, schedLen: 1 << 12,
		why:      "Few frames, large payload, compute-heavy: core snapshot, sweeps, fold and payload encode dominate, per-frame cost is small; shows a core/graph change, bypasses scalar-path and failover changes.",
		connect:  connectWireMatrix,
		schedule: scheduleWireMatrix,
	},
	{
		name: "epoch-fanout", fixture: hier300, schedLen: 1 << 12,
		why:      "The write and push path (snmp poll, window append, version bump, feed delta, replica apply, per-subscriber push) no read workload touches: a read gain bought with write cost regresses here.",
		connect:  connectEpochFanout,
		schedule: scheduleEpochFanout,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildSchedules fills every client's ops from the seed and returns the
// SHA-256 of the schedule's canonical text, which the output carries so
// two runs can be shown to have issued the same inputs.
func buildSchedules(w *workload, fx *fixture, s *session, seed int64) string {
	h := sha256.New()
	for ci, c := range s.clients {
		c.ops = w.schedule(fx, clientRand(seed, ci), w.schedLen)
		for i := range c.ops {
			o := &c.ops[i]
			fmt.Fprintf(h, "%d|%d|%v|%v|%d|%v\n", ci, o.Kind, o.Key, o.Hosts, o.Base, o.Keys)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clientRand is the generator of one client's schedule.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

func pickHosts(rng *rand.Rand, hosts []graph.NodeID, n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i, j := range rng.Perm(len(hosts))[:n] {
		out[i] = hosts[j]
	}
	return out
}

func sameStat(a, b stats.Stat) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Min, b.Min) && eq(a.Q1, b.Q1) && eq(a.Median, b.Median) && eq(a.Q3, b.Q3) &&
		eq(a.Max, b.Max) && eq(a.Accuracy, b.Accuracy) && a.Samples == b.Samples && eq(a.Age, b.Age)
}

// versioned is an answer with the collector data version read just
// before the op was issued; the oracle compares only when the version is
// still the same after it has answered too.
type versioned struct {
	ans any
	v   uint64
}

// ---------------------------------------------------------------------
// wire-point

func scheduleWirePoint(fx *fixture, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 8:
			ops[i] = op{Kind: opUtil, Key: fx.keys[rng.Intn(len(fx.keys))]}
		case r == 8:
			ops[i] = op{Kind: opLoad, Hosts: pickHosts(rng, fx.hosts, 1)}
		default:
			ops[i] = op{Kind: opAge, Key: fx.keys[rng.Intn(len(fx.keys))]}
		}
	}
	return ops
}

// dialHandles dials one failover handle per client goroutine, as an
// application calling remos.DialCollectors would.
func dialHandles(fx *fixture) ([]*remos.FailoverSource, func(), error) {
	var handles []*remos.FailoverSource
	closeAll := func() {
		for _, h := range handles {
			h.Close()
		}
	}
	for i := 0; i < 2; i++ {
		fo, err := remos.DialCollectors(fx.addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		handles = append(handles, fo)
	}
	return handles, closeAll, nil
}

func connectWirePoint(fx *fixture, tr *tracer) (*session, error) {
	handles, closeAll, err := dialHandles(fx)
	if err != nil {
		return nil, err
	}
	s := &session{close: closeAll}
	col := fx.tb.Collector
	for _, fo := range handles {
		s.clients = append(s.clients, &client{
			name: func(o *op) string {
				switch o.Kind {
				case opLoad:
					return "failover.HostLoadCtx"
				case opAge:
					return "failover.DataAgeCtx"
				}
				return "failover.UtilizationCtx"
			},
			do: func(ctx context.Context, o *op) (any, error) {
				switch o.Kind {
				case opLoad:
					return fo.HostLoadCtx(ctx, o.Hosts[0], querySpan)
				case opAge:
					return fo.DataAgeCtx(ctx, o.Key)
				}
				return fo.UtilizationCtx(ctx, o.Key, querySpan)
			},
			// No poll runs during this workload, so the oracle always
			// reads the state the op read.
			check: func(o *op, ans any) verdict {
				ctx := context.Background()
				ok := false
				switch o.Kind {
				case opLoad:
					want, err := col.HostLoadCtx(ctx, o.Hosts[0], querySpan)
					ok = err == nil && sameStat(ans.(stats.Stat), want)
				case opAge:
					want, err := col.DataAgeCtx(ctx, o.Key)
					ok = err == nil && math.Float64bits(ans.(float64)) == math.Float64bits(want)
				default:
					want, err := col.UtilizationCtx(ctx, o.Key, querySpan)
					ok = err == nil && sameStat(ans.(stats.Stat), want)
				}
				if !ok {
					return checkMismatch
				}
				return checkOK
			},
		})
	}
	return s, nil
}

// ---------------------------------------------------------------------
// app-flow

const burst = 16 // 1 topology query + 15 flow queries, then one poll period

func scheduleAppFlow(fx *fixture, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if i%burst == 0 {
			ops[i] = op{Kind: opGraph, Hosts: pickHosts(rng, fx.hosts, 4)}
			continue
		}
		h := pickHosts(rng, fx.hosts, 8)
		ops[i] = op{
			Kind: opFlow, Hosts: h,
			fixed: []core.Flow{{Src: h[0], Dst: h[1], Kind: core.FixedFlow, Bandwidth: 1e6}},
			variable: []core.Flow{
				{Src: h[2], Dst: h[3], Kind: core.VariableFlow, Bandwidth: 1},
				{Src: h[4], Dst: h[5], Kind: core.VariableFlow, Bandwidth: 2},
			},
			independent: []core.Flow{{Src: h[6], Dst: h[7], Kind: core.IndependentFlow}},
		}
	}
	return ops
}

func connectAppFlow(fx *fixture, tr *tracer) (*session, error) {
	handles, closeAll, err := dialHandles(fx)
	if err != nil {
		return nil, err
	}
	s := &session{close: closeAll}
	tf := core.TFHistory(querySpan)
	for i, fo := range handles {
		cfg := remos.Config{Source: fo}
		if tr != nil {
			rec := &recordingSource{inner: fo, prefix: "source.", tr: tr}
			s.sources = append(s.sources, rec)
			cfg.Source = rec
			cfg.Telemetry = telemetry.NewRegistry()
		}
		m := remos.NewModeler(cfg)
		s.modelers = append(s.modelers, m)
		c := &client{
			name: func(o *op) string {
				if o.Kind == opGraph {
					return "core.GetGraphCtx"
				}
				return "core.QueryFlowInfoCtx"
			},
			do: func(ctx context.Context, o *op) (any, error) {
				v := fx.version()
				if o.Kind == opGraph {
					g, err := m.GetGraphCtx(ctx, o.Hosts, tf)
					return versioned{g, v}, err
				}
				fi, err := m.QueryFlowInfoCtx(ctx, o.fixed, o.variable, o.independent, tf)
				return versioned{fi, v}, err
			},
			check: func(o *op, ans any) verdict {
				got := ans.(versioned)
				ctx := context.Background()
				ok := false
				if o.Kind == opGraph {
					want, err := fx.tb.Modeler.GetGraphCtx(ctx, o.Hosts, tf)
					ok = err == nil && sameGraph(got.ans.(*core.Graph), want)
				} else {
					want, err := fx.tb.Modeler.QueryFlowInfoCtx(ctx, o.fixed, o.variable, o.independent, tf)
					ok = err == nil && sameFlows(got.ans.(*core.FlowInfo), want)
				}
				switch {
				case fx.version() != got.v:
					return checkSkipped
				case !ok:
					return checkMismatch
				}
				return checkOK
			},
		}
		if i == 0 {
			// The application's own progress drives virtual time: one
			// poll period passes per burst, so every burst reads a new
			// epoch while the other client's reads run beside the poll.
			c.after = func(i int) {
				if i%burst == burst-1 {
					fx.advance()
				}
			}
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func sameMedian(a, b stats.Stat) bool {
	return math.Float64bits(a.Median) == math.Float64bits(b.Median)
}

func sameFlows(got, want *core.FlowInfo) bool {
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if !sameMedian(g[i].Bandwidth, w[i].Bandwidth) || !sameMedian(g[i].Latency, w[i].Latency) ||
			g[i].Satisfied != w[i].Satisfied || g[i].Hops != w[i].Hops {
			return false
		}
	}
	return true
}

func sameGraph(got, want *core.Graph) bool {
	if len(got.Links) != len(want.Links) || len(got.Nodes) != len(want.Nodes) {
		return false
	}
	for i, l := range got.Links {
		w := want.Links[i]
		if l.A != w.A || l.B != w.B || !sameMedian(l.Capacity, w.Capacity) || !sameMedian(l.Latency, w.Latency) ||
			!sameMedian(l.Avail[0], w.Avail[0]) || !sameMedian(l.Avail[1], w.Avail[1]) {
			return false
		}
	}
	for i, n := range got.Nodes {
		if n.ID != want.Nodes[i].ID || !sameMedian(n.Load, want.Nodes[i].Load) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// wire-matrix

const matrixPollEvery = 50 // client 0 advances one poll period per this many of its ops

func scheduleWireMatrix(fx *fixture, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		base := rng.Intn(len(fx.hosts) - matrixSide + 1)
		side := fx.hosts[base : base+matrixSide]
		ops[i] = op{Kind: opMatrix, Base: base, matrix: &collector.MatrixRequest{
			Srcs: side, Dsts: side, TFKind: int(core.History), Span: querySpan,
		}}
	}
	return ops
}

func connectWireMatrix(fx *fixture, tr *tracer) (*session, error) {
	s := &session{}
	var conns []*collector.Client
	s.close = func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < 2; i++ {
		conn, err := collector.Dial(fx.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		conns = append(conns, conn)
		c := &client{
			name: func(*op) string { return "wire.MatrixQuery" },
			do: func(ctx context.Context, o *op) (any, error) {
				v := fx.version()
				ans, err := conn.MatrixQuery(ctx, o.matrix)
				return versioned{ans, v}, err
			},
			check: func(o *op, ans any) verdict {
				got := ans.(versioned)
				want, err := fx.tb.Modeler.QueryMatrixCtx(context.Background(), o.matrix.Srcs, o.matrix.Dsts, core.TFHistory(querySpan))
				ok := err == nil && sameMatrix(got.ans.(*collector.MatrixAnswer), want)
				switch {
				case fx.version() != got.v:
					return checkSkipped
				case !ok:
					return checkMismatch
				}
				return checkOK
			},
		}
		if i == 0 {
			c.after = func(i int) {
				if i%matrixPollEvery == matrixPollEvery-1 {
					fx.advance()
				}
			}
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func sameMatrix(got *collector.MatrixAnswer, want *core.MatrixInfo) bool {
	if len(got.Bandwidth) != len(want.Bandwidth) {
		return false
	}
	for i := range got.Bandwidth {
		if len(got.Bandwidth[i]) != len(want.Bandwidth[i]) {
			return false
		}
		for j := range got.Bandwidth[i] {
			if got.Valid[i][j] != want.Valid[i][j] ||
				math.Float64bits(got.Bandwidth[i][j]) != math.Float64bits(want.Bandwidth[i][j]) ||
				math.Float64bits(got.Latency[i][j]) != math.Float64bits(want.Latency[i][j]) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// epoch-fanout

const (
	// fanoutSubs is half the 64 the ladder measures (watch.fanout_ms_s64):
	// an epoch with 64 subscribers takes ~24 ms here, and p99 needs 1,000
	// epochs inside a measured phase short enough for 92 driver runs.
	fanoutSubs    = 32
	epochDeadline = 2 * time.Second
	replicaKeys   = 8
)

func scheduleEpochFanout(fx *fixture, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		keys := make([]collector.ChannelKey, replicaKeys)
		for k := range keys {
			keys[k] = fx.keys[rng.Intn(len(fx.keys))]
		}
		ops[i] = op{Kind: opEpoch, Keys: keys}
	}
	return ops
}

func connectEpochFanout(fx *fixture, tr *tracer) (*session, error) {
	fan, err := newFanout(fx, fanoutSubs, true)
	if err != nil {
		return nil, err
	}
	col := fx.tb.Collector
	c := &client{
		name: func(*op) string { return "epoch" },
		do: func(ctx context.Context, o *op) (any, error) {
			e, err := fan.epoch()
			if ref, ok := ctx.Value(spanKey{}).(spanRef); ok && err == nil {
				tr.interval(ref.op, ref.id, "collector.poll", e.start, e.polled)
				tr.interval(ref.op, ref.id, "replica.apply", e.polled, e.applied)
				tr.interval(ref.op, ref.id, "watch.fanout", e.polled, e.delivered)
			}
			return nil, err
		},
		// The driver is the only thing that polls, so the replica and the
		// collector are at the same epoch here. Age and Accuracy carry the
		// replica's wall-clock extrapolation and are left out.
		check: func(o *op, _ any) verdict {
			ctx := context.Background()
			for _, k := range o.Keys {
				got, err1 := fan.rep.UtilizationCtx(ctx, k, querySpan)
				want, err2 := col.UtilizationCtx(ctx, k, querySpan)
				got.Age, got.Accuracy = want.Age, want.Accuracy
				if err1 != nil || err2 != nil || !sameStat(got, want) {
					return checkMismatch
				}
			}
			return checkOK
		},
	}
	return &session{clients: []*client{c}, fan: fan, close: fan.close}, nil
}
