// Command remos-query issues Remos queries against a running
// remos-collector daemon over TCP.
//
// Usage:
//
//	remos-query -addr HOST:PORT graph [m-1 m-2 ...]
//	remos-query -addr HOST:PORT bw SRC DST
//	remos-query -addr HOST:PORT latency SRC DST
//	remos-query -addr HOST:PORT load HOST
//	remos-query -addr HOST:PORT age SRC DST
//	remos-query -addr HOST:PORT health
//	remos-query -addr HOST:PORT select START K
//	remos-query -addr HOST:PORT flows fixed:m-1,m-7,2 var:m-2,m-7,1 indep:m-3,m-8
//	remos-query -addr HOST:PORT -matrix m-1,m-2,m-6 m-7,m-8
//
// With one or more repeatable -collector flags the query plane is
// replicated: queries go to the first healthy replica and fail over
// transparently when it dies:
//
//	remos-query -collector HOST:7070 -collector HOST:7071 graph
//
// The flows command is remos_flow_info from the shell: each argument is
// CLASS:SRC,DST[,X] where X is Mbps for fixed flows and the relative
// weight for variable flows.
//
// The -window flag selects the measurement timeframe in seconds
// (0 = current, negative = physical capacity).
//
// With -watch, the graph, flows and load commands subscribe instead of
// querying once: each materially changed answer is printed as one JSON
// line until the stream ends. Exit status 0 on interrupt or a clean
// server drain, 1 on a transport failure, 3 if the stream had a
// sequence gap not admitted by an Overflowed or Resync mark.
package main

import (
	"context"
	"encoding/json"
	"strings"

	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"

	"repro/remos"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "collector query-service address")
	window := flag.Float64("window", 10, "history window seconds (0=current, <0=capacity)")
	timeout := flag.Duration("timeout", 0, "end-to-end query budget (0 = none); the remaining budget rides to the daemon with every call")
	watch := flag.Bool("watch", false, "subscribe to the query (graph, flows, load) and stream JSON updates until interrupted")
	matrix := flag.Bool("matrix", false, "batched matrix mode: remos-query -matrix SRC1,SRC2[,...] [DST1,DST2[,...]] prints the bandwidth/latency matrix over the node sets in one wire round trip (one comma list = square matrix, none = all hosts)")
	threshold := flag.Float64("threshold", 0, "watch: minimum material change — relative (0..1) for graph/flows, absolute for load — below which updates are suppressed")
	var collectors []string
	flag.Func("collector", "replica collector address (repeatable; takes precedence over -addr)", func(s string) error {
		collectors = append(collectors, s)
		return nil
	})
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 && !*matrix {
		usage()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var src remos.Source
	var err error
	if len(collectors) > 0 {
		src, err = remos.DialCollectors(collectors...)
	} else {
		src, err = remos.DialCollector(*addr)
	}
	if err != nil {
		fatal(err)
	}
	mod := remos.NewModeler(remos.Config{Source: src})

	tf := remos.TFHistory(*window)
	if *window == 0 {
		tf = remos.TFCurrent()
	} else if *window < 0 {
		tf = remos.TFCapacity()
	}

	if *matrix {
		runMatrix(ctx, mod, args, tf)
		return
	}
	if *watch {
		runWatch(ctx, src, mod, args, tf, *threshold)
		return
	}

	switch args[0] {
	case "graph":
		var nodes []remos.NodeID
		for _, a := range args[1:] {
			nodes = append(nodes, remos.NodeID(a))
		}
		g, err := mod.GetGraphCtx(ctx, nodes, tf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d nodes, %d logical links (%v)\n", len(g.Nodes), len(g.Links), tf.Kind)
		for _, n := range g.Nodes {
			fmt.Printf("  %-12s %v\n", n.ID, n.Kind)
		}
		for _, l := range g.Links {
			fmt.Printf("  %s -- %s: cap %.0f Mbps, avail %.1f/%.1f Mbps, lat %.2f ms\n",
				l.A, l.B, l.Capacity.Median/1e6,
				l.AvailFrom(l.A).Median/1e6, l.AvailFrom(l.B).Median/1e6,
				l.Latency.Median*1e3)
		}
	case "bw":
		need(args, 3)
		st, err := mod.AvailableBandwidthCtx(ctx, remos.NodeID(args[1]), remos.NodeID(args[2]), tf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s -> %s: %.2f Mbps  quartiles [%.1f %.1f %.1f %.1f %.1f] acc %.2f\n",
			args[1], args[2], st.Median/1e6,
			st.Min/1e6, st.Q1/1e6, st.Median/1e6, st.Q3/1e6, st.Max/1e6, st.Accuracy)
	case "latency":
		need(args, 3)
		st, err := mod.PathLatencyCtx(ctx, remos.NodeID(args[1]), remos.NodeID(args[2]))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s -> %s: %.2f ms one-way\n", args[1], args[2], st.Median*1e3)
	case "load":
		need(args, 2)
		st, err := mod.HostLoadCtx(ctx, remos.NodeID(args[1]), tf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %.0f%% CPU load\n", args[1], st.Median*100)
	case "age":
		need(args, 3)
		from, to := remos.NodeID(args[1]), remos.NodeID(args[2])
		topo, err := src.TopologyCtx(ctx)
		if err != nil {
			fatal(err)
		}
		var key remos.ChannelKey
		found := false
		for _, l := range topo.Graph.Links() {
			if (l.A == from && l.B == to) || (l.A == to && l.B == from) {
				key = topo.Key(l, l.DirFrom(from))
				found = true
				break
			}
		}
		if !found {
			fatalf("no direct link %s--%s", from, to)
		}
		age, err := mod.DataAgeCtx(ctx, key)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s -> %s: data age %.2fs\n", from, to, age)
	case "health":
		h := mod.Health()
		if h == nil {
			fmt.Println("no health information available")
			break
		}
		ids := make([]string, 0, len(h))
		for id := range h {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			ah := h[remos.NodeID(id)]
			fmt.Printf("%-12s %-8s consecutive-failures=%d last-success=%.1fs\n",
				id, ah.State, ah.ConsecutiveFailures, ah.LastSuccess)
		}
	case "flows":
		if len(args) < 2 {
			usage()
		}
		fixed, variable, independent := parseFlowSpecs(args[1:])
		fi, err := mod.QueryFlowInfoCtx(ctx, fixed, variable, independent, tf)
		if err != nil {
			fatal(err)
		}
		for _, r := range fi.All() {
			fmt.Printf("%-11s %s -> %s: %7.2f Mbps  [%.1f %.1f %.1f %.1f %.1f] acc %.2f satisfied=%v\n",
				r.Flow.Kind, r.Flow.Src, r.Flow.Dst, r.Bandwidth.Median/1e6,
				r.Bandwidth.Min/1e6, r.Bandwidth.Q1/1e6, r.Bandwidth.Median/1e6,
				r.Bandwidth.Q3/1e6, r.Bandwidth.Max/1e6, r.Bandwidth.Accuracy, r.Satisfied)
		}
	case "select":
		need(args, 3)
		k, err := strconv.Atoi(args[2])
		if err != nil {
			fatal(err)
		}
		g, err := mod.GetGraphCtx(ctx, nil, tf)
		if err != nil {
			fatal(err)
		}
		var pool []remos.NodeID
		for _, n := range g.Nodes {
			if n.Kind == remos.ComputeNode {
				pool = append(pool, n.ID)
			}
		}
		sel, err := remos.SelectNodes(mod, pool, remos.NodeID(args[1]), k, tf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("selected %v (start %s)\n", sel, args[1])
	default:
		usage()
	}
}

// parseFlowSpecs turns CLASS:SRC,DST[,X] arguments into the three flow
// classes of a remos_flow_info query.
func parseFlowSpecs(specs []string) (fixed, variable, independent []remos.Flow) {
	for _, spec := range specs {
		class, rest, ok := strings.Cut(spec, ":")
		if !ok {
			fatalf("bad flow spec %q (want CLASS:SRC,DST[,X])", spec)
		}
		parts := strings.Split(rest, ",")
		if len(parts) < 2 {
			fatalf("bad flow spec %q", spec)
		}
		f := remos.Flow{Src: remos.NodeID(parts[0]), Dst: remos.NodeID(parts[1])}
		x := 0.0
		if len(parts) > 2 {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				fatalf("bad number in %q: %v", spec, err)
			}
			x = v
		}
		switch class {
		case "fixed":
			f.Kind = remos.FixedFlow
			f.Bandwidth = x * 1e6
			fixed = append(fixed, f)
		case "var", "variable":
			f.Kind = remos.VariableFlow
			f.Bandwidth = x
			variable = append(variable, f)
		case "indep", "independent":
			f.Kind = remos.IndependentFlow
			independent = append(independent, f)
		default:
			fatalf("unknown flow class %q", class)
		}
	}
	return fixed, variable, independent
}

// watchRecord is one LDJSON line of -watch output. Omitted fields were
// false/empty; numeric bandwidths are Mbps.
type watchRecord struct {
	Kind        string      `json:"kind"`
	Seq         uint64      `json:"seq"`
	Epoch       uint64      `json:"epoch"`
	Overflowed  bool        `json:"overflowed,omitempty"`
	Resync      bool        `json:"resync,omitempty"`
	TopoChanged bool        `json:"topoChanged,omitempty"`
	Final       bool        `json:"final,omitempty"`
	Err         string      `json:"err,omitempty"`
	Nodes       int         `json:"nodes,omitempty"`
	Links       []watchLink `json:"links,omitempty"`
	Flows       []watchFlow `json:"flows,omitempty"`
	Value       *float64    `json:"value,omitempty"`
}

type watchLink struct {
	A         string     `json:"a"`
	B         string     `json:"b"`
	CapMbps   float64    `json:"capMbps"`
	AvailMbps [2]float64 `json:"availMbps"`
	LatencyMs float64    `json:"latencyMs"`
}

type watchFlow struct {
	Class     string  `json:"class"`
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Mbps      float64 `json:"mbps"`
	Satisfied bool    `json:"satisfied"`
}

// gapTracker flags a delivered-Seq gap the stream did not admit to.
// With threshold 0 every generated update is material, so a gap in the
// delivered sequence without an Overflowed or Resync mark means updates
// were silently lost; with a positive threshold gaps are expected
// (immaterial answers are gated out) and never flagged.
type gapTracker struct {
	threshold float64
	last      uint64
	seen      bool
	gapped    bool
}

func (g *gapTracker) observe(seq uint64, overflowed, resync, final bool) {
	if final || seq == 0 {
		return // Final updates carry Seq 0
	}
	if resync {
		// New replica, new sequence space: restart the tracker.
		g.last, g.seen = seq, true
		return
	}
	if g.seen && g.threshold == 0 && seq != g.last+1 && !overflowed {
		g.gapped = true
	}
	g.last, g.seen = seq, true
}

// exit code after the stream closed: 0 clean, 1 transport error,
// 3 unadmitted sequence gap.
func (g *gapTracker) exit(streamErr error) {
	if streamErr != nil {
		fmt.Fprintln(os.Stderr, streamErr)
		os.Exit(1)
	}
	if g.gapped {
		fmt.Fprintln(os.Stderr, "remos-query: watch stream had a sequence gap without an overflow or resync mark")
		os.Exit(3)
	}
	os.Exit(0)
}

// runWatch implements -watch: subscribe to the command's query and
// stream one JSON line per delivered update until the server drains the
// subscription, the stream fails, or the user interrupts.
func runWatch(ctx context.Context, src remos.Source, mod *remos.Modeler, args []string, tf remos.Timeframe, threshold float64) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel() // clean cancel: channels close with Err() == nil
	}()

	enc := json.NewEncoder(os.Stdout)
	gaps := &gapTracker{threshold: threshold}

	switch args[0] {
	case "graph":
		var nodes []remos.NodeID
		for _, a := range args[1:] {
			nodes = append(nodes, remos.NodeID(a))
		}
		w, err := mod.WatchGraph(ctx, nodes, tf, remos.WatchOptions{Threshold: threshold})
		if err != nil {
			fatal(err)
		}
		for u := range w.C {
			rec := watchRecord{Kind: "graph", Seq: u.Seq, Epoch: u.Epoch,
				Overflowed: u.Overflowed, Resync: u.Resync,
				TopoChanged: u.TopoChanged, Final: u.Final}
			if u.Err != nil {
				rec.Err = u.Err.Error()
			}
			if u.Graph != nil {
				rec.Nodes = len(u.Graph.Nodes)
				for _, l := range u.Graph.Links {
					rec.Links = append(rec.Links, watchLink{
						A: string(l.A), B: string(l.B),
						CapMbps:   l.Capacity.Median / 1e6,
						AvailMbps: [2]float64{l.Avail[0].Median / 1e6, l.Avail[1].Median / 1e6},
						LatencyMs: l.Latency.Median * 1e3,
					})
				}
			}
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
			gaps.observe(u.Seq, u.Overflowed, u.Resync, u.Final)
		}
		gaps.exit(w.Err())
	case "flows":
		if len(args) < 2 {
			usage()
		}
		fixed, variable, independent := parseFlowSpecs(args[1:])
		w, err := mod.WatchFlowInfo(ctx, fixed, variable, independent, tf, remos.WatchOptions{Threshold: threshold})
		if err != nil {
			fatal(err)
		}
		for u := range w.C {
			rec := watchRecord{Kind: "flows", Seq: u.Seq, Epoch: u.Epoch,
				Overflowed: u.Overflowed, Resync: u.Resync, Final: u.Final}
			if u.Err != nil {
				rec.Err = u.Err.Error()
			}
			if u.Info != nil {
				for _, r := range u.Info.All() {
					rec.Flows = append(rec.Flows, watchFlow{
						Class: r.Flow.Kind.String(), Src: string(r.Flow.Src), Dst: string(r.Flow.Dst),
						Mbps: r.Bandwidth.Median / 1e6, Satisfied: r.Satisfied,
					})
				}
			}
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
			gaps.observe(u.Seq, u.Overflowed, u.Resync, u.Final)
		}
		gaps.exit(w.Err())
	case "load":
		need(args, 2)
		ws, ok := src.(remos.WatchSource)
		if !ok {
			fatalf("source %T does not support watch subscriptions", src)
		}
		h, err := ws.Watch(ctx, remos.WatchRequest{
			Kind: remos.WatchLoad, Node: args[1], Span: tf.Span, Threshold: threshold,
		})
		if err != nil {
			fatal(err)
		}
		for u := range h.C {
			rec := watchRecord{Kind: "load", Seq: u.Seq, Epoch: u.Epoch,
				Overflowed: u.Overflowed, Resync: u.Resync, Final: u.Final, Err: u.Err}
			if u.Err == "" && !u.Final {
				v := u.Stat.Median
				rec.Value = &v
			}
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
			gaps.observe(u.Seq, u.Overflowed, u.Resync, u.Final)
		}
		gaps.exit(h.Err())
	default:
		fmt.Fprintln(os.Stderr, "remos-query: -watch supports the graph, flows and load commands")
		os.Exit(2)
	}
}

// runMatrix implements -matrix: one batched N×M flow-matrix query in a
// single wire round trip, printed as bandwidth and latency tables.
// Entries the daemon could not answer (agent down, unreachable pair)
// print as "-".
func runMatrix(ctx context.Context, mod *remos.Modeler, args []string, tf remos.Timeframe) {
	parse := func(s string) []remos.NodeID {
		var ids []remos.NodeID
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part != "" {
				ids = append(ids, remos.NodeID(part))
			}
		}
		return ids
	}
	var srcs, dsts []remos.NodeID
	switch len(args) {
	case 0:
		g, err := mod.GetGraphCtx(ctx, nil, tf)
		if err != nil {
			fatal(err)
		}
		for _, n := range g.Nodes {
			if n.Kind == remos.ComputeNode {
				srcs = append(srcs, n.ID)
			}
		}
		dsts = srcs
	case 1:
		srcs = parse(args[0])
		dsts = srcs
	case 2:
		srcs, dsts = parse(args[0]), parse(args[1])
	default:
		fmt.Fprintln(os.Stderr, "usage: remos-query -matrix [SRCS] [DSTS] (comma-separated node lists)")
		os.Exit(2)
	}
	mi, err := mod.QueryMatrixCtx(ctx, srcs, dsts, tf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matrix %dx%d (%v, epoch %d, term %d)\n", len(srcs), len(dsts), tf.Kind, mi.Epoch, mi.Term)
	printTable := func(title, unit string, scale float64, vals [][]float64) {
		fmt.Printf("%s (%s):\n", title, unit)
		fmt.Printf("%14s", "")
		for _, d := range dsts {
			fmt.Printf(" %12s", d)
		}
		fmt.Println()
		for i, s := range srcs {
			fmt.Printf("%14s", s)
			for j := range dsts {
				if !mi.Valid[i][j] {
					fmt.Printf(" %12s", "-")
					continue
				}
				fmt.Printf(" %12.2f", vals[i][j]*scale)
			}
			fmt.Println()
		}
	}
	printTable("bandwidth", "Mbps", 1e-6, mi.Bandwidth)
	printTable("latency", "ms", 1e3, mi.Latency)
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: remos-query [-addr HOST:PORT | -collector HOST:PORT ...] {graph [hosts...] | bw SRC DST | latency SRC DST | load HOST | age SRC DST | health | select START K | flows CLASS:SRC,DST[,X]... | -matrix [SRCS [DSTS]]}")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
