package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/remos"
)

// The ladder is a single-threaded pass that times one public function
// per rung on idle fixtures. Frame, mux and admission are unexported, so
// their cost is read as the difference between neighbouring rungs.

// firstError keeps the first error of a series of rungs, which run to the
// end regardless so that every metric is emitted.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// timeCalls runs fn in batches of batch calls until budget is spent (at
// least five batches) and returns the median time per call in ns.
func timeCalls(budget time.Duration, batch int, fn func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// timePair times a and b alternately, so that a difference between the
// two is not an effect of which ran later, and returns each median in ns.
func timePair(budget time.Duration, a, b func()) (float64, float64) {
	var pa, pb []float64
	for start := time.Now(); len(pa) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		pa = append(pa, float64(t1.Sub(t0)))
		pb = append(pb, float64(time.Since(t1)))
	}
	return median(pa), median(pb)
}

// mallocsPer is the process-wide malloc count of n calls of fn, per call.
// The fixtures are otherwise idle, so client- and serving-side
// allocations of the call are what it counts.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func gobSize(v any) (float64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	return float64(buf.Len()), nil
}

// ladder measures every rung and returns them by metric name. budget is
// the time spent per rung.
func ladder(budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	if err := ladderSocket(m, budget); err != nil {
		return nil, fmt.Errorf("socket rung: %w", err)
	}
	if err := ladderFig3(m, budget); err != nil {
		return nil, fmt.Errorf("fig3 rungs: %w", err)
	}
	if err := ladderHier(m, budget); err != nil {
		return nil, fmt.Errorf("hier300 rungs: %w", err)
	}
	m["wire.point_residual_us"] = m["wire.point_us"] - m["wire.ping_us"] - m["collector.read_ns"]/1e3
	m["wire.matrix_overhead_us"] = m["wire.matrix_us"] - m["core.matrix_warm_us"]
	m["watch.per_sub_us"] = (m["watch.fanout_ms_s64"] - m["watch.fanout_ms_s1"]) * 1e3 / 63
	return m, nil
}

// ladderSocket is the floor: a 64-byte echo over 127.0.0.1 against the
// benchmark's own listener. Nothing below it is recoverable.
func ladderSocket(m map[string]float64, budget time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		wg.Wait()
		return err
	}
	buf := make([]byte, 64)
	var ioErr error
	m["socket.loopback_rtt_us"] = timeCalls(budget, 1, func() {
		if _, err := c.Write(buf); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			ioErr = err
		}
	}) / 1e3
	c.Close()
	ln.Close()
	wg.Wait()
	return ioErr
}

func ladderFig3(m map[string]float64, budget time.Duration) error {
	fx, err := newFixture(fig3, nil, false)
	if err != nil {
		return err
	}
	defer fx.close()
	cl, err := collector.Dial(fx.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	fo, err := remos.DialCollectors(fx.addr)
	if err != nil {
		return err
	}
	defer fo.Close()

	ctx := context.Background()
	col := fx.tb.Collector
	key := fx.keys[len(fx.keys)/2]
	var first firstError
	note := first.note
	point := func() { _, err := cl.UtilizationCtx(ctx, key, querySpan); note(err) }

	ping, pt := timePair(2*budget, func() { note(cl.PingCtx(ctx)) }, point)
	m["wire.ping_us"], m["wire.point_us"] = ping/1e3, pt/1e3
	m["wire.topology_us"] = timeCalls(budget, 1, func() { _, err := cl.TopologyCtx(ctx); note(err) }) / 1e3
	m["wire.allocs_per_point"] = mallocsPer(200, point)
	viaFailover, direct := timePair(2*budget, func() { _, err := fo.UtilizationCtx(ctx, key, querySpan); note(err) }, point)
	m["failover.overhead_us"] = (viaFailover - direct) / 1e3
	m["wire.pipelined_point_us"] = timeCalls(budget, 1, func() {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); point() }()
		}
		wg.Wait()
	}) / 16 / 1e3
	m["collector.read_ns"] = timeCalls(budget, 1000, func() { _, err := col.UtilizationCtx(ctx, key, querySpan); note(err) })

	w := stats.NewWindow(historySeconds/pollPeriod, 0)
	for i := 0; i < historySeconds/pollPeriod; i++ {
		note(w.Add(float64(i*pollPeriod), float64(i%17)*1e6))
	}
	m["stats.summary_ns"] = timeCalls(budget, 1000, func() { w.Summary(querySpan) })

	// The 4-flow problem of app-flow, built from the testbed's routes.
	flowOp := scheduleAppFlow(fx, clientRand(1, 0), burst)[1]
	problem := flowProblem(fx.tb.Network.Routes(), &flowOp)
	m["maxmin.solve_ns"] = timeCalls(budget, 100, func() { maxmin.SolveClasses(problem) })

	mod := fx.tb.Modeler
	tf := core.TFHistory(querySpan)
	nodes := fx.hosts[:4]
	flow := func() {
		_, err := mod.QueryFlowInfoCtx(ctx, flowOp.fixed, flowOp.variable, flowOp.independent, tf)
		note(err)
	}
	graphQ := func() { _, err := mod.GetGraphCtx(ctx, nodes, tf); note(err) }
	m["core.flow_warm_us"] = timeCalls(budget, 10, flow) / 1e3
	m["core.graph_warm_us"] = timeCalls(budget, 10, graphQ) / 1e3
	// Cold: the first query after a version bump. Each sample pays one
	// poll round of the 11-node testbed outside the timed call.
	m["core.flow_cold_us"] = coldCalls(budget, fx, flow) / 1e3
	m["core.graph_cold_us"] = coldCalls(budget, fx, graphQ) / 1e3
	return first.err
}

// coldCalls times fn once after each poll period and returns the median.
func coldCalls(budget time.Duration, fx *fixture, fn func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < budget; {
		fx.advance()
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0)))
	}
	return median(per)
}

// flowProblem is the max-min problem a flow op poses on idle 100 Mb/s
// links: one resource per directed channel on any of its routes.
func flowProblem(rt *graph.RouteTable, o *op) *maxmin.ClassedProblem {
	p := &maxmin.ClassedProblem{}
	index := map[graph.Channel]maxmin.ResourceID{}
	demand := func(f core.Flow) maxmin.Demand {
		d := maxmin.Demand{Weight: 1}
		for _, ch := range rt.Route(f.Src, f.Dst).Channels() {
			id, ok := index[ch]
			if !ok {
				id = maxmin.ResourceID(len(p.Capacity))
				index[ch] = id
				p.Capacity = append(p.Capacity, rt.Graph().Link(ch.Link).Capacity)
			}
			d.Resources = append(d.Resources, id)
		}
		return d
	}
	for _, f := range o.fixed {
		d := demand(f)
		d.Cap = f.Bandwidth
		p.Fixed = append(p.Fixed, d)
	}
	for _, f := range o.variable {
		d := demand(f)
		d.Weight = f.Bandwidth
		p.Variable = append(p.Variable, d)
	}
	for _, f := range o.independent {
		p.Independent = append(p.Independent, demand(f))
	}
	return p
}

func ladderHier(m map[string]float64, budget time.Duration) error {
	fx, err := newFixture(hier300, nil, false)
	if err != nil {
		return err
	}
	defer fx.close()
	cl, err := collector.Dial(fx.addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	ctx := context.Background()
	col := fx.tb.Collector
	var first firstError
	note := first.note

	// core and wire matrix rungs on one fixed 64x64 block.
	side := fx.hosts[100 : 100+matrixSide]
	req := &collector.MatrixRequest{Srcs: side, Dsts: side, TFKind: int(core.History), Span: querySpan}
	tf := core.TFHistory(querySpan)
	local := func() { _, err := fx.tb.Modeler.QueryMatrixCtx(ctx, side, side, tf); note(err) }
	local()
	m["core.matrix_warm_us"] = timeCalls(budget, 1, local) / 1e3
	m["wire.matrix_us"] = timeCalls(budget, 1, func() { _, err := cl.MatrixQuery(ctx, req); note(err) }) / 1e3

	g := fx.tb.Network.Graph()
	m["graph.routes_tree_us"] = timeCalls(budget, 1, func() {
		rt, err := g.Routes()
		note(err)
		if err == nil {
			_, err = rt.Tree(side[0])
			note(err)
		}
	}) / 1e3

	sc := snmp.NewClient(fx.tb.Agents.Registry, snmp.DefaultCommunity)
	agentAddr := snmp.Addr(side[0])
	m["snmp.get_us"] = timeCalls(budget, 100, func() { _, err := sc.Get(agentAddr, snmp.OIDSysUpTime); note(err) }) / 1e3

	// Poll rungs: one sample per poll period, each followed by a feed
	// delta and a cold matrix so the three read the same epochs.
	requests := func() (n uint64) {
		for _, a := range fx.tb.Agents.Agents {
			n += a.Requests()
		}
		return n
	}
	cur := &collector.FeedCursor{}
	if _, err := col.FeedSince(cur); err != nil {
		return err
	}
	var pollMS, pollAllocs, reqs, deltaUS, deltaBytes, coldUS []float64
	var ms0, ms1 runtime.MemStats
	for start := time.Now(); len(pollMS) < 5 || time.Since(start) < 3*budget; {
		r0 := requests()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		fx.advance()
		pollMS = append(pollMS, float64(time.Since(t0))/1e6)
		runtime.ReadMemStats(&ms1)
		pollAllocs = append(pollAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		reqs = append(reqs, float64(requests()-r0))

		t0 = time.Now()
		p, err := col.FeedSince(cur)
		deltaUS = append(deltaUS, float64(time.Since(t0))/1e3)
		note(err)
		if p != nil {
			n, err := gobSize(p)
			note(err)
			deltaBytes = append(deltaBytes, n)
		}

		t0 = time.Now()
		local()
		coldUS = append(coldUS, float64(time.Since(t0))/1e3)
	}
	m["collector.poll_round_ms"] = median(pollMS)
	m["collector.poll_us_per_agent"] = median(pollMS) * 1e3 / float64(len(fx.tb.Agents.Agents))
	m["collector.poll_allocs"] = median(pollAllocs)
	m["snmp.requests_per_round"] = median(reqs)
	m["collector.feed_delta_us"] = median(deltaUS)
	m["collector.feed_delta_bytes"] = median(deltaBytes)
	m["core.matrix_cold_us"] = median(coldUS)

	var full *collector.FeedPayload
	m["collector.feed_full_ms"] = timeCalls(budget, 1, func() {
		var err error
		full, err = col.FeedSince(&collector.FeedCursor{})
		note(err)
	}) / 1e6
	if full != nil {
		n, err := gobSize(full)
		note(err)
		m["collector.feed_full_bytes"] = n
	}

	// Replica rungs.
	var syncMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rep := remos.NewReadReplica(remos.ReplicaConfig{FeedAddr: fx.addr, Seed: 1})
		rep.Start()
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := rep.WaitSynced(wctx)
		cancel()
		syncMS = append(syncMS, float64(time.Since(t0))/1e6)
		rep.Close()
		if err != nil {
			return fmt.Errorf("replica sync: %w", err)
		}
	}
	m["replica.full_sync_ms"] = median(syncMS)

	// Push rungs: poll done -> the replica, or S subscribers, hold the
	// epoch. The subscriber passes run without a replica so that the
	// difference between S=64 and S=1 is the subscribers' alone.
	lag, err := pushRung(fx, 0, budget, func(fan *fanout) {
		key := fx.keys[len(fx.keys)/2]
		m["replica.read_ns"] = timeCalls(budget, 1000, func() { _, err := fan.rep.UtilizationCtx(ctx, key, querySpan); note(err) })
	})
	if err != nil {
		return err
	}
	m["replica.apply_lag_ms"] = lag.lagMS
	s1, err := pushRung(fx, 1, budget, nil)
	if err != nil {
		return err
	}
	s64, err := pushRung(fx, 64, budget, nil)
	if err != nil {
		return err
	}
	m["watch.fanout_ms_s1"] = s1.fanMS
	m["watch.fanout_ms_s64"] = s64.fanMS
	m["watch.allocs_per_delivery"] = (s64.allocs - s1.allocs) / 63
	m["watch.overflowed"] = float64(s1.overflowed + s64.overflowed)
	return first.err
}

// pushStats are the medians of one push rung's epochs.
type pushStats struct {
	fanMS, lagMS float64 // poll done -> last subscriber / replica holds the epoch
	allocs       float64 // process mallocs of one whole epoch, poll included
	overflowed   int
}

// pushRung runs epochs against subs version subscriptions (subs 0: a
// read replica instead). during runs before the fanout is torn down.
func pushRung(fx *fixture, subs int, budget time.Duration, during func(*fanout)) (pushStats, error) {
	fan, err := newFanout(fx, subs, subs == 0)
	if err != nil {
		return pushStats{}, err
	}
	defer fan.close()
	var fanMS, lagMS, allocs []float64
	var a, b runtime.MemStats
	for start := time.Now(); len(fanMS) < 5 || time.Since(start) < 2*budget; {
		runtime.ReadMemStats(&a)
		e, err := fan.epoch()
		if err != nil {
			return pushStats{}, err
		}
		runtime.ReadMemStats(&b)
		allocs = append(allocs, float64(b.Mallocs-a.Mallocs))
		fanMS = append(fanMS, float64(e.delivered.Sub(e.polled))/1e6)
		lagMS = append(lagMS, float64(e.applied.Sub(e.polled))/1e6)
	}
	if during != nil {
		during(fan)
	}
	return pushStats{median(fanMS), median(lagMS), median(allocs), fan.overflowed}, nil
}
