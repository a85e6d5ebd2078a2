package remos_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/remos"
)

// The chaos suite is seeded: the fault schedule (blackhole windows,
// replica kills/restarts, checkpoint saves, time steps) is generated
// deterministically from -chaos.seed, so a failing run is replayable
// with the same flag. -chaos.events scales the run length.
var (
	chaosSeed   = flag.Int64("chaos.seed", 1, "seed for the chaos fault schedule")
	chaosEvents = flag.Int("chaos.events", 40, "number of chaos events to inject")
)

// lockedSource serializes access to a testbed Collector so TCP server
// handlers (one goroutine per connection) and the virtual-clock driver
// never touch the simulator concurrently — the same discipline the
// remos-collector daemon uses around its clock.
type lockedSource struct {
	mu  *sync.Mutex
	col *collector.Collector
}

func (s *lockedSource) Topology() (*collector.Topology, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Topology()
}
func (s *lockedSource) Utilization(key collector.ChannelKey, span float64) (stats.Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Utilization(key, span)
}
func (s *lockedSource) Samples(key collector.ChannelKey) ([]stats.Sample, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Samples(key)
}
func (s *lockedSource) HostLoad(node graph.NodeID, span float64) (stats.Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.HostLoad(node, span)
}
func (s *lockedSource) DataAge(key collector.ChannelKey) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.DataAge(key)
}
func (s *lockedSource) Health() map[graph.NodeID]collector.AgentHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.Health()
}

// fatSummarySource gives a lockedSource a region digest of about 40 kB,
// for the subscriber that never reads: a version update is some 70
// bytes on the wire, and the kernel would buffer hours of those before
// a stalled socket jams, where a digest per epoch jams it in under a
// second.
type fatSummarySource struct{ *lockedSource }

func (fatSummarySource) RegionName() string { return "chaos" }

func (fatSummarySource) RegionSummary() (*collector.RegionSummary, error) {
	sum := &collector.RegionSummary{Region: "chaos", Hosts: make([]collector.RegionHost, 1024)}
	for i := range sum.Hosts {
		sum.Hosts[i] = collector.RegionHost{ID: fmt.Sprintf("host-%d", i), Power: 1, MemoryBytes: 1 << 30, AccessBps: 1e8, AvailableBps: 9e7}
	}
	return sum, nil
}

// chaosEvent is one step of the deterministic schedule.
type chaosEvent struct {
	kind  int     // 0 blackhole, 1 kill replica A, 2 restart replica A, 3 checkpoint, >=4 quiet
	agent string  // blackhole target
	dur   float64 // blackhole window (virtual seconds)
	dt    float64 // virtual-time advance after the event
}

// TestChaosLifecycle composes everything the robustness PRs built —
// SNMP fault injection, replica kills and restarts, checkpointing,
// admission control, budgets — under concurrent deadline-bounded
// queries, and checks the global invariants: no panic, no query past
// 2x its budget, quartiles ordered, every error typed, and full
// recovery once the chaos stops.
func TestChaosLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(*chaosSeed))
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(20)

	// Pre-generate the whole schedule so determinism depends only on the
	// seed, not on worker interleaving.
	agents := []string{"aspen", "timberline", "whiteface", "m-3", "m-5", "m-8"}
	events := make([]chaosEvent, *chaosEvents)
	for i := range events {
		events[i] = chaosEvent{
			kind:  rng.Intn(6),
			agent: agents[rng.Intn(len(agents))],
			dur:   2 + rng.Float64()*8,
			dt:    0.5 + rng.Float64()*2.5,
		}
	}

	var mu sync.Mutex // serializes clock driver and server handlers
	ls := &lockedSource{mu: &mu, col: tb.Collector}
	scfg := collector.ServerConfig{MaxInflight: 8, QueueDepth: 16, DefaultBudget: 2 * time.Second}
	srvA, err := collector.ServeConfig(ls, "127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	addrA := srvA.Addr()
	srvB, err := collector.ServeConfig(ls, "127.0.0.1:0", scfg) // never killed
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	src, err := remos.DialCollectors(addrA, srvB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// The backbone channel used for data-age queries.
	topo, err := tb.Collector.Topology()
	if err != nil {
		t.Fatal(err)
	}
	var backbone remos.ChannelKey
	for _, l := range topo.Graph.Links() {
		if l.A == "aspen" && l.B == "timberline" {
			backbone = topo.Key(l, graph.AtoB)
		}
	}

	// Concurrent query workers under a hard per-query budget.
	const budget = 1 * time.Second
	stop := make(chan struct{})
	var clientShed atomic.Uint64 // ErrLoadShed refusals observed by workers
	var wg sync.WaitGroup
	var violations struct {
		sync.Mutex
		msgs []string
	}
	report := func(format string, args ...any) {
		violations.Lock()
		if len(violations.msgs) < 8 {
			violations.msgs = append(violations.msgs, fmt.Sprintf(format, args...))
		}
		violations.Unlock()
	}
	checkStat := func(who string, st remos.Stat) {
		if !(st.Min <= st.Q1 && st.Q1 <= st.Median && st.Median <= st.Q3 && st.Q3 <= st.Max) {
			report("%s: quartiles out of order: %+v", who, st)
		}
		if math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
			report("%s: non-finite median: %+v", who, st)
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mod := remos.NewModeler(remos.Config{Source: src})
			flows := []remos.Flow{{Src: "m-1", Dst: "m-8", Kind: remos.IndependentFlow}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				start := time.Now()
				var err error
				switch (w + i) % 4 {
				case 0:
					var g *remos.Graph
					if g, err = mod.GetGraphCtx(ctx, nil, remos.TFHistory(10)); err == nil {
						for _, l := range g.Links {
							checkStat("graph link", l.AvailFrom(l.A))
						}
					}
				case 1:
					var st remos.Stat
					if st, err = mod.AvailableBandwidthCtx(ctx, "m-1", "m-7", remos.TFHistory(10)); err == nil {
						checkStat("bw", st)
					}
				case 2:
					var fi *remos.FlowInfo
					if fi, err = mod.QueryFlowInfoCtx(ctx, nil, nil, flows, remos.TFCurrent()); err == nil {
						checkStat("flow", fi.Independent[0].Bandwidth)
					}
				case 3:
					var age float64
					if age, err = mod.DataAgeCtx(ctx, backbone); err == nil {
						if age < 0 || math.IsNaN(age) || math.IsInf(age, 0) {
							report("data age invalid: %v", age)
						}
					}
				}
				elapsed := time.Since(start)
				cancel()
				if elapsed > 2*budget {
					report("worker %d query %d took %v (budget %v)", w, i, elapsed, budget)
				}
				if err != nil && !remos.IsLifecycleError(err) {
					report("worker %d query %d: untyped error %v", w, i, err)
				}
				if errors.Is(err, remos.ErrLoadShed) {
					clientShed.Add(1)
				}
			}
		}(w)
	}

	// harvest collects a replica's telemetry invariants. Call it only
	// after Close has returned: Close waits for every serving goroutine,
	// so the span ledger must balance — a started-but-never-finished
	// span means an instrumentation leak on some dispatch path. Shed
	// counts accumulate across replica A's incarnations (each rebind
	// starts a fresh registry).
	var serverShed uint64
	harvest := func(name string, s *collector.Server) {
		started, finished := s.Telemetry().SpanCounts()
		if started != finished {
			t.Errorf("%s: span leak after close: started %d finished %d", name, started, finished)
		}
		serverShed += s.Telemetry().Counter("server.admission.shed").Value()
	}

	// Drive the schedule: advance virtual time under the lock, mutate
	// the world outside it (killing a server waits for its in-flight
	// handlers, which may themselves be waiting on the lock).
	aliveA := true
	for i, ev := range events {
		mu.Lock()
		now := tb.Now()
		if ev.kind == 0 {
			tb.Faults.Blackhole(snmp.Addr(graph.NodeID(ev.agent)), now, now+ev.dur)
		}
		tb.Run(ev.dt)
		mu.Unlock()
		switch ev.kind {
		case 1:
			if aliveA {
				srvA.Close()
				harvest("replica A", srvA)
				aliveA = false
			}
		case 2:
			if !aliveA {
				if srvA, err = collector.ServeConfig(ls, addrA, scfg); err != nil {
					t.Fatalf("event %d: rebinding replica A: %v", i, err)
				}
				aliveA = true
			}
		case 3:
			var ckpt bytes.Buffer
			mu.Lock()
			err := tb.SaveCheckpoint(&ckpt)
			mu.Unlock()
			if err != nil {
				report("event %d: checkpoint under load: %v", i, err)
			}
		}
		time.Sleep(3 * time.Millisecond) // let workers interleave with this state
	}
	close(stop)
	wg.Wait()
	if !aliveA {
		if srvA, err = collector.ServeConfig(ls, addrA, scfg); err != nil {
			t.Fatalf("final rebind of replica A: %v", err)
		}
	}
	defer srvA.Close()

	violations.Lock()
	for _, m := range violations.msgs {
		t.Error(m)
	}
	n := len(violations.msgs)
	violations.Unlock()
	if n > 0 {
		t.Fatalf("%d invariant violations (seed %d)", n, *chaosSeed)
	}

	// Data age is monotone between polls: with both ends of the backbone
	// dark, nothing refreshes the channel, so its age must never move
	// backwards while time advances.
	now := tb.Now()
	tb.Faults.Blackhole(snmp.Addr("aspen"), now, now+100)
	tb.Faults.Blackhole(snmp.Addr("timberline"), now, now+100)
	tb.Run(5) // past the in-flight poll round
	prevAge := -1.0
	for i := 0; i < 10; i++ {
		tb.Run(1)
		age, err := tb.Modeler.DataAge(backbone)
		if err != nil {
			t.Fatalf("data age during outage: %v", err)
		}
		if age < prevAge {
			t.Fatalf("data age moved backwards during outage: %v -> %v", prevAge, age)
		}
		prevAge = age
	}

	// Recovery: once every fault window has passed and the breaker's
	// backoff (capped at 32 virtual seconds) has let the dead agents be
	// re-probed, a budgeted query answers normally again.
	tb.Run(240)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	mod := remos.NewModeler(remos.Config{Source: src})
	st, err := mod.AvailableBandwidthCtx(ctx, "m-1", "m-7", remos.TFHistory(10))
	if err != nil {
		t.Fatalf("query after chaos ended: %v", err)
	}
	if !st.Valid() || st.Accuracy < 0.5 {
		t.Fatalf("system did not recover after chaos: %+v", st)
	}

	// Telemetry invariants over the whole run. Close both replicas so
	// their span ledgers settle, then check the books: every ErrLoadShed
	// a worker saw must correspond to a server-side shed. The failover
	// client retries sheds on the other replica, so the servers may have
	// shed more often than workers observed — never less.
	srvA.Close()
	harvest("replica A (final)", srvA)
	srvB.Close()
	harvest("replica B", srvB)
	if observed := clientShed.Load(); observed > serverShed {
		t.Errorf("workers observed %d ErrLoadShed but servers recorded only %d sheds (seed %d)",
			observed, serverShed, *chaosSeed)
	} else {
		t.Logf("chaos telemetry: %d client-observed sheds, %d server-side sheds", observed, serverShed)
	}
}

// TestChaosWatchBackpressure puts the subscription plane under the
// same kind of hostility: SNMP loss and flap faults corrupting the
// measurement plane, epochs churning at poll rate, one subscriber
// wedged solid, and the serving replica killed mid-stream. Invariants:
// the stalled subscriber is evicted (typed stall counter) while the
// healthy one keeps receiving; server-side queue memory stays bounded
// by the configured depth; the failover watch re-subscribes onto the
// surviving replica with a Resync mark; a fresh subscription after the
// chaos recovers; and tearing everything down leaks no goroutines.
func TestChaosWatchBackpressure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(20)

	var mu sync.Mutex
	ls := &lockedSource{mu: &mu, col: tb.Collector}
	// lockedSource hides the collector's data version, so the servers
	// fall back to synthetic poll-rate epochs: every WatchPollInterval
	// is a new epoch — a free churn generator for this test.
	const queueDepth = 4
	scfg := collector.ServerConfig{
		MaxInflight: 8, QueueDepth: 16, DefaultBudget: 2 * time.Second,
		WatchQueueDepth: queueDepth, WatchWriteDeadline: 150 * time.Millisecond,
		WatchPollInterval: 2 * time.Millisecond,
	}
	srvA, err := collector.ServeConfig(ls, "127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	addrA := srvA.Addr()
	srvB, err := collector.ServeConfig(fatSummarySource{ls}, "127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}

	// Identity probe order (no initial shuffle, unlike DialCollectors):
	// the healthy watch must deterministically land on replica A so that
	// killing A mid-stream exercises the resubscribe path. The shuffle
	// itself is covered by TestFailoverShuffleDeterministic.
	src, err := collector.DialFailover([]string{addrA, srvB.Addr()}, collector.FailoverConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy subscriber through the failover layer: replica A serves
	// it first (preference order).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := src.Watch(ctx, remos.WatchRequest{Kind: remos.WatchVersion})
	if err != nil {
		t.Fatal(err)
	}

	// Consume the healthy stream concurrently, verifying mark/sequence
	// coherence: Seq must only jump when the update admits a loss
	// (Overflowed) or a new stream (Resync).
	var updates, resyncs, overflows atomic.Uint64
	var seqViolation atomic.Value
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		var lastSeq uint64
		sawStream := false
		for u := range h.C {
			if u.Final {
				return
			}
			updates.Add(1)
			if u.Resync {
				resyncs.Add(1)
				sawStream = false
			}
			if u.Overflowed {
				overflows.Add(1)
			}
			if sawStream && u.Seq != lastSeq+1 && !u.Overflowed {
				seqViolation.Store(fmt.Sprintf("seq %d after %d without Overflowed/Resync", u.Seq, lastSeq))
			}
			lastSeq = u.Seq
			sawStream = true
			// A deliberately slow consumer: epochs churn every 2ms,
			// we read an order of magnitude slower.
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Stalled subscriber: subscribes on replica B and then never reads.
	rawConn, err := net.Dial("tcp", srvB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rawConn.Close()
	if tc, ok := rawConn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	if err := collector.SubscribeRaw(rawConn, remos.WatchRequest{Kind: collector.WatchRegionSummary}); err != nil {
		t.Fatalf("raw subscribe: %v", err)
	}

	// Chaos: loss + flaps on the measurement plane while virtual time
	// (and with it the poll-rate epoch churn) advances.
	rng := rand.New(rand.NewSource(*chaosSeed + 1))
	agents := []string{"aspen", "timberline", "whiteface", "m-3", "m-8"}
	killed := false
	for i := 0; i < 60; i++ {
		mu.Lock()
		now := tb.Now()
		switch i % 3 {
		case 0:
			tb.Faults.Loss(snmp.Addr(graph.NodeID(agents[rng.Intn(len(agents))])), 0.3+rng.Float64()*0.4)
		case 1:
			tb.Faults.FlapAt(snmp.Addr(graph.NodeID(agents[rng.Intn(len(agents))])), now, 1+rng.Float64()*3)
		}
		tb.Run(0.5 + rng.Float64())
		mu.Unlock()
		if i == 30 && !killed {
			// Kill the replica serving the healthy watch mid-stream.
			srvA.Close()
			killed = true
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stalled subscriber must have been evicted by now — its socket
	// jammed thousands of epochs ago — and the server-side queue gauge
	// must never have exceeded the configured depth.
	evicted := srvB.Telemetry().Counter("server.watch.evictions.stalled").Value() +
		srvB.Telemetry().Counter("server.watch.evictions.error").Value()
	deadline := time.Now().Add(10 * time.Second)
	for evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never evicted under churn")
		}
		time.Sleep(10 * time.Millisecond)
		evicted = srvB.Telemetry().Counter("server.watch.evictions.stalled").Value() +
			srvB.Telemetry().Counter("server.watch.evictions.error").Value()
	}
	if peak := srvB.Telemetry().Gauge("server.watch.queue.peak").Value(); peak > queueDepth {
		t.Errorf("server queue peaked at %v entries (configured depth %d)", peak, queueDepth)
	}

	// The healthy watch survived the replica kill: it re-subscribed on
	// B and marked the switchover.
	deadline = time.Now().Add(10 * time.Second)
	for resyncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watch never resynced after replica kill (%d updates)", updates.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := seqViolation.Load(); v != nil {
		t.Fatalf("sequence coherence violated: %v (seed %d)", v, *chaosSeed)
	}
	if updates.Load() == 0 {
		t.Fatal("healthy subscriber starved during chaos")
	}
	// A consumer 10x slower than the churn must have been told about
	// its losses rather than silently skipped ahead.
	if overflows.Load() == 0 {
		t.Error("slow consumer never saw an Overflowed mark despite 10x churn")
	}

	// Recovery: faults cleared, replica A back — a fresh subscription
	// answers promptly.
	for _, a := range agents {
		tb.Faults.Restore(snmp.Addr(graph.NodeID(a)))
	}
	srvA2, err := collector.ServeConfig(ls, addrA, scfg)
	if err != nil {
		t.Fatalf("rebinding replica A after chaos: %v", err)
	}
	h2, err := src.Watch(ctx, remos.WatchRequest{Kind: remos.WatchVersion})
	if err != nil {
		t.Fatalf("post-chaos subscribe: %v", err)
	}
	select {
	case u, ok := <-h2.C:
		if !ok {
			t.Fatalf("post-chaos watch closed immediately: %v", h2.Err())
		}
		if u.Final {
			t.Fatal("post-chaos watch began with Final")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-chaos watch delivered nothing")
	}
	h2.Cancel()

	// Teardown: graceful drain delivers Final to the live watch, and
	// afterwards nothing may linger — no pusher, evaluator, forwarder,
	// or read-loop goroutines.
	cancel()
	h.Cancel()
	select {
	case <-consumerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy consumer did not finish after cancel")
	}
	src.Close()
	srvA2.Close()
	srvB.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after drain: %d -> %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
