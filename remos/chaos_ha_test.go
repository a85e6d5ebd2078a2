package remos_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/ha"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/remos"
)

// countingTransport records the virtual timestamp of every SNMP
// request a collector issues, so the drill can prove two collectors
// never polled concurrently: zero overlap means the deposed leader's
// last request strictly precedes the successor's first.
type countingTransport struct {
	inner snmp.Transport
	clk   *simclock.Clock

	mu    sync.Mutex
	times []float64
}

func (ct *countingTransport) RoundTrip(addr string, req []byte) ([]byte, error) {
	// Polls run inside clk.Advance under the driver lock, so reading
	// the clock here is ordered; the recorder has its own lock because
	// the test's assertions read it from outside.
	now := float64(ct.clk.Now())
	ct.mu.Lock()
	ct.times = append(ct.times, now)
	ct.mu.Unlock()
	return ct.inner.RoundTrip(addr, req)
}

func (ct *countingTransport) stats() (n int, first, last float64) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if len(ct.times) == 0 {
		return 0, 0, 0
	}
	return len(ct.times), ct.times[0], ct.times[len(ct.times)-1]
}

// haSource is the feedSource plus the HA status passthrough, so the
// server stamps lease terms on responses and watch updates.
type haSource struct {
	*feedSource
}

func (s *haSource) HAStatus() (term uint64, leader bool, ok bool) {
	return s.col.HAStatus()
}

// TestChaosLeaderFailover is the hot-standby acceptance drill: a
// leader/standby collector pair over one simulated estate, a read
// replica fed by whichever leads, and a failover client. The leader is
// killed mid-stream; the standby must promote within the lease bound
// and bump the term; the replica must resync exactly once onto the new
// leader; a revived zombie of the old leader must be term-fenced by
// clients; and the healed old leader must rejoin as standby. All of it
// with zero overlapping poll rounds and no goroutine leaks.
func TestChaosLeaderFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const ttl, hb = 3.0, 1.0

	// --- the shared estate: one virtual network, two collectors ---
	clk := simclock.New()
	net, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	traffic.Blast(net, "m-6", "m-8", 60e6)
	mkCol := func(tr snmp.Transport) *collector.Collector {
		return collector.New(collector.Config{
			Client:        snmp.NewClient(tr, snmp.DefaultCommunity),
			Clock:         clk,
			Addrs:         addrs,
			PollPeriod:    2,
			PerHopLatency: topology.PerHopLatency,
		})
	}
	trA := &countingTransport{inner: att.Registry, clk: clk}
	trB := &countingTransport{inner: att.Registry, clk: clk}
	colA, colB := mkCol(trA), mkCol(trB)

	var mu sync.Mutex // serializes clock driver, servers, and HA sync
	srcA := &haSource{&feedSource{&lockedSource{mu: &mu, col: colA}}}
	srcB := &haSource{&feedSource{&lockedSource{mu: &mu, col: colB}}}

	// Gates read the node through an atomic so a server can exist
	// before (and survive re-creation of) its HA node.
	var nodePtrA, nodePtrB atomic.Pointer[ha.Node]
	gateFor := func(p *atomic.Pointer[ha.Node]) func() error {
		return func() error {
			if n := p.Load(); n != nil {
				return n.Gate()
			}
			return &collector.NotLeaderError{}
		}
	}
	scfg := func(p *atomic.Pointer[ha.Node]) collector.ServerConfig {
		return collector.ServerConfig{DefaultBudget: 2 * time.Second, Gate: gateFor(p)}
	}
	srvA, err := collector.ServeConfig(srcA, "127.0.0.1:0", scfg(&nodePtrA))
	if err != nil {
		t.Fatal(err)
	}
	addrA := srvA.Addr()
	srvB, err := collector.ServeConfig(srcB, "127.0.0.1:0", scfg(&nodePtrB))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	addrB := srvB.Addr()

	// --- the pair ---
	lease := ha.NewMemoryLease(clk)
	serialize := func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	}
	mkNode := func(col *collector.Collector, id, peer string, onPromote func(uint64)) *ha.Node {
		n, err := ha.New(ha.Config{
			Collector: col,
			Clock:     clk,
			Lease:     lease,
			ID:        id,
			PeerAddr:  peer,
			LeaseTTL:  ttl,
			Heartbeat: hb,
			Client:    collector.ClientConfig{CallTimeout: 2 * time.Second},
			Serialize: serialize,
			OnPromote: onPromote,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var promotedAt simclock.Time // written under mu (OnPromote runs in the heartbeat)
	nodeA := mkNode(colA, addrA, addrB, nil)
	nodeB := mkNode(colB, addrB, addrA, func(term uint64) {
		if term > 1 {
			promotedAt = clk.Now()
		}
	})
	nodePtrA.Store(nodeA)
	nodePtrB.Store(nodeB)
	mu.Lock()
	err = nodeA.Start(true)
	mu.Unlock()
	if err != nil {
		t.Fatalf("start leader: %v", err)
	}
	mu.Lock()
	err = nodeB.Start(false)
	mu.Unlock()
	if err != nil {
		t.Fatalf("start standby: %v", err)
	}

	// Real-time clock driver, 20 virtual seconds per wall second.
	stopClock := func() {}
	{
		done := make(chan struct{})
		var wg sync.WaitGroup
		var once sync.Once
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					mu.Lock()
					clk.Advance(0.2)
					mu.Unlock()
				case <-done:
					return
				}
			}
		}()
		stopClock = func() { once.Do(func() { close(done) }); wg.Wait() }
	}
	defer stopClock()

	// --- replica and failover client ---
	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddrs:     []string{addrA, addrB},
		MaxStaleness:  5 * time.Second,
		LagThreshold:  time.Second,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          *chaosSeed,
		Telemetry:     telemetry.NewRegistry(),
	})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = rep.WaitSynced(ctx)
	cancel()
	if err != nil {
		t.Fatalf("replica never synced off the leader: %v", err)
	}

	fsrc, err := collector.DialFailover([]string{addrA, addrB}, collector.FailoverConfig{
		Client:        collector.ClientConfig{CallTimeout: 2 * time.Second},
		ProbeInterval: 25 * time.Millisecond,
		BackoffBase:   25 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
		Seed:          *chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrc.Close()

	// A live watch through the failover layer: its updates carry the
	// term, and across the failover the client must see terms only
	// ever increase — the client-visible face of split-brain fencing.
	topo, err := fsrc.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var backbone remos.ChannelKey
	for _, l := range topo.Graph.Links() {
		if l.A == "aspen" && l.B == "timberline" {
			backbone = topo.Key(l, graph.AtoB)
		}
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wh, err := fsrc.Watch(wctx, collector.WatchRequest{Kind: collector.WatchUtil, Key: backbone, Span: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wmu sync.Mutex
	var watchTerms []uint64
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for u := range wh.C {
			if u.Term != 0 {
				wmu.Lock()
				watchTerms = append(watchTerms, u.Term)
				wmu.Unlock()
			}
		}
	}()

	// --- steady state ---
	waitUntil(t, 10*time.Second, "standby synced from leader feed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		_, err := colB.TopologyCtx(context.Background())
		return err == nil
	})
	if n, _, _ := trB.stats(); n != 0 {
		t.Fatalf("standby polled agents %d times before promotion", n)
	}
	waitUntil(t, 10*time.Second, "leader serving backbone samples", func() bool {
		_, err := fsrc.UtilizationCtx(context.Background(), backbone, 10)
		return err == nil
	})
	// The standby's first payload dates from before the leader's first
	// sample; wait for the delta that carries the backbone window, or a
	// promotion right now would answer "unknown channel" until the new
	// leader's own second poll round.
	waitUntil(t, 10*time.Second, "standby holds the backbone window", func() bool {
		mu.Lock()
		defer mu.Unlock()
		_, err := colB.SamplesCtx(context.Background(), backbone)
		return err == nil
	})
	if term, leader, on := colA.HAStatus(); !on || !leader || term != 1 {
		t.Fatalf("leader HA status: term=%d leader=%v on=%v", term, leader, on)
	}

	// --- kill the leader mid-stream ---
	mu.Lock()
	nodeA.Kill()
	killedAt := clk.Now()
	mu.Unlock()
	pollsA, _, lastPollA := trA.stats()
	srvA.Close()

	waitUntil(t, 10*time.Second, "standby promotion", func() bool {
		return nodeB.Role() == ha.RoleLeader
	})
	mu.Lock()
	promoted := promotedAt
	mu.Unlock()
	if promoted == 0 {
		t.Fatal("OnPromote never fired")
	}
	if d := float64(promoted - killedAt); d > ttl+hb+1e-9 {
		t.Fatalf("promotion took %.2f virtual seconds; bound is %.2f", d, ttl+hb)
	}
	if nodeB.Term() != 2 {
		t.Fatalf("promoted term = %d, want 2", nodeB.Term())
	}

	// Zero overlapping poll rounds: A's requests all precede the kill,
	// B's all follow the promotion.
	if n, _, last := trA.stats(); n != pollsA || last > float64(killedAt) {
		t.Fatalf("dead leader polled after kill: %d -> %d requests, last at t=%.2f (killed t=%.2f)",
			pollsA, n, last, float64(killedAt))
	}
	waitUntil(t, 10*time.Second, "new leader polling", func() bool {
		n, _, _ := trB.stats()
		return n > 0
	})
	if _, first, _ := trB.stats(); first <= lastPollA {
		t.Fatalf("poll overlap: B first polled at t=%.2f, A last at t=%.2f", first, lastPollA)
	}
	if _, first, _ := trB.stats(); first < float64(promoted) {
		t.Fatalf("B polled at t=%.2f before its promotion at t=%.2f", first, float64(promoted))
	}

	// The replica rotates to the new leader, resyncing exactly once.
	waitUntil(t, 10*time.Second, "replica on the new term", func() bool {
		return rep.Status().Term == 2
	})
	if got := rep.Telemetry().Snapshot().Counters["replica.resyncs"]; got != 1 {
		t.Fatalf("replica.resyncs = %d, want exactly 1 (counters: %v)",
			got, rep.Telemetry().Snapshot().Counters)
	}

	// Queries keep working against the new leader.
	if _, err := fsrc.UtilizationCtx(context.Background(), backbone, 10); err != nil {
		t.Fatalf("post-failover query: %v", err)
	}

	// --- zombie: revive the deposed leader's server, no HA node ---
	// Its collector still believes it leads at term 1, so its answers
	// are stamped with the stale term; the failover client must fence
	// them and stay on the term-2 leader.
	var srvZ *collector.Server
	waitUntil(t, 5*time.Second, "rebinding the old leader's address", func() bool {
		s, err := collector.ServeConfig(srcA, addrA, collector.ServerConfig{DefaultBudget: 2 * time.Second})
		if err != nil {
			return false
		}
		srvZ = s
		return true
	})
	fenced := func() uint64 {
		return fsrc.Telemetry().Snapshot().Counters["failover.fencing.rejections"]
	}
	waitUntil(t, 10*time.Second, "stale-term answers fenced", func() bool {
		if _, err := fsrc.UtilizationCtx(context.Background(), backbone, 10); err != nil {
			t.Fatalf("query during zombie phase: %v", err)
		}
		return fenced() > 0
	})
	if n, _, _ := trA.stats(); n != pollsA {
		t.Fatal("zombie server revived polling")
	}
	srvZ.Close()

	// --- heal: the old leader rejoins, asking for leadership ---
	// The lease is held at term 2, so it must land as standby and sync
	// its collector off the new leader.
	nodeA2 := mkNode(colA, addrA, addrB, nil)
	nodePtrA.Store(nodeA2)
	var srvA2 *collector.Server
	waitUntil(t, 5*time.Second, "re-serving the healed leader", func() bool {
		s, err := collector.ServeConfig(srcA, addrA, scfg(&nodePtrA))
		if err != nil {
			return false
		}
		srvA2 = s
		return true
	})
	defer srvA2.Close()
	mu.Lock()
	err = nodeA2.Start(true)
	mu.Unlock()
	if err != nil {
		t.Fatalf("restart old leader: %v", err)
	}
	if nodeA2.Role() != ha.RoleStandby {
		t.Fatalf("healed old leader grabbed leadership: role=%v", nodeA2.Role())
	}
	waitUntil(t, 10*time.Second, "healed standby synced to term 2", func() bool {
		term, leader, on := colA.HAStatus()
		return on && !leader && term == 2
	})
	waitUntil(t, 10*time.Second, "healed standby applied the leader feed", func() bool {
		return colA.Telemetry().Snapshot().Counters["collector.feed.applied.full"] > 0
	})
	if nodeB.Role() != ha.RoleLeader || nodeB.Term() != 2 {
		t.Fatalf("leadership moved during heal: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
	if got := colB.Telemetry().Snapshot().Counters["ha.promotions"]; got != 1 {
		t.Fatalf("ha.promotions = %d, want 1", got)
	}
	// The feed-sync side of the ha.* and collector.feed.* names: the new
	// leader lost its feed when the old one died (a sync error, not a
	// resync), and the healed standby follows the feed in deltas at the
	// observed term.
	if got := colB.Telemetry().Snapshot().Counters["ha.sync.errors"]; got == 0 {
		t.Fatal("ha.sync.errors not counted when the leader's feed died")
	}
	waitUntil(t, 10*time.Second, "healed standby applying feed deltas", func() bool {
		return colA.Telemetry().Snapshot().Counters["collector.feed.applied.delta"] > 0
	})
	if g := colA.Telemetry().Snapshot().Gauges; g["ha.role"] != 0 || g["ha.term"] != 2 {
		t.Fatalf("healed standby gauges: ha.role=%v ha.term=%v, want 0 and 2", g["ha.role"], g["ha.term"])
	}
	if n, _, _ := trA.stats(); n != pollsA {
		t.Fatal("rejoined standby polled agents")
	}

	// Watch-stream fencing: the terms delivered to the client never
	// decreased, and both terms were observed across the failover.
	waitUntil(t, 10*time.Second, "watch stream reached term 2", func() bool {
		wmu.Lock()
		defer wmu.Unlock()
		return len(watchTerms) > 0 && watchTerms[len(watchTerms)-1] == 2
	})
	wmu.Lock()
	for i := 1; i < len(watchTerms); i++ {
		if watchTerms[i] < watchTerms[i-1] {
			t.Fatalf("watch terms went backwards: %v", watchTerms)
		}
	}
	sawTerm1 := watchTerms[0] == 1
	wmu.Unlock()
	if !sawTerm1 {
		t.Log("watch stream started after the failover; term-1 phase unobserved")
	}

	// --- exact convergence: freeze time, let the feed drain ---
	stopClock()
	waitUntil(t, 10*time.Second, "replica caught up to the leader's epoch", func() bool {
		v, ok := colB.DataVersion()
		return ok && rep.Status().Epoch == v
	})
	mu.Lock()
	topoB, errTopoB := colB.TopologyCtx(context.Background())
	samplesB, errSampB := colB.SamplesCtx(context.Background(), backbone)
	mu.Unlock()
	if errTopoB != nil || errSampB != nil {
		t.Fatalf("leader state read: %v / %v", errTopoB, errSampB)
	}
	topoR, err := rep.TopologyCtx(context.Background())
	if err != nil {
		t.Fatalf("replica topology: %v", err)
	}
	if len(topoR.Graph.Nodes()) != len(topoB.Graph.Nodes()) {
		t.Fatalf("replica topology diverged: %d nodes vs %d",
			len(topoR.Graph.Nodes()), len(topoB.Graph.Nodes()))
	}
	samplesR, err := rep.SamplesCtx(context.Background(), backbone)
	if err != nil {
		t.Fatalf("replica samples: %v", err)
	}
	if len(samplesR) != len(samplesB) {
		t.Fatalf("replica has %d backbone samples, leader %d", len(samplesR), len(samplesB))
	}
	for i := range samplesB {
		if samplesR[i] != samplesB[i] {
			t.Fatalf("sample %d diverged: replica %+v, leader %+v", i, samplesR[i], samplesB[i])
		}
	}

	// --- teardown and goroutine hygiene ---
	wcancel()
	wh.Cancel()
	<-watchDone
	fsrc.Close()
	rep.Close()
	srvA2.Close()
	srvB.Close()
	mu.Lock()
	nodeA2.Kill()
	nodeB.Kill()
	mu.Unlock()
	nodeA2.Wait()
	nodeB.Wait()
	waitUntil(t, 10*time.Second, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
