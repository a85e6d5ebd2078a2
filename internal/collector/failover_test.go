package collector

import (
	"context"
	"testing"
	"time"

	"repro/internal/traffic"
)

// failoverCfg is tuned for fast tests: quick call deadlines, an eager
// background prober.
func failoverCfg() FailoverConfig {
	return FailoverConfig{
		Client:        ClientConfig{CallTimeout: 2 * time.Second},
		ProbeInterval: 25 * time.Millisecond,
		BackoffBase:   25 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
	}
}

// servedRig starts a collector rig and serves it on n replica
// endpoints.
func servedRig(t *testing.T, n int) (*rig, []*Server) {
	t.Helper()
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.RunUntil(30)
	var srvs []*Server
	for i := 0; i < n; i++ {
		srv, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close()
		}
	})
	return r, srvs
}

func TestFailoverMidStream(t *testing.T) {
	r, srvs := servedRig(t, 2)
	addrs := []string{srvs[0].Addr(), srvs[1].Addr()}
	f, err := DialFailover(addrs, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	topo, _ := r.col.TopologyCtx(context.Background())
	k := keyFor(t, topo, "timberline", "whiteface")

	// A stream of queries with the primary killed in the middle: every
	// query must be answered, the failover invisible to the caller.
	for i := 0; i < 10; i++ {
		if i == 5 {
			srvs[0].Close()
		}
		if _, err := f.UtilizationCtx(context.Background(), k, 10); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if _, err := f.TopologyCtx(context.Background()); err != nil {
			t.Fatalf("query %d (topo): %v", i, err)
		}
	}
	reps := f.Replicas()
	if reps[0].State == Healthy {
		t.Fatalf("dead primary still marked healthy: %+v", reps[0])
	}
	if reps[1].State != Healthy || reps[1].Calls == 0 {
		t.Fatalf("secondary did not take over: %+v", reps[1])
	}
}

func TestFailoverReprobesRestartedPrimary(t *testing.T) {
	r, srvs := servedRig(t, 2)
	primaryAddr := srvs[0].Addr()
	f, err := DialFailover([]string{primaryAddr, srvs[1].Addr()}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	topo, _ := r.col.TopologyCtx(context.Background())
	k := keyFor(t, topo, "timberline", "whiteface")

	srvs[0].Close()
	// Drive the primary to Down.
	for i := 0; i < 4; i++ {
		if _, err := f.UtilizationCtx(context.Background(), k, 10); err != nil {
			t.Fatalf("query %d during outage: %v", i, err)
		}
	}
	if reps := f.Replicas(); reps[0].State != Down {
		t.Fatalf("primary not Down after repeated failures: %+v", reps[0])
	}

	// Restart the primary on its old address; the background prober
	// must notice and restore it to the preference order.
	srv, err := ServeConfig(r.col, primaryAddr, ServerConfig{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", primaryAddr, err)
	}
	defer srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if reps := f.Replicas(); reps[0].State == Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted primary never re-probed: %+v", f.Replicas()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And it is preferred again: the next call lands on it.
	before := f.Replicas()[0].Calls
	if _, err := f.UtilizationCtx(context.Background(), k, 10); err != nil {
		t.Fatal(err)
	}
	if after := f.Replicas()[0].Calls; after <= before {
		t.Fatalf("recovered primary not reused: calls %d -> %d", before, after)
	}
}

func TestFailoverAllReplicasDown(t *testing.T) {
	r, srvs := servedRig(t, 2)
	f, err := DialFailover([]string{srvs[0].Addr(), srvs[1].Addr()}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srvs[0].Close()
	srvs[1].Close()

	topo, _ := r.col.TopologyCtx(context.Background())
	k := keyFor(t, topo, "timberline", "whiteface")
	start := time.Now()
	if _, err := f.UtilizationCtx(context.Background(), k, 10); err == nil {
		t.Fatal("query succeeded with every replica down")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("all-down failure took %v", elapsed)
	}
}

// TestFailoverAppErrorIsAuthoritative: an application-level error from
// a healthy replica (unknown channel) must be returned, not retried on
// the next replica as if the replica were broken.
func TestFailoverAppErrorIsAuthoritative(t *testing.T) {
	_, srvs := servedRig(t, 2)
	f, err := DialFailover([]string{srvs[0].Addr(), srvs[1].Addr()}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.UtilizationCtx(context.Background(), ChannelKey{Global: 999}, 5); err == nil {
		t.Fatal("bogus channel succeeded")
	}
	reps := f.Replicas()
	if reps[0].State != Healthy || reps[0].Failures != 0 {
		t.Fatalf("app-level error counted against the replica: %+v", reps[0])
	}
	if reps[1].Calls != 0 {
		t.Fatalf("app-level error caused failover: %+v", reps[1])
	}
}

// TestFailoverBusyReplicaSkipped: a replica at its connection cap
// answers busy; the failover layer must move to the next replica.
func TestFailoverBusyReplicaSkipped(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(10)

	capped, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	spare, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()

	// Occupy the capped replica's only slot.
	occupier, err := Dial(capped.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	if _, err := occupier.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	f, err := DialFailover([]string{capped.Addr(), spare.Addr()}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("busy primary not failed over: %v", err)
	}
	if reps := f.Replicas(); reps[1].Calls == 0 {
		t.Fatalf("secondary unused despite busy primary: %+v", reps)
	}
}

func TestDialFailoverNeedsOneReplica(t *testing.T) {
	if _, err := DialFailover(nil, FailoverConfig{}); err == nil {
		t.Fatal("empty address list accepted")
	}
	// Unreachable-only replica set fails at dial time.
	if f, err := DialFailover([]string{"127.0.0.1:1"}, failoverCfg()); err == nil {
		f.Close()
		t.Fatal("dial succeeded with no reachable replica")
	}
	// One live replica is enough even when another is unreachable.
	_, srvs := servedRig(t, 1)
	f, err := DialFailover([]string{"127.0.0.1:1", srvs[0].Addr()}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas()
	if reps[0].State != Down {
		t.Fatalf("unreachable replica not marked down at dial: %+v", reps[0])
	}
}

// TestFailoverShuffleDeterministic: with Shuffle set, the initial
// routing order is a seeded permutation of the address list — the same
// seed always routes the first call to the same endpoint, Replicas()
// stays in caller order, and some seed routes away from index 0 (the
// anti-stampede point of the shuffle).
func TestFailoverShuffleDeterministic(t *testing.T) {
	_, srvs := servedRig(t, 4)
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		addrs[i] = s.Addr()
	}
	firstServed := func(seed int64) int {
		cfg := failoverCfg()
		cfg.Shuffle = true
		cfg.Seed = seed
		f, err := DialFailover(addrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.TopologyCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		reps := f.Replicas()
		for i, r := range reps {
			if r.Addr != addrs[i] {
				t.Fatalf("Replicas()[%d] = %s, want caller order %s", i, r.Addr, addrs[i])
			}
			if r.Calls > 0 {
				return i
			}
		}
		t.Fatal("no replica recorded the call")
		return -1
	}
	shuffledOff := false
	for seed := int64(1); seed <= 8; seed++ {
		a, b := firstServed(seed), firstServed(seed)
		if a != b {
			t.Fatalf("seed %d routed to %d then %d: shuffle not deterministic", seed, a, b)
		}
		if a != 0 {
			shuffledOff = true
		}
	}
	if !shuffledOff {
		t.Fatal("no seed in 1..8 moved routing off index 0: shuffle inert")
	}
}

// TestFailoverNotLeaderHint: a standby's typed ErrNotLeader refusal
// carries the leader's address, and the failover client jumps straight
// to it — the other standby in between is never tried.
func TestFailoverNotLeaderHint(t *testing.T) {
	r, srvs := servedRig(t, 1)
	leaderAddr := srvs[0].Addr()
	standby := func() *Server {
		srv, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{
			Gate: func() error { return &NotLeaderError{Leader: leaderAddr} },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	s1, s2 := standby(), standby()

	// Standbys first, leader last, no shuffle: the first attempt hits a
	// standby and must be redirected by the hint, not by scanning.
	f, err := DialFailover([]string{s1.Addr(), s2.Addr(), leaderAddr}, failoverCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("query through standby: %v", err)
	}
	reps := f.Replicas()
	if reps[2].Calls != 1 {
		t.Fatalf("leader answered %d calls, want 1: %+v", reps[2].Calls, reps)
	}
	snap := f.Telemetry().Snapshot()
	if got := snap.Counters["failover.refusals.not_leader"]; got != 1 {
		t.Fatalf("failover.refusals.not_leader = %d, want 1 (hint must skip the second standby)", got)
	}
	// The refused standby is not marked down: it answered, typed.
	if reps[0].State == Down {
		t.Fatalf("refusing standby marked down: %+v", reps[0])
	}
}
