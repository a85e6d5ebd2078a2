package remos_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/remos"
)

// TestChaosReplicaPartition is the replication chaos drill: a replica
// under continuous concurrent query load has its feed blackholed past
// the staleness fence, heals, and must come back coherent. The global
// invariants, checked across every concurrently issued query:
//
//   - zero unmarked-fresh answers: once the feed is dark, every
//     successful answer carries a data age that includes the partition
//     (ages only grow while no updates apply), and past the fence
//     every query is the typed ErrStaleReplica — never stale data
//     presented as fresh, never an untyped error;
//   - the failover client keeps answering throughout by routing to the
//     collector, without marking the replica Down;
//   - after the heal the replica converges to the collector's exact
//     epoch and sample-for-sample window contents (no Seq gaps — a
//     missed delta would leave a hole the comparison catches);
//   - a replica restarted mid-partition cold-syncs once the feed
//     heals;
//   - nothing leaks: goroutine count returns to baseline.
//
// Run it under -race: the interesting bugs here are feed-apply vs
// query-path races on the copy-on-write store.
func TestChaosReplicaPartition(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(20)

	var mu sync.Mutex
	ls := &feedSource{&lockedSource{mu: &mu, col: tb.Collector}}
	feedSrv, err := collector.Serve(ls, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feedAddr := feedSrv.Addr()
	querySrv, err := collector.Serve(ls, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer querySrv.Close()
	stopClock := driveClock(tb, &mu)
	defer stopClock()

	const fence = time.Second
	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr:      feedAddr,
		MaxStaleness:  fence,
		LagThreshold:  fence / 4,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          *chaosSeed,
	})
	rep.Start()
	defer rep.Close()
	waitUntil(t, 10*time.Second, "replica synced", func() bool {
		return rep.State() == remos.ReplicaLive
	})

	topo, err := rep.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var key collector.ChannelKey
	for _, l := range topo.Graph.Links() {
		if (l.A == "m-6" && l.B == "timberline") || (l.A == "timberline" && l.B == "m-6") {
			key = topo.Key(l, l.DirFrom("m-6"))
		}
	}

	// Continuous concurrent query load on the replica for the whole
	// drill: 4 workers recording (age, error) outcomes with a phase
	// stamp. Phase 0 = live, 1 = partitioned, 2 = healed.
	var phase atomic.Int32
	var killWall atomic.Int64 // wall nanos of the feed kill
	type outcome struct {
		phase   int32
		age     float64
		stale   bool
		err     error
		atNanos int64
	}
	var outMu sync.Mutex
	var outcomes []outcome
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				st, err := rep.UtilizationCtx(context.Background(), key, 6)
				o := outcome{phase: phase.Load(), atNanos: time.Now().UnixNano()}
				if err != nil {
					o.err = err
					o.stale = errors.Is(err, remos.ErrStaleReplica)
				} else {
					o.age = st.Age
				}
				outMu.Lock()
				outcomes = append(outcomes, o)
				outMu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Failover client: replica preferred, collector fallback; must
	// answer in every phase.
	fsrc, err := remos.DialCollectors(mustServe(t, rep), querySrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fsrc.Close()

	// Phase 0: live for a while.
	time.Sleep(400 * time.Millisecond)
	if _, err := fsrc.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("live-phase failover query: %v", err)
	}

	// Phase 1: blackhole the feed past the fence.
	phase.Store(1)
	killWall.Store(time.Now().UnixNano())
	feedSrv.Close()
	// A second replica restarted "mid-delta": it must sit in Syncing
	// (refusing typed) until the heal, then cold-sync.
	rep2 := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr:      feedAddr,
		MaxStaleness:  fence,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          *chaosSeed + 1,
	})
	rep2.Start()
	defer rep2.Close()
	if _, err := rep2.UtilizationCtx(context.Background(), key, 6); !errors.Is(err, remos.ErrStaleReplica) {
		t.Fatalf("unsynced replica answered: err = %v, want ErrStaleReplica", err)
	}

	deadline := time.Now().Add(fence + 800*time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := fsrc.TopologyCtx(context.Background()); err != nil {
			t.Fatalf("failover query during partition: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if rep.State() != remos.ReplicaFenced {
		t.Fatalf("replica state %v after %v dark, want fenced", rep.State(), fence+800*time.Millisecond)
	}
	if st := fsrc.Replicas()[0].State; st == collector.Down {
		t.Fatal("partitioned replica marked Down; stale refusals must not down it")
	}

	// Phase 2: heal. Both replicas must converge.
	phase.Store(2)
	feedSrv2, err := collector.Serve(ls, feedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer feedSrv2.Close()
	waitUntil(t, 10*time.Second, "replica live again", func() bool {
		return rep.State() == remos.ReplicaLive
	})
	waitUntil(t, 10*time.Second, "restarted replica synced", func() bool {
		return rep2.State() == remos.ReplicaLive
	})
	close(stopLoad)
	loadWG.Wait()

	// Audit the recorded outcomes.
	killAt := killWall.Load()
	var preFenceOK, fencedRefusals int
	for _, o := range outcomes {
		switch o.phase {
		case 1:
			sincePartition := time.Duration(o.atNanos - killAt).Seconds()
			if o.err == nil {
				// Every pre-fence answer must wear the partition in its
				// age: ages only move forward while the feed is dark.
				// (Small slack for an update applied just before kill.)
				if o.age+0.25 < sincePartition {
					t.Fatalf("unmarked-fresh answer %.2fs into partition: age %.2fs", sincePartition, o.age)
				}
				preFenceOK++
			} else if o.stale {
				fencedRefusals++
			} else if !remos.IsLifecycleError(o.err) {
				t.Fatalf("untyped error during partition: %v", o.err)
			}
		case 2:
			if o.err != nil && !o.stale && !remos.IsLifecycleError(o.err) {
				t.Fatalf("untyped error after heal: %v", o.err)
			}
		}
	}
	if preFenceOK == 0 {
		t.Fatal("no degraded-marked answers recorded before the fence")
	}
	if fencedRefusals == 0 {
		t.Fatal("no typed stale refusals recorded after the fence")
	}

	// Convergence: freeze the clock, let the feed drain, and require
	// exact agreement — same epoch, same samples. A single missed or
	// reordered delta (a Seq gap the resync logic failed to catch)
	// breaks this.
	stopClock()
	waitUntil(t, 10*time.Second, "replica drained to collector epoch", func() bool {
		mu.Lock()
		colVer, _ := tb.Collector.DataVersion()
		mu.Unlock()
		repVer, _ := rep.DataVersion()
		rep2Ver, _ := rep2.DataVersion()
		return repVer == colVer && rep2Ver == colVer
	})
	mu.Lock()
	want, err := tb.Collector.SamplesCtx(context.Background(), key)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*remos.ReadReplica{"partitioned": rep, "restarted": rep2} {
		got, err := r.SamplesCtx(context.Background(), key)
		if err != nil {
			t.Fatalf("%s replica samples: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s replica holds %d samples, collector %d — a delta was lost",
				name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s replica sample %d = %+v, collector %+v", name, i, got[i], want[i])
			}
		}
	}

	// Teardown: nothing may leak.
	fsrc.Close()
	rep.Close()
	rep2.Close()
	feedSrv2.Close()
	querySrv.Close()
	closeServed(t)
	waitUntil(t, 10*time.Second, fmt.Sprintf("goroutines back near %d", baseline), func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// servedCloser tracks servers started by mustServe for teardown.
var servedMu sync.Mutex
var served []func() error

func mustServe(t *testing.T, src remos.Source) string {
	t.Helper()
	addr, stop, err := remos.ServeSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servedMu.Lock()
	served = append(served, stop)
	servedMu.Unlock()
	return addr
}

func closeServed(t *testing.T) {
	t.Helper()
	servedMu.Lock()
	defer servedMu.Unlock()
	for _, stop := range served {
		stop()
	}
	served = nil
}
