package remos_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/remos"
)

// feedSource adds the replication-feed capability to the chaos suite's
// lockedSource. It is a separate type on purpose: lockedSource hides
// the collector's data version so watch tests exercise synthetic
// poll-rate epochs, while the replica tests need the real versioned
// feed. FeedSince must hold the simulator lock (it reads windows under
// the collector's own mutex while the clock driver advances polls);
// the version primitives are internally synchronized and skip it.
type feedSource struct {
	*lockedSource
}

func (s *feedSource) FeedSince(cur *collector.FeedCursor) (*collector.FeedPayload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col.FeedSince(cur)
}

func (s *feedSource) DataVersion() (uint64, bool) { return s.col.DataVersion() }

func (s *feedSource) SubscribeVersion() (<-chan struct{}, func()) {
	return s.col.SubscribeVersion()
}

// driveClock advances the testbed's virtual clock in real time under
// the shared simulator lock, like the daemon's 20 Hz driver (here at
// 100 Hz, 20 virtual seconds per wall second, so the 2s poll period
// gives a feed heartbeat every ~100ms wall).
func driveClock(tb *remos.Testbed, mu *sync.Mutex) (stop func()) {
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
				tb.Run(0.2)
				mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }); wg.Wait() }
}

func waitUntil(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", within, what)
}

// TestReplicaFailoverEndToEnd is the paper-level robustness story: an
// application talks to a replica-first failover source; the replica's
// feed is partitioned; before the fence the replica answers with
// honestly aged data, past it the typed ErrStaleReplica routes queries
// to the collector WITHOUT marking the replica down; when the feed
// heals the replica resyncs and rejoins.
func TestReplicaFailoverEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	tb.StartBlast("m-6", "m-8", 60e6)
	tb.Run(20)

	var mu sync.Mutex
	ls := &feedSource{&lockedSource{mu: &mu, col: tb.Collector}}
	feedSrv, err := collector.Serve(ls, "127.0.0.1:0") // the replica's feed
	if err != nil {
		t.Fatal(err)
	}
	feedAddr := feedSrv.Addr()
	querySrv, err := collector.Serve(ls, "127.0.0.1:0") // direct collector, never killed
	if err != nil {
		t.Fatal(err)
	}
	defer querySrv.Close()
	stopClock := driveClock(tb, &mu)
	defer stopClock()

	rep := remos.NewReadReplica(remos.ReplicaConfig{
		FeedAddr:      feedAddr,
		MaxStaleness:  time.Second,
		LagThreshold:  250 * time.Millisecond,
		ResyncBackoff: 25 * time.Millisecond,
		Seed:          1,
	})
	rep.Start()
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.WaitSynced(ctx); err != nil {
		t.Fatalf("replica never synced: %v", err)
	}
	repAddr, repStop, err := remos.ServeSource(rep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repStop()

	// Replica preferred, collector as fallback.
	src, err := remos.DialCollectors(repAddr, querySrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("replica-first topology query: %v", err)
	}

	// Partition the feed only: the replica's query port stays up.
	feedSrv.Close()

	// Inside the fence: queries served by the replica, ages growing.
	time.Sleep(300 * time.Millisecond)
	if _, err := src.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("pre-fence query through failover: %v", err)
	}

	// Past the fence: the replica refuses typed; direct dial proves
	// the refusal crosses the wire as ErrStaleReplica.
	waitUntil(t, 5*time.Second, "replica fenced", func() bool {
		return rep.State() == remos.ReplicaFenced
	})
	direct, err := remos.DialCollector(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.TopologyCtx(context.Background()); !errors.Is(err, remos.ErrStaleReplica) {
		t.Fatalf("fenced replica over the wire: err = %v, want ErrStaleReplica", err)
	}
	if !remos.IsLifecycleError(err) {
		// err here is nil (dial); re-derive from a query.
		_, qerr := direct.TopologyCtx(context.Background())
		if !remos.IsLifecycleError(qerr) {
			t.Fatalf("ErrStaleReplica must classify as lifecycle, got %v", qerr)
		}
	}

	// The failover source routes around the fenced replica to the
	// collector — and must NOT mark the replica Down: the refusal
	// proves the process alive.
	for i := 0; i < 5; i++ {
		if _, err := src.TopologyCtx(context.Background()); err != nil {
			t.Fatalf("failover query %d during fence: %v", i, err)
		}
	}
	if st := src.Replicas()[0].State; st == collector.Down {
		t.Fatalf("fenced replica marked Down by failover; want refusal-only degradation")
	}

	// Heal the feed on its old address: the replica resyncs with a
	// fresh snapshot and serves again.
	epochAtFence, _ := rep.DataVersion()
	feedSrv2, err := collector.Serve(ls, feedAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer feedSrv2.Close()
	waitUntil(t, 10*time.Second, "replica recovered past its fence", func() bool {
		if rep.State() != remos.ReplicaLive {
			return false
		}
		ver, _ := rep.DataVersion()
		return ver > epochAtFence
	})
	if _, err := direct.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("recovered replica still refusing: %v", err)
	}

	// Full teardown; nothing may leak.
	src.Close()
	if cl, ok := direct.(interface{ Close() error }); ok {
		cl.Close()
	}
	repStop()
	rep.Close()
	querySrv.Close()
	feedSrv2.Close()
	stopClock()
	waitUntil(t, 10*time.Second, fmt.Sprintf("goroutines back near %d", baseline), func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
