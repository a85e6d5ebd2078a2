package collector

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGateImmediateAdmit: a gate with free capacity admits without
// queueing, and weights add up.
func TestGateImmediateAdmit(t *testing.T) {
	g := newWorkGate(4, 8)
	if err := g.acquire(1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(3, time.Time{}); err != nil {
		t.Fatal(err)
	}
	st := g.stats()
	if st.InUse != 4 || st.Admitted != 2 {
		t.Fatalf("stats after two admits: %+v", st)
	}
	g.release(3)
	g.release(1)
	if st := g.stats(); st.InUse != 0 {
		t.Fatalf("in-use after releases: %+v", st)
	}
}

// TestGateShedWhenQueueFull: arrivals beyond the queue depth are shed
// with a retry-after hint that grows with queue pressure.
func TestGateShedWhenQueueFull(t *testing.T) {
	g := newWorkGate(1, 1)
	if err := g.acquire(1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue.
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(1, time.Now().Add(5*time.Second)) }()
	waitForQueued(t, g, 1)

	// The next arrival is shed immediately.
	err := g.acquire(1, time.Now().Add(5*time.Second))
	if !errors.Is(err, ErrLoadShed) {
		t.Fatalf("queue-full acquire: got %v, want ErrLoadShed", err)
	}
	ra, ok := RetryAfterHint(err)
	if !ok || ra <= 0 {
		t.Fatalf("shed error carries no positive retry-after: %v (ra=%v)", err, ra)
	}

	g.release(1) // hands the slot to the queued waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter should have been granted: %v", err)
	}
	if st := g.stats(); st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestGateDeadlineInQueue: a waiter whose budget expires while queued
// gets ErrDeadlineExceeded, not a late grant.
func TestGateDeadlineInQueue(t *testing.T) {
	g := newWorkGate(1, 4)
	if err := g.acquire(1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.acquire(1, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired waiter: got %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expired waiter took %v to give up", elapsed)
	}
	if st := g.stats(); st.TimedOut != 1 || st.Queued != 0 {
		t.Fatalf("counters after queue timeout: %+v", st)
	}
	// The slot is still owned by the first acquire; release and verify
	// accounting balances.
	g.release(1)
	if st := g.stats(); st.InUse != 0 {
		t.Fatalf("in-use after release: %+v", st)
	}
}

// TestGateFIFOOrder: freed capacity goes to waiters strictly in arrival
// order — a later light request must not overtake the head waiter.
func TestGateFIFOOrder(t *testing.T) {
	g := newWorkGate(2, 8)
	if err := g.acquire(2, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	enqueue := func(i, w int) chan struct{} {
		done := make(chan struct{})
		go func() {
			if err := g.acquire(w, time.Now().Add(10*time.Second)); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			close(done)
		}()
		return done
	}
	d1 := enqueue(1, 2) // heavy head waiter
	waitForQueued(t, g, 1)
	d2 := enqueue(2, 1) // light later waiter
	waitForQueued(t, g, 2)

	g.release(2) // frees 2 units: head (weight 2) must win them
	<-d1
	g.release(2)
	<-d2
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order %v, want [1 2]", order)
	}
}

// TestGateWeightClamp: an op heavier than the whole gate still fits (it
// just takes the entire gate), so small -max-inflight settings cannot
// make topology queries permanently inadmissible.
func TestGateWeightClamp(t *testing.T) {
	g := newWorkGate(2, 4)
	if err := g.acquire(10, time.Time{}); err != nil {
		t.Fatalf("over-weight acquire on idle gate: %v", err)
	}
	if st := g.stats(); st.InUse != 2 {
		t.Fatalf("clamped in-use: %+v", st)
	}
	g.release(10)
	if st := g.stats(); st.InUse != 0 {
		t.Fatalf("release did not balance clamp: %+v", st)
	}
}

// TestOpWeights pins the pricing in the op table: ping free, topo
// heaviest, a point query one unit.
func TestOpWeights(t *testing.T) {
	if w := tableWeight(t, &request{Op: "ping"}); w != 0 {
		t.Fatalf("ping weight %d, want 0 (liveness probes must pass an overloaded gate)", w)
	}
	point := tableWeight(t, &request{Op: "read", Read: &ReadRequest{Keys: make([]ChannelKey, 1)}})
	if topo := tableWeight(t, &request{Op: "topo"}); !(topo > point && point == 1) {
		t.Fatalf("weights not ordered: topo=%d point=%d", topo, point)
	}
}

// tableWeight prices req with its op's opTable row, on a server without
// admission control.
func tableWeight(t *testing.T, req *request) int {
	t.Helper()
	for _, op := range opTable {
		if op.name == req.Op {
			w, err := op.weigh(&Server{}, req)
			if err != nil {
				t.Fatalf("%s: %v", req.Op, err)
			}
			return w
		}
	}
	t.Fatalf("no opTable row for %q", req.Op)
	return 0
}

func waitForQueued(t *testing.T, g *workGate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d queued waiters: %+v", n, g.stats())
		}
		time.Sleep(time.Millisecond)
	}
}
