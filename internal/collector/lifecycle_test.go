package collector

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// blockingSource returns a fakeSource whose Utilization blocks until the
// returned release func is called (idempotent), and a channel that
// signals each time a call enters the block.
func blockingSource() (*fakeSource, func(), chan struct{}) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	src := &fakeSource{utilHook: func() {
		entered <- struct{}{}
		<-release
	}}
	var once func()
	closed := false
	once = func() {
		if !closed {
			closed = true
			close(release)
		}
	}
	return src, once, entered
}

// TestClientCtxDeadline: a context deadline bounds the whole call. The
// typed error matches both the package sentinel and the stdlib idiom,
// and the call returns within 2x the budget — never hangs on a stuck
// server.
func TestClientCtxDeadline(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const budget = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err = cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("typed error does not match context.DeadlineExceeded: %v", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("deadline-bounded call took %v (budget %v, limit %v)", elapsed, budget, 2*budget)
	}
	<-entered // the server did receive the call; the client just stopped waiting
}

// TestClientCancelMidCallThenReusable: cancelling mid-call aborts the
// blocked read immediately, and the client reconnects cleanly on the
// next call — no poisoned stream, no lingering wait.
func TestClientCancelMidCallThenReusable(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 5)
		done <- err
	}()
	<-entered // the request is in flight inside the Source
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: got %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to abort the in-flight read", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}

	// The same client keeps working: the next call reconnects.
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("client unusable after mid-call cancel: %v", err)
	}
}

// TestServerEnforcesBudgetHint: a request whose declared budget expires
// in the admission queue is answered with a typed deadline refusal by
// the server itself — proven with a raw connection so no client-side
// deadline can be the one firing.
func TestServerEnforcesBudgetHint(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{MaxInflight: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait

	// Saturate the gate with one in-flight request.
	occupier, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	go occupier.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	<-entered

	// Raw second request with a 40 ms budget and no client deadline at
	// all: the refusal must come from the server.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, &muxFrame{Stream: 1, Kind: mfRequest,
		Req: &request{Op: "read", BudgetMS: 40, Read: &ReadRequest{Keys: []ChannelKey{{Global: 1}}}}}, 0); err != nil {
		t.Fatal(err)
	}
	var f muxFrame
	start := time.Now()
	if err := readFrame(conn, &f, 0); err != nil {
		t.Fatal(err)
	}
	if f.Stream != 1 || f.Kind != mfResponse || f.Resp == nil {
		t.Fatalf("unexpected frame: stream %d kind %d", f.Stream, f.Kind)
	}
	resp := *f.Resp
	if resp.Code != codeDeadline {
		t.Fatalf("saturated server answered code %d (%q), want codeDeadline", resp.Code, resp.Err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("server held an expired-budget request for %v", elapsed)
	}
	if st := srv.GateStats(); st.TimedOut != 1 {
		t.Fatalf("gate stats after budget expiry: %+v", st)
	}
}

// TestServerDefaultBudget: an unbudgeted request inherits the server's
// DefaultBudget instead of waiting the full DefaultQueueWait.
func TestServerDefaultBudget(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{
		MaxInflight: 1, QueueDepth: 4, DefaultBudget: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait

	occupier, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	go occupier.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	<-entered

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, err = cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5) // no ctx, no budget hint
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want server-side ErrDeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("default budget of 60ms enforced only after %v", elapsed)
	}
}

// TestServerShedsWithRetryAfter: with no queue, a saturated server sheds
// immediately and the client can read the retry-after hint.
func TestServerShedsWithRetryAfter(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{MaxInflight: 1, QueueDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait

	occupier, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	go occupier.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	<-entered

	cli, err := DialConfig(srv.Addr(), ClientConfig{SingleAttempt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	if !errors.Is(err, ErrLoadShed) {
		t.Fatalf("got %v, want ErrLoadShed", err)
	}
	if ra, ok := RetryAfterHint(err); !ok || ra <= 0 {
		t.Fatalf("shed refusal carries no retry-after: %v (ra=%v)", err, ra)
	}
	if st := srv.GateStats(); st.Shed != 1 {
		t.Fatalf("gate stats after shed: %+v", st)
	}

	// Liveness probes still pass the saturated gate: ping is free.
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping refused by saturated gate: %v", err)
	}
}

// TestFailoverRoutesAroundShed: a load-shedding replica is routed
// around — the query lands on the healthy replica — and the refusal
// marks the shedding replica Degraded, not Down (it answered; it is
// alive).
func TestFailoverRoutesAroundShed(t *testing.T) {
	srcA, release, entered := blockingSource()
	srvA, err := ServeConfig(srcA, "127.0.0.1:0", ServerConfig{MaxInflight: 1, QueueDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	defer release() // before Close: a blocked handler would deadlock wg.Wait
	srvB, err := Serve(&fakeSource{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	occupier, err := DialConfig(srvA.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer occupier.Close()
	go occupier.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	<-entered

	f, err := DialFailover([]string{srvA.Addr(), srvB.Addr()}, FailoverConfig{
		ProbeInterval: -1, // no background prober in this test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	st, err := f.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	if err != nil {
		t.Fatalf("failover did not route around the shedding replica: %v", err)
	}
	if st.Median != 42 {
		t.Fatalf("answer came from the wrong place: %v", st)
	}
	reps := f.Replicas()
	if reps[0].State == Down {
		t.Fatalf("shedding replica marked Down: %+v (a refusal proves it alive)", reps[0])
	}
	if reps[0].Failures == 0 {
		t.Fatalf("refusal not recorded on replica 0: %+v", reps[0])
	}
}

// TestCtxDeadlineSkipsRetry: when the context is already dead after a
// failed attempt, the client must not burn RetryBackoff sleeping — it
// returns the typed error immediately.
func TestCtxDeadlineSkipsRetry(t *testing.T) {
	// A listener that accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	cli, err := DialConfig(ln.Addr().String(), ClientConfig{
		CallTimeout:  10 * time.Second,
		RetryBackoff: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const budget = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err = cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("blackholed call with %v budget took %v (retry backoff not skipped?)", budget, elapsed)
	}
}
