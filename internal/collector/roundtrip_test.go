package collector

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The round trip's threads (DESIGN §21): which requests the server
// answers on a connection's read loop, and how a client's callers share
// reading the socket.

// localSource is a fakeSource that reports a data version, so a server
// treats it as local state and may answer its cheap ops inline.
// Utilization answers the key's Global ID, so a misrouted answer shows.
type localSource struct {
	fakeSource
	topoHook func() // runs inside Topology, before answering
}

func (l *localSource) DataVersion() (uint64, bool) { return 1, true }

func (l *localSource) TopologyCtx(ctx context.Context) (*Topology, error) {
	if l.topoHook != nil {
		l.topoHook()
	}
	return fakeTopo(), nil
}

func (l *localSource) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	if l.utilHook != nil {
		l.utilHook()
	}
	return stats.Exact(float64(key.Global)), nil
}

// latch holds every caller of wait until open (idempotent) and signals
// entered once per caller.
type latch struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newLatch() *latch {
	return &latch{entered: make(chan struct{}, 128), release: make(chan struct{})}
}

func (l *latch) wait() {
	l.entered <- struct{}{}
	<-l.release
}

func (l *latch) open() { l.once.Do(func() { close(l.release) }) }

// rawPeer speaks frames on a bare connection, so a test decides exactly
// what is pipelined and in which order.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	next uint64
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawPeer{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (p *rawPeer) send(req *request) uint64 {
	p.t.Helper()
	p.next++
	if err := writeFrame(p.conn, &muxFrame{Stream: p.next, Kind: mfRequest, Req: req}, 0); err != nil {
		p.t.Fatal(err)
	}
	return p.next
}

// recv reads n responses, keyed by stream.
func (p *rawPeer) recv(n int) map[uint64]*response {
	p.t.Helper()
	got := make(map[uint64]*response, n)
	for len(got) < n {
		var f muxFrame
		if err := readFrame(p.br, &f, 0); err != nil {
			p.t.Fatalf("after %d of %d responses: %v", len(got), n, err)
		}
		if f.Kind != mfResponse || f.Resp == nil {
			p.t.Fatalf("unexpected frame kind %d on stream %d", f.Kind, f.Stream)
		}
		got[f.Stream] = f.Resp
	}
	return got
}

// utilReq is a point query: a one-entry summary read.
func utilReq(global int) *request {
	return &request{Op: "read", Read: &ReadRequest{Span: 5, Keys: []ChannelKey{{Global: global}}}}
}

// pointMedian is the median a point query's response answered (NaN when
// it answered none).
func pointMedian(r *response) float64 {
	if r == nil || r.Read == nil || len(r.Read.Entries) != 1 {
		return math.NaN()
	}
	return r.Read.Entries[0].Stat.Median
}

// TestInlineOpQueuesOrShedsBehindSaturatedGate: with the gate held by a
// slow weight-4 op, a pipelined util waits in the FIFO queue, the next
// one is shed because the queue is full, and the read loop still takes
// frames: a ping behind them answers while the gate stays saturated.
func TestInlineOpQueuesOrShedsBehindSaturatedGate(t *testing.T) {
	slow := newLatch()
	srv, err := ServeConfig(&localSource{topoHook: slow.wait}, "127.0.0.1:0",
		ServerConfig{MaxInflight: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer slow.open() // before Close: a blocked handler would deadlock wg.Wait

	p := dialRaw(t, srv.Addr())
	topo := p.send(&request{Op: "topo"})
	<-slow.entered
	queued := p.send(utilReq(7))
	waitForQueued(t, srv.gate, 1)
	shed := p.send(utilReq(8))
	ping := p.send(&request{Op: "ping"})

	got := p.recv(2)
	if r := got[shed]; r == nil || r.Code != codeShed {
		t.Fatalf("util behind a full queue: got %+v, want codeShed", r)
	}
	if r := got[ping]; r == nil || r.Code != codeOK || r.Err != "" {
		t.Fatalf("ping while the gate is saturated: got %+v", r)
	}
	slow.open()
	got = p.recv(2)
	if r := got[topo]; r == nil || r.Topo == nil {
		t.Fatalf("slow topo: got %+v", r)
	}
	if r := got[queued]; r == nil || r.Err != "" || pointMedian(r) != 7 {
		t.Fatalf("queued util: got %+v, want median 7", r)
	}
	if st := srv.GateStats(); st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("gate stats: %+v, want 1 shed and 2 admitted", st)
	}
}

// TestInlineOpExpiredBudget: a cheap op whose declared budget is spent
// by the time it would run is refused with the typed deadline answer,
// not computed.
func TestInlineOpExpiredBudget(t *testing.T) {
	srv, err := ServeConfig(&localSource{}, "127.0.0.1:0", ServerConfig{MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialRaw(t, srv.Addr())
	req := utilReq(3)
	req.BudgetMS = 1e-6 // one nanosecond
	id := p.send(req)
	if r := p.recv(1)[id]; r == nil || r.Code != codeDeadline {
		t.Fatalf("expired budget: got %+v, want codeDeadline", r)
	}
}

// TestInlineOpHAGated: the HA gate refuses a cheap op on a standby with
// the typed not-leader answer and its hint; ping stays exempt.
func TestInlineOpHAGated(t *testing.T) {
	srv, err := ServeConfig(&localSource{}, "127.0.0.1:0", ServerConfig{
		Gate: func() error { return &NotLeaderError{Leader: "10.0.0.9:7171"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{SingleAttempt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	if hint, ok := LeaderHint(err); !errors.Is(err, ErrNotLeader) || !ok || hint != "10.0.0.9:7171" {
		t.Fatalf("gated util: got %v, want ErrNotLeader with the hint", err)
	}
	if err := cli.PingCtx(context.Background()); err != nil {
		t.Fatalf("ping on a standby: %v", err)
	}
}

// TestInlinePanicRecovery is TestPanicRecovery over a source the server
// answers inline: the panic costs one errored response, and the
// connection keeps serving.
func TestInlinePanicRecovery(t *testing.T) {
	srv, err := ServeConfig(&localSource{fakeSource: fakeSource{utilHook: func() { panic("modeler bug") }}}, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	if err == nil {
		t.Fatal("panicking request returned no error")
	}
	if got := err.Error(); !strings.Contains(got, "internal error") || !strings.Contains(got, "modeler bug") {
		t.Fatalf("panic not surfaced as typed internal error: %v", err)
	}
	mc := cli.mc
	if _, err := cli.HostLoadCtx(context.Background(), "a", 5); err != nil {
		t.Fatalf("daemon did not survive the panic: %v", err)
	}
	if cli.mc != mc {
		t.Fatal("the panic cost the connection")
	}
}

// TestInlineNeverOnProxySource: a server whose source is a dialed
// client (no data version) hands every request to a goroutine, so an
// upstream call that blocks does not block its read loop — a ping
// pipelined behind it answers.
func TestInlineNeverOnProxySource(t *testing.T) {
	upSrc, release, entered := blockingSource()
	upstream, err := ServeConfig(upSrc, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	upCli, err := DialConfig(upstream.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer upCli.Close()
	proxy, err := ServeConfig(upCli, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	defer release() // before the Closes: blocked handlers would deadlock them

	p := dialRaw(t, proxy.Addr())
	util := p.send(utilReq(1))
	<-entered
	ping := p.send(&request{Op: "ping"})
	if got := p.recv(1); got[ping] == nil {
		t.Fatalf("first answer is not the ping's: %v", got)
	}
	release()
	if r := p.recv(1)[util]; r == nil || r.Err != "" {
		t.Fatalf("proxied util after release: %+v", r)
	}
}

// TestInlineHeavyOpDoesNotDelayPoints: a topology or matrix request
// pipelined ahead of 100 point queries runs on its own goroutine; all
// 100 answer while it is still blocked.
func TestInlineHeavyOpDoesNotDelayPoints(t *testing.T) {
	for _, heavy := range []*request{
		{Op: "topo"},
		{Op: "matrix", Matrix: &MatrixRequest{Srcs: []graph.NodeID{"a"}, Dsts: []graph.NodeID{"b"}}},
	} {
		t.Run(heavy.Op, func(t *testing.T) {
			slow := newLatch()
			srv, err := ServeConfig(&localSource{topoHook: slow.wait}, "127.0.0.1:0", ServerConfig{
				MaxInflight: 64, QueueDepth: 128,
				Matrix: func(ctx context.Context, req *MatrixRequest) (*MatrixAnswer, error) {
					slow.wait()
					return &MatrixAnswer{Bandwidth: [][]float64{{1}}, Latency: [][]float64{{1}}, Valid: [][]bool{{true}}}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			defer slow.open()

			p := dialRaw(t, srv.Addr())
			h := p.send(heavy)
			<-slow.entered
			want := make(map[uint64]float64)
			for i := 1; i <= 100; i++ {
				want[p.send(utilReq(i))] = float64(i)
			}
			for id, r := range p.recv(100) {
				if w, ok := want[id]; !ok || r.Err != "" || pointMedian(r) != w {
					t.Fatalf("stream %d: got %+v, want a util answer of %v", id, r, w)
				}
			}
			slow.open()
			if r := p.recv(1)[h]; r == nil || r.Err != "" {
				t.Fatalf("%s after release: %+v", heavy.Op, r)
			}
		})
	}
}

// TestLonePointCallStartsNoGoroutine: a util call on an otherwise idle
// connection to the Figure 3 collector runs its handler with no
// request goroutine in flight on either end, and leaves no background
// read loop on the client.
func TestLonePointCallStartsNoGoroutine(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.RunUntil(30)
	probe := &goroutineProbe{Collector: r.col}
	srv, err := ServeConfig(probe, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probe.srv = srv
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	topo, _ := r.col.TopologyCtx(context.Background())
	key := keyFor(t, topo, "timberline", "whiteface")
	want, _ := r.col.UtilizationCtx(context.Background(), key, 10)
	// One answered call first: the server's goroutine for this
	// connection is running before the count is taken.
	if err := cli.PingCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe.before.Store(int64(runtime.NumGoroutine()))
		got, err := cli.UtilizationCtx(context.Background(), key, 10)
		if err != nil || got != want {
			t.Fatalf("call %d: got %+v, %v; want %+v", i, got, err, want)
		}
		if n := probe.inflight.Load(); n != 0 {
			t.Fatalf("call %d: the handler ran beside %d request goroutine(s)", i, n)
		}
		if extra := probe.extra.Load(); extra > 0 {
			t.Fatalf("call %d: %d more goroutine(s) during the call than before it", i, extra)
		}
		cli.mc.mu.Lock()
		reading := cli.mc.reading
		cli.mc.mu.Unlock()
		if reading {
			t.Fatalf("call %d: a read loop holds the token on a connection without watches", i)
		}
	}
}

// goroutineProbe is the Figure 3 collector with a Utilization that
// records, while the request is being answered, the server's in-flight
// request goroutines and how many goroutines exist beyond those before
// the call.
type goroutineProbe struct {
	*Collector
	srv             *Server
	before          atomic.Int64
	inflight, extra atomic.Int64
}

func (g *goroutineProbe) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	g.extra.Store(int64(runtime.NumGoroutine()) - g.before.Load())
	n := 0
	g.srv.mu.Lock()
	for _, st := range g.srv.conns {
		n += st.inflight
	}
	g.srv.mu.Unlock()
	g.inflight.Store(int64(n))
	return g.Collector.UtilizationCtx(ctx, key, span)
}

// TestPointRoundTripAllocBudget: one util round trip over loopback,
// client and server in this process, counted end to end — client call,
// both frame codecs, admission, telemetry span, handler.
func TestPointRoundTripAllocBudget(t *testing.T) {
	_, srvs := servedRig(t, 1)
	cli, err := Dial(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	key := ChannelKey{Global: 1}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := cli.UtilizationCtx(context.Background(), key, 10); err != nil {
			t.Fatal(err)
		}
	})
	// 10; 16 before the server answered point ops on the read loop and
	// a lone caller read its own response: the request goroutine's
	// closure, the call's response channel and timer, and the handler's
	// deadline context are gone.
	want := 10.0
	if raceEnabled {
		want += 4 // the round trip's four frame buffers come from the pool
	}
	if allocs > want {
		t.Fatalf("a util round trip took %.0f allocations, want <= %.0f", allocs, want)
	}
}

// TestLeaderCancelWithFollowers: the caller reading the socket for
// itself is cancelled while three followers wait; its read ends at
// once, the token passes on, every follower is answered, and the
// connection is kept.
func TestLeaderCancelWithFollowers(t *testing.T) {
	src, release, entered := blockingSource()
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release()
	cli, err := DialConfig(srv.Addr(), ClientConfig{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mc := cli.mc

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := cli.UtilizationCtx(ctx, ChannelKey{Global: 1}, 5)
		leader <- err
	}()
	<-entered
	followers := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 2}, 5)
			followers <- err
		}()
	}
	for i := 0; i < 3; i++ {
		<-entered
	}
	mc.mu.Lock()
	waiting := len(mc.calls)
	mc.mu.Unlock()
	if waiting != 3 {
		t.Fatalf("%d followers registered, want 3", waiting)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-leader:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader: got %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("cancel took %v to end the leader's read", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader never returned")
	}
	release()
	for i := 0; i < 3; i++ {
		select {
		case err := <-followers:
			if err != nil {
				t.Fatalf("follower: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a follower was never answered")
		}
	}
	if cli.mc != mc || mc.failure() != nil {
		t.Fatal("the leader's cancel cost the connection")
	}
}

// TestLeaderHungServerTimesOut: against a server that reads requests and
// never answers, a lone call gives errCallTimeout within CallTimeout
// plus 100 ms, and the connection is dropped.
func TestLeaderHungServerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 512)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	const timeout = 200 * time.Millisecond
	cli, err := DialConfig(ln.Addr().String(), ClientConfig{CallTimeout: timeout, SingleAttempt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mc := cli.mc
	start := time.Now()
	_, err = cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, errCallTimeout) {
		t.Fatalf("hung server: got %v, want errCallTimeout", err)
	}
	if elapsed < timeout || elapsed > timeout+100*time.Millisecond {
		t.Fatalf("timed out after %v, want within [%v, %v]", elapsed, timeout, timeout+100*time.Millisecond)
	}
	if mc.failure() == nil {
		t.Fatal("the connection to a hung server was kept")
	}
}

// TestLeaderSplitFramesUnderRandomCancel: a server that writes every
// response in two halves 1 ms apart, while callers on one client cancel
// at random moments, never desynchronizes the stream: no malformed
// frame, no dropped connection, and every call either answers its own
// key or reports its own cancellation.
func TestLeaderSplitFramesUnderRandomCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveSplit(conn)
			}()
		}
	}()

	var dials atomic.Int32
	cfg := ClientConfig{CallTimeout: 10 * time.Second, SingleAttempt: true}
	cfg.fill()
	cli := newClient(ln.Addr().String(), cfg, nil)
	cli.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout(network, addr, timeout)
	}
	defer cli.Close()
	if _, err := cli.connect(); err != nil {
		t.Fatal(err)
	}

	var callers sync.WaitGroup
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func(g int) {
			defer callers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				key := ChannelKey{Global: g*1000 + i}
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(3000))*time.Microsecond, cancel)
				}
				st, err := cli.UtilizationCtx(ctx, key, 5)
				cancel()
				switch {
				case err == nil && st.Median != float64(key.Global):
					t.Errorf("key %d answered %v", key.Global, st.Median)
				case err != nil && !errors.Is(err, context.Canceled):
					t.Errorf("key %d: %v", key.Global, err)
				}
			}
		}(g)
	}
	callers.Wait()
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1: a cancel broke the stream", n)
	}
}

// serveSplit answers each point query with its key's Global ID, writing
// every response frame in two halves 1 ms apart.
func serveSplit(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		var f muxFrame
		if err := readFrame(br, &f, 0); err != nil {
			return
		}
		if f.Kind != mfRequest || f.Req == nil || f.Req.Read == nil || len(f.Req.Read.Keys) != 1 {
			continue
		}
		var buf bytes.Buffer
		writeFrame(&buf, &muxFrame{Stream: f.Stream, Kind: mfResponse, Resp: &response{Read: &ReadAnswer{KeyCount: 1,
			Entries: []ReadEntry{{Stat: stats.Exact(float64(f.Req.Read.Keys[0].Global))}}}}}, 0)
		b := buf.Bytes()
		if _, err := conn.Write(b[:len(b)/2]); err != nil {
			return
		}
		time.Sleep(time.Millisecond)
		if _, err := conn.Write(b[len(b)/2:]); err != nil {
			return
		}
	}
}

// TestLeaderFollowerManyCallers: eight goroutines make 10,000 calls each
// on one client; every answer is its own key's.
func TestLeaderFollowerManyCallers(t *testing.T) {
	srv, err := ServeConfig(&localSource{}, "127.0.0.1:0", ServerConfig{MaxInflight: 64, QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	calls := 10000
	if testing.Short() {
		calls = 1000
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				key := ChannelKey{Global: g*calls + i}
				st, err := cli.UtilizationCtx(context.Background(), key, 5)
				if err != nil || st.Median != float64(key.Global) {
					t.Errorf("goroutine %d call %d: got %v, %v", g, i, st.Median, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFailedWriteDropsConnWhateverTheContext: a write that puts half a
// frame on the wire and times out while the caller's context is also
// cancelled must still drop the connection; the next call dials a
// fresh one and answers correctly on its first attempt.
func TestFailedWriteDropsConnWhateverTheContext(t *testing.T) {
	srv, err := ServeConfig(&localSource{}, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dials atomic.Int32
	cfg := ClientConfig{SingleAttempt: true}
	cfg.fill()
	cli := newClient(srv.Addr(), cfg, nil)
	cli.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err == nil && dials.Add(1) == 1 {
			conn = &halfWriteConn{Conn: conn, cancel: cancel}
		}
		return conn, err
	}
	defer cli.Close()

	if _, err := cli.UtilizationCtx(ctx, ChannelKey{Global: 5}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("call whose write broke off: got %v, want context.Canceled", err)
	}
	st, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 6}, 5)
	if err != nil || st.Median != 6 {
		t.Fatalf("next call: got %v, %v; want median 6", st.Median, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("client dialed %d times, want 2", n)
	}
}

// halfWriteConn writes half of its first frame, cancels the caller's
// context, and reports a write timeout.
type halfWriteConn struct {
	net.Conn
	cancel func()
	broken bool
}

func (c *halfWriteConn) Write(b []byte) (int, error) {
	if c.broken {
		return c.Conn.Write(b)
	}
	c.broken = true
	n, _ := c.Conn.Write(b[:len(b)/2])
	c.cancel()
	return n, os.ErrDeadlineExceeded
}
