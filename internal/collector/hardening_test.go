package collector

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
)

// fakeSource is a minimal Source for server-lifecycle tests, with
// per-method hooks to inject panics and slowness.
type fakeSource struct {
	utilHook func() // runs inside Utilization, before answering
}

func fakeTopo() *Topology {
	g := graph.New()
	g.AddHost("a", 1)
	g.AddHost("b", 1)
	l := g.AddLink("a", "b", 100e6, 0.0005)
	return &Topology{Graph: g, GlobalID: map[graph.LinkID]int{l.ID: 1}}
}

func (f *fakeSource) TopologyCtx(ctx context.Context) (*Topology, error) { return fakeTopo(), nil }

func (f *fakeSource) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	if f.utilHook != nil {
		f.utilHook()
	}
	return stats.Exact(42), nil
}

func (f *fakeSource) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	return []stats.Sample{{Time: 1, Value: 42}}, nil
}

func (f *fakeSource) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return stats.Exact(0.5), nil
}

func (f *fakeSource) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) { return 0, nil }

// TestPanicRecovery: a panic in one request must cost the client one
// errored response — never the daemon process or even the connection.
func TestPanicRecovery(t *testing.T) {
	src := &fakeSource{utilHook: func() { panic("modeler bug") }}
	srv, err := Serve(src, "127.0.0.1:0")
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
	// The same connection keeps serving.
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("daemon did not survive the panic: %v", err)
	}
}

// TestGarbageFrameDropsOnlyThatConn: a client sending a frame the
// server cannot decode — garbage, a frame of the old gob format, a
// hostile count, trailing bytes — gets no answer and loses its
// connection at once, not at the idle deadline; concurrent
// well-behaved clients are untouched.
func TestGarbageFrameDropsOnlyThatConn(t *testing.T) {
	srv, err := ServeConfig(&fakeSource{}, "127.0.0.1:0", ServerConfig{IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	var oldFormat bytes.Buffer
	if err := gob.NewEncoder(&oldFormat).Encode(reqFrame(&request{Op: "ping"})); err != nil {
		t.Fatal(err)
	}
	var ping bytes.Buffer
	if err := writeFrame(&ping, reqFrame(&request{Op: "ping"}), 0); err != nil {
		t.Fatal(err)
	}
	garbage := map[string][]byte{
		"garbage":        []byte("\xff\xfe\xfdnot a frame at all\x00\x01"),
		"old gob frame":  rawFrame(oldFormat.Bytes()...),
		"hostile count":  hostileCounts()["matrix srcs"],
		"trailing bytes": rawFrame(append(ping.Bytes()[4:], 0)...),
	}
	for name, frame := range garbage {
		bad, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Write(frame); err != nil {
			t.Fatal(err)
		}
		// The server must drop the garbage connection...
		bad.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := bad.Read(make([]byte, 64))
		var nerr net.Error
		if n > 0 || err == nil {
			t.Errorf("%s: server answered (%d bytes)", name, n)
		} else if errors.As(err, &nerr) && nerr.Timeout() {
			t.Errorf("%s: connection left open", name)
		}
		bad.Close()
		// ...while the good client keeps working.
		if _, err := good.TopologyCtx(context.Background()); err != nil {
			t.Fatalf("%s: well-behaved client disturbed by garbage peer: %v", name, err)
		}
	}
}

// TestIdleConnReaped: a client that connects and sends nothing is
// dropped at the idle deadline instead of pinning a goroutine forever.
func TestIdleConnReaped(t *testing.T) {
	srv, err := ServeConfig(&fakeSource{}, "127.0.0.1:0", ServerConfig{
		IdleTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("silent connection got data")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle connection survived %v (want ~100ms reap)", elapsed)
	}
}

// TestMaxConnsBusyRefusal: connections over the cap get a typed
// ErrServerBusy answer instead of silently queueing; capacity freed by
// a departing client is reusable.
func TestMaxConnsBusyRefusal(t *testing.T) {
	srv, err := ServeConfig(&fakeSource{}, "127.0.0.1:0", ServerConfig{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	second, err := DialConfig(srv.Addr(), ClientConfig{
		CallTimeout:   2 * time.Second,
		RetryBackoff:  time.Millisecond,
		SingleAttempt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_, err = second.TopologyCtx(context.Background())
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap connection: got %v, want ErrServerBusy", err)
	}

	// Free the slot; a new client must eventually get in.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third, err := Dial(srv.Addr())
		if err == nil {
			_, qerr := third.TopologyCtx(context.Background())
			third.Close()
			if qerr == nil {
				break
			}
			err = qerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("freed capacity never became usable: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrain: Shutdown lets an in-flight request finish, then
// refuses new work.
func TestShutdownDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	src := &fakeSource{utilHook: func() {
		close(started)
		<-release
	}}
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	type result struct {
		st  stats.Stat
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
		done <- result{st, err}
	}()
	<-started // the request is in flight inside the Source

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()
	time.Sleep(50 * time.Millisecond) // let Shutdown begin draining
	close(release)                    // in-flight request completes

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request killed by graceful drain: %v", res.err)
	}
	if res.st.Median != 42 {
		t.Fatalf("drained request answered %v", res.st)
	}
	if err := <-shutdownDone; err != nil {
		t.Logf("shutdown listener close: %v", err)
	}
	// New connections are refused after drain.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestShutdownForceClosesStragglers: a request still running past the
// drain budget is force-closed rather than blocking shutdown forever.
func TestShutdownForceClosesStragglers(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	src := &fakeSource{utilHook: func() {
		close(started)
		<-release
	}}
	srv, err := Serve(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	go cli.UtilizationCtx(context.Background(), ChannelKey{Global: 1}, 5)
	<-started

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown(100 * time.Millisecond)
		close(shutdownDone)
	}()
	// Shutdown must return even though the handler is stuck...
	select {
	case <-shutdownDone:
		t.Fatal("shutdown returned while a handler goroutine was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release) // unstick the handler; now shutdown can complete
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung after drain budget expired")
	}
}

// TestConcurrentClientsNoCrossTalk hammers one server with 10 clients
// issuing mixed operations and checks every answer against the
// expected per-query value: interleaved gob streams must never leak a
// response to the wrong client. Run under -race by `make verify`.
func TestConcurrentClientsNoCrossTalk(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	// Give every host a distinct CPU load so a cross-talked response is
	// detectable by value.
	hosts := []graph.NodeID{"m-1", "m-2", "m-3", "m-4", "m-5", "m-6", "m-7", "m-8"}
	for i, h := range hosts {
		r.net.SetHostLoad(h, float64(i+1)/10)
	}
	r.clk.RunUntil(30)

	srv, err := Serve(r.col, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	topo, _ := r.col.TopologyCtx(context.Background())
	key := keyFor(t, topo, "timberline", "whiteface")
	wantNodes := topo.Graph.NumNodes()

	const clients = 10
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			host := hosts[ci%len(hosts)]
			wantLoad := float64(ci%len(hosts)+1) / 10
			for it := 0; it < iters; it++ {
				switch it % 5 {
				case 0:
					tp, err := cli.TopologyCtx(context.Background())
					if err != nil {
						errs <- fmt.Errorf("client %d topo: %w", ci, err)
						return
					}
					if tp.Graph.NumNodes() != wantNodes {
						errs <- fmt.Errorf("client %d: topo has %d nodes, want %d", ci, tp.Graph.NumNodes(), wantNodes)
						return
					}
				case 1:
					ld, err := cli.HostLoadCtx(context.Background(), host, 20)
					if err != nil {
						errs <- fmt.Errorf("client %d load: %w", ci, err)
						return
					}
					if diff := ld.Median - wantLoad; diff > 1e-9 || diff < -1e-9 {
						errs <- fmt.Errorf("client %d: load(%s) = %v, want %v (cross-talk?)", ci, host, ld.Median, wantLoad)
						return
					}
				case 2:
					if _, err := cli.SamplesCtx(context.Background(), key); err != nil {
						errs <- fmt.Errorf("client %d samples: %w", ci, err)
						return
					}
				case 3:
					if _, err := cli.DataAgeCtx(context.Background(), key); err != nil {
						errs <- fmt.Errorf("client %d age: %w", ci, err)
						return
					}
				case 4:
					if h := cli.Health(); h == nil {
						errs <- fmt.Errorf("client %d: no health snapshot", ci)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
