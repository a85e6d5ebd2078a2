package collector

import (
	"context"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/traffic"
)

// TestTCPService exercises the full daemon path: simulated network ->
// SNMP agents -> collector -> TCP service -> client, over a real
// localhost socket.
func TestTCPService(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.net.SetHostLoad("m-5", 0.25)
	r.clk.RunUntil(30)

	srv, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Topology round-trips.
	remote, err := cli.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local, _ := r.col.TopologyCtx(context.Background())
	if remote.Graph.NumNodes() != local.Graph.NumNodes() || remote.Graph.NumLinks() != local.Graph.NumLinks() {
		t.Fatalf("topology mismatch: %d/%d vs %d/%d nodes/links",
			remote.Graph.NumNodes(), remote.Graph.NumLinks(),
			local.Graph.NumNodes(), local.Graph.NumLinks())
	}
	if remote.Graph.Node("timberline").Kind != graph.Network {
		t.Fatal("node kind lost in transit")
	}

	// Utilization agrees with the in-process answer.
	k := keyFor(t, local, "timberline", "whiteface")
	want, _ := r.col.UtilizationCtx(context.Background(), k, 20)
	got, err := cli.UtilizationCtx(context.Background(), k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Median-want.Median) > 1e-9 {
		t.Fatalf("util = %v, want %v", got, want)
	}

	// Samples.
	samples, err := cli.SamplesCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples over TCP")
	}

	// Host load.
	load, err := cli.HostLoadCtx(context.Background(), "m-5", 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load.Median-0.25) > 1e-9 {
		t.Fatalf("load = %v", load)
	}

	// Errors propagate.
	if _, err := cli.UtilizationCtx(context.Background(), ChannelKey{Global: 999}, 5); err == nil {
		t.Fatal("bogus channel succeeded over TCP")
	}
	if _, err := cli.HostLoadCtx(context.Background(), "aspen", 5); err == nil {
		t.Fatal("router load succeeded over TCP")
	}
}

func TestClientReconnects(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(10)
	srv, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the connection server-side; the next call must reconnect.
	srv.Close()
	srv2, err := ServeConfig(r.col, addr, ServerConfig{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := cli.TopologyCtx(context.Background()); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
}

// TestServerRestartMidQueryStream kills and rebinds the server in the
// middle of a stream of queries; the client's reconnect-with-backoff
// path must hide the restart from the caller entirely.
func TestServerRestartMidQueryStream(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.RunUntil(20)

	srv, err := ServeConfig(r.col, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := DialConfig(addr, ClientConfig{
		CallTimeout:  2 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	local, _ := r.col.TopologyCtx(context.Background())
	k := keyFor(t, local, "timberline", "whiteface")
	for i := 0; i < 10; i++ {
		if i == 5 {
			srv.Close()
			srv, err = ServeConfig(r.col, addr, ServerConfig{})
			if err != nil {
				t.Skipf("could not rebind %s: %v", addr, err)
			}
		}
		if _, err := cli.UtilizationCtx(context.Background(), k, 10); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if _, err := cli.TopologyCtx(context.Background()); err != nil {
			t.Fatalf("query %d (topo): %v", i, err)
		}
	}
	srv.Close()
}

// TestClientCallDeadline points the client at a server that accepts and
// reads but never answers: calls must fail within the configured
// deadline instead of blocking the Modeler forever.
func TestClientCallDeadline(t *testing.T) {
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
			go io.Copy(io.Discard, c)
		}
	}()
	cli, err := DialConfig(ln.Addr().String(), ClientConfig{
		CallTimeout:  150 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	if _, err := cli.TopologyCtx(context.Background()); err == nil {
		t.Fatal("hung server produced an answer")
	}
	// Two attempts at 150 ms each plus slack.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: call took %v", elapsed)
	}
}

func TestMergeDisjointDomains(t *testing.T) {
	r := newRig(t, 2)
	// Build two collectors over disjoint halves of the testbed.
	mk := func(ids ...graph.NodeID) *Collector {
		addrs := make(map[graph.NodeID]string)
		for _, id := range ids {
			addrs[id] = snmp.Addr(id)
		}
		return New(Config{
			Client:     snmp.NewClient(r.att.Registry, snmp.DefaultCommunity),
			Clock:      r.clk,
			Addrs:      addrs,
			PollPeriod: 2,
		})
	}
	west := mk("aspen", "timberline", "m-1", "m-2", "m-3", "m-4", "m-5", "m-6")
	east := mk("whiteface", "m-7", "m-8")
	if err := west.Start(); err != nil {
		t.Fatal(err)
	}
	if err := east.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-7", "m-8", 30e6)
	r.clk.RunUntil(30)

	m := Merge(west, east)
	topo, err := m.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph.NumLinks() != 10 {
		t.Fatalf("merged links = %d", topo.Graph.NumLinks())
	}
	// whiteface appears as a leaf host to west but as a router to east;
	// the merge must keep the router view.
	if topo.Graph.Node("whiteface").Kind != graph.Network {
		t.Fatal("merge lost router kind")
	}
	if !topo.Graph.Connected() {
		t.Fatal("merged topology disconnected")
	}
	// Utilization on an east-side link is only known to east.
	k := keyFor(t, topo, "m-7", "whiteface")
	st, err := m.UtilizationCtx(context.Background(), k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-30e6) > 1e4 {
		t.Fatalf("merged util = %v", st)
	}
	// Host load via merge.
	r.net.SetHostLoad("m-7", 0.5)
	r.clk.RunUntil(40)
	ld, err := m.HostLoadCtx(context.Background(), "m-7", 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ld.Median-0.5) > 1e-9 {
		t.Fatalf("merged load = %v", ld)
	}
	if _, err := m.SamplesCtx(context.Background(), ChannelKey{Global: 999}); err == nil {
		t.Fatal("bogus channel succeeded via merge")
	}
}
