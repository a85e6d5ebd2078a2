package collector

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// opTableSource is a fakeSource without a data version, so the server
// answers every op on a goroutine, whose topology, utilization, health
// and telemetry reads wait on hold while it is set.
type opTableSource struct {
	fakeSource
	hold atomic.Pointer[latch]
}

func (o *opTableSource) wait() {
	if l := o.hold.Load(); l != nil {
		l.wait()
	}
}

func (o *opTableSource) TopologyCtx(ctx context.Context) (*Topology, error) {
	o.wait()
	return fakeTopo(), nil
}

func (o *opTableSource) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	o.wait()
	return stats.Exact(42), nil
}

func (o *opTableSource) Health() map[graph.NodeID]AgentHealth {
	o.wait()
	return nil
}

func (o *opTableSource) Telemetry() *telemetry.Registry {
	o.wait()
	return nil
}

// TestOpTable drives every op over the wire. On a standby (the HA gate
// refuses with a leader hint) ping and stats answer, and every other op,
// watch included, is refused with ErrNotLeader and the hint. On the
// leader an unknown op answers "unknown op" and the connection keeps
// serving, and each op holds the gate units DESIGN §9 prices it at
// while its handler runs.
func TestOpTable(t *testing.T) {
	const hint = "10.0.0.9:7171"
	var standby atomic.Bool
	standby.Store(true)
	src := &opTableSource{}
	srv, err := ServeConfig(src, "127.0.0.1:0", ServerConfig{
		// A full gate sheds at once, so an op that answers while topo
		// holds every unit weighs nothing.
		MaxInflight: 4, QueueDepth: 0,
		Gate: func() error {
			if standby.Load() {
				return &NotLeaderError{Leader: hint}
			}
			return nil
		},
		Matrix: func(ctx context.Context, req *MatrixRequest) (*MatrixAnswer, error) {
			src.wait()
			return &MatrixAnswer{}, nil
		},
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
	ctx := context.Background()

	read := func(keys, hosts int) *request {
		return &request{Op: "read", Read: &ReadRequest{Span: 5, Keys: make([]ChannelKey, keys), Hosts: make([]graph.NodeID, hosts)}}
	}
	matrix := func(n, m int) *request {
		return &request{Op: "matrix", Matrix: &MatrixRequest{Srcs: make([]graph.NodeID, n), Dsts: make([]graph.NodeID, m)}}
	}

	// Standby.
	for _, op := range []string{"ping", "stats"} {
		if _, err := cli.call(ctx, &request{Op: op}); err != nil {
			t.Errorf("%s on a standby: %v", op, err)
		}
	}
	for _, req := range []*request{{Op: "topo"}, {Op: "health"}, read(1, 0), matrix(1, 1), {Op: "no-such-op"}} {
		_, err := cli.call(ctx, req)
		if h, ok := LeaderHint(err); !errors.Is(err, ErrNotLeader) || !ok || h != hint {
			t.Errorf("%s on a standby: got %v, want ErrNotLeader with the hint", req.Op, err)
		}
	}
	_, err = cli.Watch(ctx, WatchRequest{Kind: WatchVersion})
	if h, ok := LeaderHint(err); !errors.Is(err, ErrNotLeader) || !ok || h != hint {
		t.Errorf("watch on a standby: got %v, want ErrNotLeader with the hint", err)
	}

	// Leader.
	standby.Store(false)
	if err := cli.PingCtx(ctx); err != nil { // redials: the refused watch dropped the connection
		t.Fatal(err)
	}
	mc := cli.mc
	if _, err := cli.call(ctx, &request{Op: "no-such-op"}); err == nil || !strings.Contains(err.Error(), `unknown op "no-such-op"`) {
		t.Errorf("unknown op: got %v", err)
	}
	if err := cli.PingCtx(ctx); err != nil || cli.mc != mc {
		t.Errorf("after an unknown op: ping %v, same connection %v", err, cli.mc == mc)
	}

	p := dialRaw(t, srv.Addr())
	for _, c := range []struct {
		req  *request
		want int
	}{
		{&request{Op: "topo"}, 4},
		{&request{Op: "health"}, 1},
		{&request{Op: "stats"}, 1},
		{read(1, 0), 1},
		{read(20, 12), 1 + 32/16},
		{matrix(1, 1), 1},
		{matrix(16, 32), 1 + 16*32/256},
	} {
		l := newLatch()
		src.hold.Store(l)
		stream := p.send(c.req)
		<-l.entered
		got := srv.GateStats().InUse
		if c.req.Op == "topo" {
			// topo holds all four units: a ping still answers.
			ping := p.send(&request{Op: "ping"})
			if r := p.recv(1)[ping]; r == nil || r.Err != "" {
				t.Errorf("ping behind a full gate: %+v", r)
			}
		}
		src.hold.Store(nil)
		l.open()
		if r := p.recv(1)[stream]; r == nil || r.Err != "" {
			t.Errorf("%s: answered %+v", c.req.Op, r)
		}
		if got != c.want {
			t.Errorf("%s holds %d gate units, want %d", c.req.Op, got, c.want)
		}
	}
}
