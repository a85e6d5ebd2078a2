package collector

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// TestReadOp walks the read op's protocol on a served collector: one
// summary per listed entry in request order, a failure flag where the
// scalar op would have erred, "not modified" for the validator the
// server issued and only for that one, and a new stamp after a poll.
func TestReadOp(t *testing.T) {
	r, srvs := servedRig(t, 2)
	cl, err := Dial(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	topo, err := r.col.Topology()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	unknown := ChannelKey{Global: 9999}
	req := &ReadRequest{Span: 10,
		Keys:  []ChannelKey{keyFor(t, topo, "m-6", "timberline"), unknown, keyFor(t, topo, "aspen", "timberline")},
		Hosts: []graph.NodeID{"m-6", "no-such-host"}}
	ans, err := cl.Read(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	version, _ := r.col.DataVersion()
	if ans.NotModified || ans.Instance == 0 || ans.Version != version || ans.DiscoveredAt != topo.DiscoveredAt {
		t.Fatalf("answer %+v, collector at version %d, topology discovered at %v", ans, version, topo.DiscoveredAt)
	}
	for i, key := range req.Keys {
		want, werr := r.col.Utilization(key, req.Span)
		if ans.Failed[i] != (werr != nil) || (werr == nil && ans.Stats[i] != want) {
			t.Errorf("key %v: %+v failed=%v, Utilization gives %+v, %v", key, ans.Stats[i], ans.Failed[i], want, werr)
		}
	}
	for j, host := range req.Hosts {
		i := len(req.Keys) + j
		want, werr := r.col.HostLoad(host, req.Span)
		if ans.Failed[i] != (werr != nil) || (werr == nil && ans.Stats[i] != want) {
			t.Errorf("host %s: %+v failed=%v, HostLoad gives %+v, %v", host, ans.Stats[i], ans.Failed[i], want, werr)
		}
	}
	if !ans.Failed[1] || ans.Failed[0] {
		t.Fatalf("failure flags %v: the unknown channel is entry 1", ans.Failed)
	}

	req.HaveInstance, req.HaveVersion = ans.Instance, ans.Version
	again, err := cl.Read(ctx, req)
	if err != nil || !again.NotModified || len(again.Stats) != 0 || again.Version != ans.Version {
		t.Fatalf("validator just issued: %+v, %v", again, err)
	}
	// The same collector behind another server: equal version, another
	// issuer.
	other, err := Dial(srvs[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if a, err := other.Read(ctx, req); err != nil || a.NotModified || a.Instance == ans.Instance || a.Version != ans.Version {
		t.Fatalf("another server confirmed (or shares) this one's validator: %+v, %v", a, err)
	}
	r.clk.Advance(2)
	if a, err := cl.Read(ctx, req); err != nil || a.NotModified || a.Version <= ans.Version || a.Instance != ans.Instance {
		t.Fatalf("after a poll round: %+v, %v", a, err)
	}
	if got := srvs[0].Telemetry().Snapshot().Counters["server.op.read"]; got != 3 {
		t.Fatalf("server.op.read = %d, want 3", got)
	}
}

// erringFake is a versioned fake with a scripted utilization error.
type erringFake struct {
	*versionedFake
	utilErr error
}

func (v erringFake) Utilization(key ChannelKey, span float64) (stats.Stat, error) {
	if v.utilErr != nil {
		return stats.NoData(), v.utilErr
	}
	return v.versionedFake.Utilization(key, span)
}

// TestReadOpRefusals: a source without a data version cannot issue a
// validator and says so with the typed, authoritative error; a
// lifecycle error from any one entry refuses the whole op with its own
// typed code, so failover treats a read like a scalar op; and a read
// far heavier than the admission gate is still granted.
func TestReadOpRefusals(t *testing.T) {
	ctx := context.Background()
	read := func(src Source, cfg ServerConfig, req *ReadRequest) (*ReadAnswer, error) {
		t.Helper()
		srv, err := ServeConfig(src, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		return cl.Read(ctx, req)
	}
	one := &ReadRequest{Keys: []ChannelKey{{Global: 1}}}
	if _, err := read(&fakeSource{}, ServerConfig{}, one); !errors.Is(err, ErrReadUnsupported) || IsLifecycleError(err) {
		t.Fatalf("unversioned source: %v, want the authoritative ErrReadUnsupported", err)
	}
	if _, err := read(erringFake{newVersionedFake(), ErrStaleReplica}, ServerConfig{}, one); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("entry refused with ErrStaleReplica: the op answered %v", err)
	}
	if ans, err := read(erringFake{newVersionedFake(), errors.New("no window")}, ServerConfig{}, one); err != nil || !ans.Failed[0] {
		t.Fatalf("entry failed with a measurement error: %+v, %v", ans, err)
	}

	big := &ReadRequest{Keys: make([]ChannelKey, 1000)}
	if w := readWeight(big); w <= 4 {
		t.Fatalf("a 1000-entry read weighs %d units", w)
	}
	if w := readWeight(one); w != 1 {
		t.Fatalf("a one-entry read weighs %d units, want a scalar op's 1", w)
	}
	ans, err := read(newVersionedFake(), ServerConfig{MaxInflight: 4}, big)
	if err != nil || len(ans.Stats) != 1000 {
		t.Fatalf("a read heavier than the gate: %v", err)
	}
}

// lyingCaller answers every call with one canned response.
type lyingCaller struct{ resp *response }

func (l lyingCaller) call(context.Context, *request) (*response, error) { return l.resp, nil }

// TestReadRejectsMisshapenAnswers: the client half checks an answer
// against the request before a caller indexes into it or keeps a memo
// on its word.
func TestReadRejectsMisshapenAnswers(t *testing.T) {
	req := &ReadRequest{HaveInstance: 5, HaveVersion: 9, Keys: make([]ChannelKey, 2)}
	for name, ans := range map[string]*ReadAnswer{
		"missing":                    nil,
		"short":                      {Instance: 5, Version: 10, Stats: make([]stats.Stat, 1), Failed: make([]bool, 1)},
		"flags and stats disagree":   {Instance: 5, Version: 10, Stats: make([]stats.Stat, 2), Failed: make([]bool, 1)},
		"confirms another validator": {Instance: 5, Version: 10, NotModified: true},
		"confirms another issuer":    {Instance: 6, Version: 9, NotModified: true},
	} {
		if got, err := (remote{lyingCaller{&response{Read: ans}}}).Read(context.Background(), req); err == nil {
			t.Errorf("%s: accepted %+v", name, got)
		}
	}
	ok := &ReadAnswer{Instance: 5, Version: 9, NotModified: true}
	if got, err := (remote{lyingCaller{&response{Read: ok}}}).Read(context.Background(), req); err != nil || got != ok {
		t.Errorf("a well-formed confirmation: %+v, %v", got, err)
	}
}
