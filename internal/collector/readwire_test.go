package collector

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// readOnce makes one read through any ReadSource into a fresh answer.
func readOnce(ctx context.Context, rs ReadSource, req *ReadRequest) (*ReadAnswer, error) {
	ans := new(ReadAnswer)
	return ans, rs.Read(ctx, req, ans)
}

// TestReadOp walks the read op's protocol on a served collector: one
// summary per listed entry in request order, a failure flag where the
// in-process read erred, "not modified" for the validator the server
// issued and only for that one, and a new stamp after a poll.
func TestReadOp(t *testing.T) {
	r, srvs := servedRig(t, 2)
	cl, err := Dial(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	topo, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	unknown := ChannelKey{Global: 9999}
	req := &ReadRequest{Span: 10, Discovered: true,
		Keys:  []ChannelKey{keyFor(t, topo, "m-6", "timberline"), unknown, keyFor(t, topo, "aspen", "timberline")},
		Hosts: []graph.NodeID{"m-6", "no-such-host"}}
	ans, err := readOnce(ctx, cl, req)
	if err != nil {
		t.Fatal(err)
	}
	version, _ := r.col.DataVersion()
	if ans.NotModified || ans.Instance == 0 || ans.Version != version || ans.DiscoveredAt != topo.DiscoveredAt {
		t.Fatalf("answer %+v, collector at version %d, topology discovered at %v", ans, version, topo.DiscoveredAt)
	}
	for i, key := range req.Keys {
		want, werr := r.col.UtilizationCtx(context.Background(), key, req.Span)
		if e := ans.Entries[i]; e.Failed != (werr != nil) || (werr == nil && e.Stat != want) {
			t.Errorf("key %v: %+v, Utilization gives %+v, %v", key, e, want, werr)
		}
	}
	for j, host := range req.Hosts {
		i := len(req.Keys) + j
		want, werr := r.col.HostLoadCtx(context.Background(), host, req.Span)
		if e := ans.Entries[i]; e.Failed != (werr != nil) || (werr == nil && e.Stat != want) {
			t.Errorf("host %s: %+v, HostLoad gives %+v, %v", host, e, want, werr)
		}
	}
	if !ans.Entries[1].Failed || ans.Entries[0].Failed {
		t.Fatalf("entries %+v: the unknown channel is entry 1", ans.Entries)
	}

	req.HaveInstance, req.HaveVersion = ans.Instance, ans.Version
	again, err := readOnce(ctx, cl, req)
	if err != nil || !again.NotModified || len(again.Entries) != 0 || again.Version != ans.Version {
		t.Fatalf("validator just issued: %+v, %v", again, err)
	}
	// Held but for the last channel and host: confirmed, and those two
	// answered.
	req.MissingKeys, req.MissingHosts = 1, 1
	part, err := readOnce(ctx, cl, req)
	if err != nil || !part.NotModified || part.KeyCount != 1 || len(part.Entries) != 2 ||
		part.Entries[0].Stat != ans.Entries[2].Stat || !part.Entries[1].Failed {
		t.Fatalf("validator with two entries missing: %+v, %v; the full answer was %+v", part, err, ans)
	}
	req.MissingKeys, req.MissingHosts = 0, 0
	// The same collector behind another server: equal version, another
	// issuer.
	other, err := Dial(srvs[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if a, err := readOnce(ctx, other, req); err != nil || a.NotModified || a.Instance == ans.Instance || a.Version != ans.Version {
		t.Fatalf("another server confirmed (or shares) this one's validator: %+v, %v", a, err)
	}
	r.clk.Advance(2)
	if a, err := readOnce(ctx, cl, req); err != nil || a.NotModified || a.Version <= ans.Version || a.Instance != ans.Instance {
		t.Fatalf("after a poll round: %+v, %v", a, err)
	}
	if got := srvs[0].Telemetry().Snapshot().Counters["server.op.read"]; got != 4 {
		t.Fatalf("server.op.read = %d, want 4", got)
	}
}

// erringFake is a versioned fake with a scripted utilization error.
type erringFake struct {
	*versionedFake
	utilErr error
}

func (v erringFake) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	if v.utilErr != nil {
		return stats.NoData(), v.utilErr
	}
	return v.versionedFake.UtilizationCtx(ctx, key, span)
}

// TestReadOpRefusals: a source without a data version issues no
// validator — its answers are never confirmed, only answered again; a
// lifecycle error from any one entry refuses the whole op with its own
// typed code, so failover treats a read like any other op; and a read
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
		return readOnce(ctx, cl, req)
	}
	one := &ReadRequest{Keys: []ChannelKey{{Global: 1}}}
	unversioned := &ReadRequest{HaveInstance: 1, Keys: one.Keys}
	if ans, err := read(&fakeSource{}, ServerConfig{}, unversioned); err != nil || ans.Instance != 0 || ans.NotModified || len(ans.Entries) != 1 {
		t.Fatalf("unversioned source: %+v, %v, want an answer without a validator", ans, err)
	}
	if _, err := read(erringFake{newVersionedFake(), ErrStaleReplica}, ServerConfig{}, one); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("entry refused with ErrStaleReplica: the op answered %v", err)
	}
	if ans, err := read(erringFake{newVersionedFake(), errors.New("no window")}, ServerConfig{}, one); err != nil || !ans.Entries[0].Failed {
		t.Fatalf("entry failed with a measurement error: %+v, %v", ans, err)
	}

	big := &ReadRequest{Keys: make([]ChannelKey, 1000)}
	if w := readWeight(big); w <= 4 {
		t.Fatalf("a 1000-entry read weighs %d units", w)
	}
	if w := readWeight(one); w != 1 {
		t.Fatalf("a one-entry read weighs %d units, want a point query's 1", w)
	}
	ans, err := read(newVersionedFake(), ServerConfig{MaxInflight: 4}, big)
	if err != nil || len(ans.Entries) != 1000 {
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
		"short":                      {Instance: 5, Version: 10, KeyCount: 2, Entries: make([]ReadEntry, 1)},
		"hosts for channels":         {Instance: 5, Version: 10, KeyCount: 1, Entries: make([]ReadEntry, 2)},
		"another kind":               {Instance: 5, Version: 10, Of: ReadAge, KeyCount: 2, Entries: make([]ReadEntry, 2)},
		"confirms another validator": {Instance: 5, Version: 10, NotModified: true},
		"confirms another issuer":    {Instance: 6, Version: 9, NotModified: true},
	} {
		if got, err := readOnce(context.Background(), remote{lyingCaller{&response{Read: ans}}}, req); err == nil {
			t.Errorf("%s: accepted %+v", name, got)
		}
	}
	ok := &ReadAnswer{Instance: 5, Version: 9, NotModified: true}
	if got, err := readOnce(context.Background(), remote{lyingCaller{&response{Read: ok}}}, req); err != nil || got.Instance != 5 || !got.NotModified {
		t.Errorf("a well-formed confirmation: %+v, %v", got, err)
	}
	// A confirmation owes the entries the request said were missing.
	req.MissingKeys = 1
	if got, err := readOnce(context.Background(), remote{lyingCaller{&response{Read: ok}}}, req); err == nil {
		t.Errorf("a confirmation without the missing entry: accepted %+v", got)
	}
	part := &ReadAnswer{Instance: 5, Version: 9, NotModified: true, KeyCount: 1, Entries: make([]ReadEntry, 1)}
	if got, err := readOnce(context.Background(), remote{lyingCaller{&response{Read: part}}}, req); err != nil {
		t.Errorf("a confirmation with the missing entry: %+v, %v", got, err)
	}
	// More missing than listed is malformed, in process and on the wire.
	req.MissingKeys = 3
	if _, err := readOnce(context.Background(), NewReader(newVersionedFake()), req); err == nil {
		t.Error("the Reader answered a request missing more channels than it lists")
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, reqFrame(&request{Op: "read", Read: req}), 0); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(&buf, new(muxFrame), 0); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("decoding a request missing more channels than it lists: %v", err)
	}
}

// TestPointReadsMatchTheSource: a dialed handle's measurement methods
// are one-entry reads and answer what the served source answers, bit
// for bit — a summary, a window, an age, a host load — and an error
// where it errs; each costs one read and no topology lookup.
func TestPointReadsMatchTheSource(t *testing.T) {
	r, srvs := servedRig(t, 1)
	cl, err := Dial(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	topo, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	calls := 0
	for _, l := range topo.Graph.Links() {
		key := topo.Key(l, l.DirFrom(l.A))
		st, err := cl.UtilizationCtx(ctx, key, 10)
		want, werr := r.col.UtilizationCtx(context.Background(), key, 10)
		if err != nil || werr != nil || st != want {
			t.Fatalf("%v: utilization %+v, %v; the source says %+v, %v", key, st, err, want, werr)
		}
		w, err := cl.SamplesCtx(ctx, key)
		wantW, werr := r.col.SamplesCtx(context.Background(), key)
		if err != nil || werr != nil || len(w) != len(wantW) || len(w) == 0 || w[len(w)-1] != wantW[len(w)-1] {
			t.Fatalf("%v: a window of %d samples, %v; the source holds %d, %v", key, len(w), err, len(wantW), werr)
		}
		age, err := cl.DataAgeCtx(ctx, key)
		wantAge, werr := r.col.DataAgeCtx(context.Background(), key)
		if err != nil || werr != nil || !bits(age, wantAge) {
			t.Fatalf("%v: age %v, %v; the source says %v, %v", key, age, err, wantAge, werr)
		}
		calls += 3
	}
	for _, host := range topo.Graph.ComputeNodes() {
		st, err := cl.HostLoadCtx(ctx, host, 10)
		want, werr := r.col.HostLoadCtx(context.Background(), host, 10)
		if err != nil || werr != nil || st != want {
			t.Fatalf("%s: load %+v, %v; the source says %+v, %v", host, st, err, want, werr)
		}
		calls++
	}
	unknown := ChannelKey{Global: 9999}
	if _, err := cl.UtilizationCtx(ctx, unknown, 10); err == nil {
		t.Error("utilization of an unknown channel answered")
	}
	if _, err := cl.SamplesCtx(ctx, unknown); err == nil {
		t.Error("the window of an unknown channel answered")
	}
	if _, err := cl.DataAgeCtx(ctx, unknown); err == nil {
		t.Error("the age of an unknown channel answered")
	}
	if _, err := cl.HostLoadCtx(ctx, "no-such-host", 10); err == nil {
		t.Error("the load of an unknown host answered")
	}
	ops := srvs[0].Telemetry().Snapshot().Counters
	if ops["server.op.read"] != uint64(calls+4) || ops["server.op.topo"] != 0 {
		t.Fatalf("%d point queries cost %d reads and %d topology fetches", calls+4, ops["server.op.read"], ops["server.op.topo"])
	}
}
