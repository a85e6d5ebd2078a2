package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// scriptedReader stands in for a dialed collector: the rig collector's
// scalar surface with its data version hidden (the embedded interface
// promotes Source only) and a read the test scripts — which instance
// and version it stamps, what discovery time it names, what it fails
// with. Its entries are a Reader's over the collector.
type scriptedReader struct {
	collector.Source
	col   *collector.Collector
	inner *collector.Reader

	instance     uint64
	versionSkew  uint64
	discoveredAt func() float64 // nil: the collector's own
	err          error
	reads, stats int
	kinds        []collector.ReadKind
	listed       []int // channels per read
}

func (s *scriptedReader) Read(ctx context.Context, req *collector.ReadRequest, ans *collector.ReadAnswer) error {
	s.reads++
	s.kinds, s.listed = append(s.kinds, req.Of), append(s.listed, len(req.Keys))
	if s.err != nil {
		return s.err
	}
	v, _ := s.col.DataVersion()
	v += s.versionSkew
	unheld := *req
	unheld.HaveInstance, unheld.MissingKeys, unheld.MissingHosts = 0, 0, 0
	notModified := req.HaveInstance == s.instance && req.HaveVersion == v
	if notModified {
		unheld.Keys = req.Keys[len(req.Keys)-req.MissingKeys:]
		unheld.Hosts = req.Hosts[len(req.Hosts)-req.MissingHosts:]
	}
	if err := s.inner.Read(ctx, &unheld, ans); err != nil {
		return err
	}
	ans.Instance, ans.Version, ans.NotModified = s.instance, v, notModified
	s.stats += len(ans.Entries)
	topo, err := s.col.TopologyCtx(context.Background())
	if err != nil {
		return err
	}
	ans.DiscoveredAt = topo.DiscoveredAt
	if s.discoveredAt != nil {
		ans.DiscoveredAt = s.discoveredAt()
	}
	return nil
}

func readerRig(t *testing.T) (*rig, *scriptedReader, *Modeler) {
	t.Helper()
	r := testbedRig(t)
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(30)
	sr := &scriptedReader{Source: r.col, col: r.col, inner: collector.NewReader(r.col), instance: 77, versionSkew: 1000}
	return r, sr, New(Config{Source: sr})
}

// TestPrefetchFailureDegradesEveryEntry: a read that dies in transport
// costs the query one attempt and no per-channel retries; every entry
// degrades as a failed one does — a channel to its capacity at low
// accuracy, a host to no data — exactly what an in-process Modeler
// answers for a source that knows none of them. Capacity lists no
// channel; Future reads windows.
func TestPrefetchFailureDegradesEveryEntry(t *testing.T) {
	r, sr, m := readerRig(t)
	sr.err = errors.New("connection reset")
	got, err := m.GetGraph(nil, TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	blind := New(Config{Source: &unknowingSource{r.col}})
	want, err := blind.GetGraph(nil, TFHistory(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] || got.Links[i].Avail[0].Accuracy != 0.1 {
			t.Fatalf("link %d %+v, want the degraded %+v", i, got.Links[i], want.Links[i])
		}
	}
	for i := range want.Nodes {
		if got.Nodes[i].Load != want.Nodes[i].Load || got.Nodes[i].Load.Valid() {
			t.Fatalf("node %d load %+v, want no data", i, got.Nodes[i].Load)
		}
	}
	if sr.reads != 1 {
		t.Fatalf("%d read attempts for one query", sr.reads)
	}

	_, sr, m = readerRig(t)
	for _, tf := range []Timeframe{TFCapacity(), TFFuture(5)} {
		if _, err := m.AvailableBandwidth("m-1", "m-8", tf); err != nil {
			t.Fatal(err)
		}
	}
	if len(sr.kinds) != 2 || sr.listed[0] != 0 || sr.kinds[1] != collector.ReadWindow || sr.listed[1] == 0 {
		t.Fatalf("capacity then future sent reads of kinds %v listing %v channels, want an empty read, then a window read", sr.kinds, sr.listed)
	}
}

// unknowingSource is the collector with every measurement unknown.
type unknowingSource struct{ *collector.Collector }

func (unknowingSource) UtilizationCtx(context.Context, collector.ChannelKey, float64) (stats.Stat, error) {
	return stats.NoData(), errors.New("unknown channel")
}

func (unknowingSource) HostLoadCtx(context.Context, graph.NodeID, float64) (stats.Stat, error) {
	return stats.NoData(), errors.New("no load data")
}

// TestPrefetchPropagatesLifecycleErrors: a refusal that means "the
// caller gave up or the server declined" aborts the query with its
// typed error; it degrades nothing.
func TestPrefetchPropagatesLifecycleErrors(t *testing.T) {
	_, sr, m := readerRig(t)
	sr.err = &collector.ShedError{RetryAfter: 75 * time.Millisecond}
	_, err := m.QueryFlowInfo(nil, nil, []Flow{{Src: "m-1", Dst: "m-8", Kind: IndependentFlow}}, TFCurrent())
	if !errors.Is(err, collector.ErrLoadShed) {
		t.Fatalf("got %v, want ErrLoadShed", err)
	}
	if ra, ok := collector.RetryAfterHint(err); !ok || ra != 75*time.Millisecond {
		t.Fatalf("retry-after hint lost: %v, %v", ra, ok)
	}
}

// TestPrefetchGenerations: one frame per query; a repeated query is
// confirmed without a summary; an answer stamped by another instance
// replaces the generation even at a lower version; and an answer older
// than the installed generation of the same instance serves its own
// query without displacing it.
func TestPrefetchGenerations(t *testing.T) {
	r, sr, m := readerRig(t)
	tf := TFHistory(10)
	installed := func() (instance, version uint64) {
		am := m.snap.Load().memo.Load()
		return am.instance, am.version
	}
	bw := func(src, dst graph.NodeID) {
		t.Helper()
		got, err := m.AvailableBandwidth(src, dst, tf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.mod.AvailableBandwidth(src, dst, tf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s -> %s: %+v, in process %+v", src, dst, got, want)
		}
	}

	bw("m-1", "m-8")
	v0, _ := r.col.DataVersion()
	if inst, ver := installed(); inst != 77 || ver != v0+1000 || sr.reads != 1 {
		t.Fatalf("after one query: generation (%d, %d), %d reads", inst, ver, sr.reads)
	}
	fetched := sr.stats
	bw("m-1", "m-8")
	if sr.reads != 2 || sr.stats != fetched {
		t.Fatalf("repeated query: %d reads, %d summaries more", sr.reads, sr.stats-fetched)
	}
	// An overlapping query is confirmed too, and reads only the channels
	// the generation lacks.
	bw("m-2", "m-8")
	if got, listed := sr.stats-fetched, sr.listed[2]; sr.reads != 3 || got == 0 || got >= listed {
		t.Fatalf("overlapping query: %d reads, %d summaries for %d listed channels", sr.reads, got, listed)
	}
	fetched = sr.stats

	// Another issuer, lower version: replaced.
	sr.instance, sr.versionSkew = 78, 0
	bw("m-1", "m-8")
	if inst, ver := installed(); inst != 78 || ver != v0 || sr.stats == fetched {
		t.Fatalf("after an instance change: generation (%d, %d)", inst, ver)
	}

	// Same issuer, an answer stamped before the installed generation (it
	// was overtaken on the wire): served, not installed.
	sr.versionSkew = 500
	bw("m-1", "m-8")
	sr.versionSkew = 400
	bw("m-2", "m-7") // channels the generation lacks: read in full, at 400
	if inst, ver := installed(); inst != 78 || ver != v0+500 {
		t.Fatalf("an older answer displaced the generation: now (%d, %d)", inst, ver)
	}
}

// TestPrefetchFollowsTopologyOnce: a discovery time other than the
// snapshot's drops the snapshot and re-runs the query against a fresh
// one; if the topology has moved again by then the query reports it
// rather than looping.
func TestPrefetchFollowsTopologyOnce(t *testing.T) {
	_, sr, m := readerRig(t)
	if _, err := m.GetGraph(nil, TFHistory(10)); err != nil {
		t.Fatal(err)
	}
	e0 := m.snap.Load().epoch
	moved := 0.0
	sr.discoveredAt = func() float64 { moved++; return moved }
	sr.reads = 0
	_, err := m.GetGraph(nil, TFHistory(10))
	if err != errTopologyMoved || sr.reads != 2 {
		t.Fatalf("a topology that keeps moving: %v after %d reads", err, sr.reads)
	}
	sr.discoveredAt = nil
	g, err := m.GetGraph(nil, TFHistory(10))
	if err != nil || g.Epoch <= e0 {
		t.Fatalf("after it settled: epoch %d (was %d), %v", g.Epoch, e0, err)
	}
}
