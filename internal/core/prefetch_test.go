package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// scriptedReader stands in for a dialed collector: the rig collector's
// scalar surface with its data version hidden (the embedded interface
// promotes Source only) and a Read the test scripts — which instance
// and version it stamps, what discovery time it names, what it fails
// with.
type scriptedReader struct {
	collector.Source
	col *collector.Collector

	instance     uint64
	versionSkew  uint64
	discoveredAt func() float64 // nil: the collector's own
	err          error
	reads, stats int
}

func (s *scriptedReader) Read(ctx context.Context, req *collector.ReadRequest) (*collector.ReadAnswer, error) {
	s.reads++
	if s.err != nil {
		return nil, s.err
	}
	v, _ := s.col.DataVersion()
	topo, err := s.col.Topology()
	if err != nil {
		return nil, err
	}
	ans := &collector.ReadAnswer{Instance: s.instance, Version: v + s.versionSkew, DiscoveredAt: topo.DiscoveredAt}
	if s.discoveredAt != nil {
		ans.DiscoveredAt = s.discoveredAt()
	}
	if req.HaveInstance == ans.Instance && req.HaveVersion == ans.Version {
		ans.NotModified = true
		return ans, nil
	}
	for _, k := range req.Keys {
		st, err := s.col.Utilization(k, req.Span)
		ans.Stats, ans.Failed = append(ans.Stats, st), append(ans.Failed, err != nil)
	}
	for _, h := range req.Hosts {
		st, err := s.col.HostLoad(h, req.Span)
		ans.Stats, ans.Failed = append(ans.Stats, st), append(ans.Failed, err != nil)
	}
	s.stats += len(ans.Stats)
	return ans, nil
}

func readerRig(t *testing.T) (*rig, *scriptedReader, *Modeler) {
	t.Helper()
	r := testbedRig(t)
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(30)
	sr := &scriptedReader{Source: r.col, col: r.col, instance: 77, versionSkew: 1000}
	return r, sr, New(Config{Source: sr})
}

// TestPrefetchFallsBackToPerChannel: a peer that cannot answer the read
// op, or a read that dies in transport, costs the query nothing but the
// attempt: the per-channel path answers, as it did before the op
// existed. Timeframes that do not read utilization summaries never try.
func TestPrefetchFallsBackToPerChannel(t *testing.T) {
	for _, failure := range []error{collector.ErrReadUnsupported, errors.New("connection reset")} {
		r, sr, m := readerRig(t)
		sr.err = failure
		want, err := r.mod.GetGraph(nil, TFHistory(10))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.GetGraph(nil, TFHistory(10))
		if err != nil {
			t.Fatalf("%v: %v", failure, err)
		}
		for i := range want.Links {
			if got.Links[i] != want.Links[i] {
				t.Fatalf("%v: link %d %+v, want %+v", failure, i, got.Links[i], want.Links[i])
			}
		}
		if sr.reads != 1 {
			t.Fatalf("%v: %d read attempts for one query", failure, sr.reads)
		}
	}
	_, sr, m := readerRig(t)
	for _, tf := range []Timeframe{TFCapacity(), TFFuture(5)} {
		if _, err := m.AvailableBandwidth("m-1", "m-8", tf); err != nil {
			t.Fatal(err)
		}
	}
	if sr.reads != 0 {
		t.Fatalf("capacity and future timeframes sent %d reads", sr.reads)
	}
}

// TestPrefetchPropagatesLifecycleErrors: a refusal that means "the
// caller gave up or the server declined" aborts the query with its
// typed error, exactly as the per-channel path does.
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
	bw("m-2", "m-7") // other channels, so no validator is sent
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
