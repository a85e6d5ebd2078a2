package federation_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/collector"
	"repro/internal/federation"
	"repro/internal/graph"
)

// TestMergeDuplicateBorderAcrossRegions: two remote regions both claim
// the same border router (a shared exchange point). The merge must
// unify it into one router attached to both hubs instead of erroring or
// duplicating — the node-name union rule doing its job on summaries.
func TestMergeDuplicateBorderAcrossRegions(t *testing.T) {
	e := newFed(t)
	mkPeer := func(region, other string, epoch uint64) federation.Peer {
		return federation.FuncPeer(region, func() (*collector.RegionSummary, error) {
			return &collector.RegionSummary{
				Region: region, Epoch: epoch, GeneratedAt: 1,
				Hosts:   []collector.RegionHost{{ID: region + "-h0", Power: 1, AccessBps: 1e8, AvailableBps: 9e7}},
				Borders: []collector.RegionBorder{{ID: "xchg", InteriorBps: 5e8}},
				Pairs:   []collector.RegionPair{{Peer: other, Links: 2, CapacityBps: 4e8, AvailableBps: 3e8, HopCount: 1}},
			}, nil
		})
	}
	v := federation.NewView(federation.Config{
		Region: e.Regions[0],
		Peers:  []federation.Peer{mkPeer("pA", "pB", 3), mkPeer("pB", "pA", 8)},
		Clock:  e.Clk,
	})
	topo, err := v.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LastPartialError(); err != nil {
		t.Fatalf("partial merge: %v", err)
	}
	g := topo.Graph
	x := g.Node("xchg")
	if x == nil || x.Kind != graph.Network {
		t.Fatalf("shared border not unified as a router: %+v", x)
	}
	if got := len(g.LinksAt("xchg")); got != 2 {
		t.Fatalf("shared border has %d links, want 2 (one per hub)", got)
	}
	// Both regions declared the pA–pB pair; the canonical synthetic link
	// ID must collapse them to a single link.
	hA, hB := federation.HubID("pA"), federation.HubID("pB")
	pairs := 0
	for _, l := range g.Links() {
		if (l.A == hA && l.B == hB) || (l.A == hB && l.B == hA) {
			pairs++
		}
	}
	if pairs != 1 {
		t.Fatalf("pA–pB pair links = %d, want 1", pairs)
	}
}

// TestMergeEpochSkewBetweenPartials: one member frozen at an old epoch,
// another advancing every pull. The merge must stay whole while each
// member's staleness is reported honestly and independently.
func TestMergeEpochSkewBetweenPartials(t *testing.T) {
	e := newFed(t)
	frozen := federation.FuncPeer("old", func() (*collector.RegionSummary, error) {
		return &collector.RegionSummary{
			Region: "old", Epoch: 100, GeneratedAt: 1,
			Hosts: []collector.RegionHost{{ID: "old-h0", Power: 1, AccessBps: 1e8, AvailableBps: 9e7}},
		}, nil
	})
	var liveEpoch uint64 = 100
	live := federation.FuncPeer("new", func() (*collector.RegionSummary, error) {
		liveEpoch++
		return &collector.RegionSummary{
			Region: "new", Epoch: liveEpoch, GeneratedAt: float64(liveEpoch),
			Hosts: []collector.RegionHost{{ID: "new-h0", Power: 1, AccessBps: 1e8, AvailableBps: 9e7}},
		}, nil
	})
	v := federation.NewView(federation.Config{
		Region: e.Regions[0],
		Peers:  []federation.Peer{frozen, live},
		Clock:  e.Clk,
	})
	if _, err := v.TopologyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Clk.Advance(2)
		if _, err := v.TopologyCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ages := map[string]federation.RegionAge{}
	for _, ra := range v.RegionAges() {
		ages[ra.Region] = ra
	}
	if ages["old"].Epoch != 100 {
		t.Fatalf("frozen epoch drifted: %+v", ages["old"])
	}
	if ages["new"].Epoch <= 100 {
		t.Fatalf("live epoch did not advance: %+v", ages["new"])
	}
	// The unchanged-summary skip keeps the frozen member's receipt time
	// at its first apply, so its age dwarfs the live member's.
	if ages["old"].Age <= ages["new"].Age {
		t.Fatalf("epoch-skewed ages not honest: old %v <= new %v", ages["old"].Age, ages["new"].Age)
	}
	if err := v.LastPartialError(); err != nil {
		t.Fatalf("skewed partials broke the merge: %v", err)
	}
}

// TestMergeRegionFlappingMidMerge: a peer that alternates between
// erroring and answering, pulled while concurrent readers walk the
// merged topology. The view must never go partial after the first
// apply, never change shape, and never trip the race detector.
func TestMergeRegionFlappingMidMerge(t *testing.T) {
	e := newFed(t)
	var mu sync.Mutex
	up := true
	epoch := uint64(0)
	flappy := federation.FuncPeer("flap", func() (*collector.RegionSummary, error) {
		mu.Lock()
		defer mu.Unlock()
		up = !up
		if !up {
			return nil, errors.New("flap: transient outage")
		}
		epoch++
		return &collector.RegionSummary{
			Region: "flap", Epoch: epoch, GeneratedAt: float64(epoch),
			Hosts: []collector.RegionHost{{ID: "flap-h0", Power: 1, AccessBps: 1e8, AvailableBps: 9e7}},
		}, nil
	})
	v := federation.NewView(federation.Config{
		Region: e.Regions[0],
		Peers:  []federation.Peer{federation.SourcePeer(e.Regions[1]), flappy},
		Clock:  e.Clk,
	})
	// Prime until the first successful apply.
	for i := 0; ; i++ {
		if _, err := v.TopologyCtx(context.Background()); err == nil && v.LastPartialError() == nil {
			break
		}
		e.Clk.Advance(2)
		if i > 10 {
			t.Fatal("flappy peer never applied")
		}
	}
	base, err := v.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantNodes, wantLinks := len(base.Graph.Nodes()), base.Graph.NumLinks()

	// Ten flap rounds; after each advance (virtual time is
	// single-threaded) concurrent readers hammer the merged view while
	// the refresh pass — triggered by whichever reader gets there first
	// — applies or rejects the flapping peer's answer.
	for round := 0; round < 10; round++ {
		e.Clk.Advance(2)
		var wg sync.WaitGroup
		errc := make(chan error, 16)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					topo, err := v.TopologyCtx(context.Background())
					if err != nil {
						errc <- err
						return
					}
					if len(topo.Graph.Nodes()) != wantNodes || topo.Graph.NumLinks() != wantLinks {
						errc <- errors.New("merged shape changed mid-flap")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
	if err := v.LastPartialError(); err != nil {
		t.Fatalf("flapping went partial: %v", err)
	}
	// Flapping shows as Degraded blips at worst, never Down: each
	// success resets the failure streak before DownAfter accumulates.
	if h := v.Health()[graph.NodeID("federation/region-flap")]; h.State == collector.Down {
		t.Fatalf("flapping peer marked Down: %+v", h)
	}
}
