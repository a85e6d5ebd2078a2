package remos_test

import (
	"testing"

	"repro/internal/collector"
	"repro/internal/stats"
	"repro/remos"
)

// Compile-time pins for the exported replication-feed API. A
// replica-of-replica chain (ROADMAP stretch) is written against exactly
// these names; renaming or removing any of them is an API break and
// must fail this file's build, not a downstream consumer's.
var (
	// The in-process collector is a feed producer.
	_ remos.FeedSource = (*collector.Collector)(nil)

	// A feed consumer starts from a zero cursor.
	_ = func(src remos.FeedSource) (*remos.FeedPayload, error) {
		return src.FeedSince(&remos.FeedCursor{})
	}

	// Watch updates carry the feed payload and the producer's lease term.
	_ = func(u remos.WatchUpdate) (*remos.FeedPayload, uint64) {
		return u.Feed, u.Term
	}

	// Every exported payload field, by name. Removing or renaming one
	// breaks replicas built against the feed protocol.
	_ = remos.FeedPayload{
		Epoch:      1,
		Full:       true,
		Now:        1,
		HalfLife:   1,
		WindowLen:  1,
		WindowAge:  1,
		PollPeriod: 1,
		Term:       1,
		Topo: &remos.WireTopo{
			Nodes:        []remos.WireNode{{ID: "n", Kind: 1, InternalBW: 1, ComputePower: 1, MemoryBytes: 1}},
			Links:        []remos.WireLink{{A: "a", B: "b", Capacity: 1, Latency: 1, Global: 1}},
			DiscoveredAt: 1,
		},
		Capacity: []remos.ChannelCapacity{{Key: remos.ChannelKey{Global: 1}, Bps: 1}},
		Channels: []remos.ChannelSamples{{Key: remos.ChannelKey{Global: 1}, Samples: []stats.Sample{}}},
		Loads:    []remos.NodeSamples{{Node: "n", Samples: []stats.Sample{}}},
		Health:   []remos.NodeHealth{{Node: "n", Health: remos.AgentHealth{}}},
	}

	// The subscription kind and the typed standby refusal.
	_ string = remos.WatchFeed
	_ error  = remos.ErrNotLeader
	_        = func(err error) (string, bool) { return remos.LeaderHint(err) }
)

// TestFeedAPIRoundTrip exercises the exported surface end to end: drive
// a real collector through the FeedSource interface using only remos
// names, decode the wire topology, and apply a delta — the skeleton of
// a replica-of-replica chain.
func TestFeedAPIRoundTrip(t *testing.T) {
	tb, err := remos.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Collector.Stop()
	tb.Run(6)

	var src remos.FeedSource = tb.Collector
	cur := &remos.FeedCursor{}
	p, err := src.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || !p.Full {
		t.Fatalf("first payload on a fresh cursor: %+v, want Full", p)
	}
	topo, err := p.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo == nil || len(topo.Graph.Nodes()) == 0 {
		t.Fatal("full payload decoded to an empty topology")
	}

	tb.Run(4)
	d, err := src.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Full {
		t.Fatalf("second payload after advance: %+v, want a delta", d)
	}
	if d.Epoch <= p.Epoch {
		t.Fatalf("delta epoch %d did not advance past %d", d.Epoch, p.Epoch)
	}
}
