package replica

import (
	"cmp"
	"encoding/gob"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// FuzzDecodeDelta feeds arbitrary bytes through the production feed
// decoder (collector.DecodeFeedPayload, the body a feed update's frame
// carries) and the collector.State build/extend path that every
// consumer of a feed payload runs — replica, HA standby, checkpoint
// restore, history load. They trust their collector, but a partition
// can truncate or corrupt a stream mid-frame; whatever arrives, the
// apply must return an error (which triggers a resync) — never panic,
// never yield a corrupt state. The checked-in corpus entry is a gob
// payload from before the codec, which the decoder refuses; the value
// it holds is seeded again in the codec's layout (gobCorpusEntry).
func FuzzDecodeDelta(f *testing.F) {
	// Seed with real payloads: one full snapshot and a couple of
	// deltas from a live testbed collector.
	r := newRig(f)
	cur := &collector.FeedCursor{}
	full, err := r.col.FeedSince(cur)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(collector.AppendFeedPayload(nil, full))
	for i := 0; i < 2; i++ {
		r.clk.Advance(2)
		d, err := r.col.FeedSince(cur)
		if err != nil {
			f.Fatal(err)
		}
		if d != nil {
			f.Add(collector.AppendFeedPayload(nil, d))
		}
	}
	// A rediscovery's delta, which re-ships the topology: the remap of
	// the windows onto its slots.
	r.clk.Advance(2)
	if _, err := r.col.Discover(); err != nil {
		f.Fatal(err)
	}
	if d, err := r.col.FeedSince(cur); err != nil || d == nil || d.Topo == nil {
		f.Fatalf("delta after a rediscovery = %+v, %v", d, err)
	} else {
		f.Add(collector.AppendFeedPayload(nil, d))
	}
	// A hier-300 delta: every section long.
	hier := hier300Rig(f)
	hcur := &collector.FeedCursor{}
	if _, err := hier.col.FeedSince(hcur); err != nil {
		f.Fatal(err)
	}
	hier.clk.Advance(2)
	if d, err := hier.col.FeedSince(hcur); err != nil || d == nil || d.Full {
		f.Fatalf("hier-300 delta = %+v, %v", d, err)
	} else {
		f.Add(collector.AppendFeedPayload(nil, d))
	}
	// A hand-rolled hostile payload: out-of-order samples.
	evil := *full
	evil.Full = false
	f.Add(collector.AppendFeedPayload(nil, &evil))
	// A Full payload with a channel its topology does not have: refused
	// whole, it has no slot to go to.
	outside := *full
	outside.Channels = append(slices.Clone(full.Channels),
		collector.ChannelSamples{Key: collector.ChannelKey{Global: 99999}, Samples: []stats.Sample{{Time: 1, Value: 1}}})
	if _, err := collector.StateFromPayload(&outside); err == nil {
		f.Fatal("StateFromPayload accepted a channel outside the topology")
	}
	f.Add(collector.AppendFeedPayload(nil, &outside))
	// A Full payload whose link names an endpoint ("aspei") that is no
	// declared node: the topology check must fail, not panic.
	dangling := gobCorpusEntry(f, "testdata/fuzz/FuzzDecodeDelta/825ac52e7e21e9b1")
	if p, err := collector.DecodeFeedPayload(dangling); err != nil {
		f.Fatal(err)
	} else if _, err := collector.StateFromPayload(p); err == nil {
		f.Fatal("StateFromPayload accepted a link with an undeclared endpoint")
	}
	f.Add(dangling)

	base, err := collector.StateFromPayload(full)
	if err != nil {
		f.Fatal(err)
	}
	baseBefore := base.Payload()

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := collector.DecodeFeedPayload(data)
		if err != nil {
			return // corrupt frame: the wire layer would drop it
		}
		// Apply as a full snapshot and as a delta against a real
		// state; errors are fine (they trigger resync), panics and
		// mutations of the base state are not.
		if st, err := collector.StateFromPayload(p); err == nil && st.Topology() == nil {
			t.Fatal("StateFromPayload succeeded without topology")
		}
		next, err := base.Extend(p)
		if !reflect.DeepEqual(base.Payload(), baseBefore) {
			t.Fatal("Extend mutated the base state")
		}
		if err != nil {
			return
		}
		// An accepted delta must keep per-window sample order.
		for _, e := range next.Payload().Channels {
			for i := 1; i < len(e.Samples); i++ {
				if e.Samples[i].Time < e.Samples[i-1].Time {
					t.Fatalf("channel %v: samples out of order after accepted delta", e.Key)
				}
			}
		}
	})
}

// gobPayload is the gob shape of a FeedPayload from before its
// sections were lists of entries: gob matches fields by name, so the
// checked-in corpus file decodes into it.
type gobPayload struct {
	Epoch      uint64
	Full       bool
	Now        float64
	HalfLife   float64
	WindowLen  int
	WindowAge  float64
	PollPeriod float64
	Term       uint64
	Topo       *collector.WireTopo
	Capacity   map[collector.ChannelKey]float64
	Channels   map[collector.ChannelKey][]stats.Sample
	Loads      map[string][]stats.Sample
	Health     map[string]collector.AgentHealth
}

// gobCorpusEntry reads a checked-in corpus file holding a gob-encoded
// FeedPayload and returns the same value in the codec's layout.
func gobCorpusEntry(f *testing.F, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	var g gobPayload
	if err := gob.NewDecoder(strings.NewReader(body)).Decode(&g); err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	p := collector.FeedPayload{Epoch: g.Epoch, Full: g.Full, Now: g.Now, HalfLife: g.HalfLife,
		WindowLen: g.WindowLen, WindowAge: g.WindowAge, PollPeriod: g.PollPeriod, Term: g.Term, Topo: g.Topo}
	byKey := func(a, b collector.ChannelKey) int {
		return cmp.Or(cmp.Compare(a.Global, b.Global), cmp.Compare(a.Dir, b.Dir))
	}
	for _, k := range sortedKeys(g.Capacity, byKey) {
		p.Capacity = append(p.Capacity, collector.ChannelCapacity{Key: k, Bps: g.Capacity[k]})
	}
	for _, k := range sortedKeys(g.Channels, byKey) {
		p.Channels = append(p.Channels, collector.ChannelSamples{Key: k, Samples: g.Channels[k]})
	}
	for _, id := range sortedKeys(g.Loads, strings.Compare) {
		p.Loads = append(p.Loads, collector.NodeSamples{Node: graph.NodeID(id), Samples: g.Loads[id]})
	}
	for _, id := range sortedKeys(g.Health, strings.Compare) {
		p.Health = append(p.Health, collector.NodeHealth{Node: graph.NodeID(id), Health: g.Health[id]})
	}
	return collector.AppendFeedPayload(nil, &p)
}

func sortedKeys[K comparable, V any](m map[K]V, compare func(K, K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}
