package replica

import (
	"encoding/gob"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collector"
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
	// A hand-rolled hostile payload: out-of-order samples.
	evil := *full
	evil.Full = false
	f.Add(collector.AppendFeedPayload(nil, &evil))
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
		for k, s := range next.Payload().Channels {
			for i := 1; i < len(s); i++ {
				if s[i].Time < s[i-1].Time {
					t.Fatalf("channel %v: samples out of order after accepted delta", k)
				}
			}
		}
	})
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
	var p collector.FeedPayload
	if err := gob.NewDecoder(strings.NewReader(body)).Decode(&p); err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return collector.AppendFeedPayload(nil, &p)
}
