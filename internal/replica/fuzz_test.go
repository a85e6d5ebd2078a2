package replica

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/collector"
)

// encodePayload gob-encodes a feed payload the way the wire does
// (the payload rides inside a WatchUpdate, but the fuzz target decodes
// the payload shape directly — that is where apply-side invariants
// live).
func encodePayload(t testing.TB, p *collector.FeedPayload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeDelta feeds arbitrary bytes through the gob decode +
// collector.State build/extend path that every consumer of a feed
// payload runs — replica, HA standby, checkpoint restore, history load.
// They trust their collector, but a partition can truncate or corrupt a
// stream mid-frame; whatever arrives, the apply must return an error
// (which triggers a resync) — never panic, never yield a corrupt state.
func FuzzDecodeDelta(f *testing.F) {
	// Seed with real payloads: one full snapshot and a couple of
	// deltas from a live testbed collector.
	r := newRig(f)
	cur := &collector.FeedCursor{}
	full, err := r.col.FeedSince(cur)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodePayload(f, full))
	for i := 0; i < 2; i++ {
		r.clk.Advance(2)
		d, err := r.col.FeedSince(cur)
		if err != nil {
			f.Fatal(err)
		}
		if d != nil {
			f.Add(encodePayload(f, d))
		}
	}
	// A hand-rolled hostile payload: out-of-order samples.
	evil := *full
	evil.Full = false
	f.Add(encodePayload(f, &evil))

	base, err := collector.StateFromPayload(full)
	if err != nil {
		f.Fatal(err)
	}
	baseBefore := base.Payload()

	f.Fuzz(func(t *testing.T, data []byte) {
		var p collector.FeedPayload
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
			return // corrupt frame: the wire layer would drop it
		}
		// Apply as a full snapshot and as a delta against a real
		// state; errors are fine (they trigger resync), panics and
		// mutations of the base state are not.
		if st, err := collector.StateFromPayload(&p); err == nil && st.Topology() == nil {
			t.Fatal("StateFromPayload succeeded without topology")
		}
		next, err := base.Extend(&p)
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
