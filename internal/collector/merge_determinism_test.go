package collector

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/topofile"
	"repro/internal/traffic"
)

// renderMerged flattens a merged topology to a canonical string: the
// topofile form of the graph plus the sorted (node-pair, global-id)
// link table. Any ordering wobble in Merged shows up as a byte diff.
func renderMerged(t *testing.T, m *Merged) string {
	t.Helper()
	topo, err := m.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := topofile.Format(topo.Graph)
	for _, l := range topo.Graph.Links() {
		out += fmt.Sprintf("gid %s %s %d\n", l.A, l.B, topo.GlobalID[l.ID])
	}
	return out
}

// TestMergedDeterministicOutput pins the property federation golden and
// convergence tests lean on: Merged emits nodes and links in a sorted,
// stable order, so repeated reads — and independently-constructed
// merges over the same members — are byte-identical.
func TestMergedDeterministicOutput(t *testing.T) {
	r := newRig(t, 2)
	mk := func(ids ...graph.NodeID) *Collector {
		addrs := make(map[graph.NodeID]string)
		for _, id := range ids {
			addrs[id] = snmp.Addr(id)
		}
		c := New(Config{
			Client:     snmp.NewClient(r.att.Registry, snmp.DefaultCommunity),
			Clock:      r.clk,
			Addrs:      addrs,
			PollPeriod: 2,
		})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	west := mk("aspen", "timberline", "m-1", "m-2", "m-3", "m-4", "m-5", "m-6")
	east := mk("whiteface", "m-7", "m-8")
	traffic.Blast(r.net, "m-6", "m-8", 40e6)
	r.clk.RunUntil(20)

	m1 := Merge(west, east)
	first := renderMerged(t, m1)
	for i := 0; i < 5; i++ {
		if got := renderMerged(t, m1); got != first {
			t.Fatalf("read %d differs from first:\n%s\n----\n%s", i, got, first)
		}
	}
	// A second merge over the same members must render identically too.
	if got := renderMerged(t, Merge(west, east)); got != first {
		t.Fatalf("fresh merge differs:\n%s\n----\n%s", got, first)
	}
}
