// Package federation turns independent regional collectors into one
// queryable network view — the paper's hierarchical-query design
// (collectors that own a region and answer about the rest of the world
// via summaries) built on the existing collector machinery.
//
// Three pieces:
//
//   - Region wraps a regional collector (or HA pair / failover client)
//     with a region name and the global region partition, and digests
//     its full-fidelity state into a compact collector.RegionSummary
//     (hosts + border routers + per-region-pair aggregates).
//
//   - Peer is a feed of another region's summaries: SourcePeer pulls an
//     in-process RegionSummarySource, WatchPeer rides the TCP
//     "region-summary" watch kind.
//
//   - View composes the local region's detail with every peer's
//     last-good summary into one collector.Source, by extending
//     collector.Merge: each remote region is presented as a synthetic
//     member source (a hub router, its hosts, its border routers, and
//     aggregate cross-region links), and the stock merge rules — union
//     by node name and global link ID, Network kind wins, partial
//     members surface as synthetic Down health — do the composition.
//     Intra-region queries hit the local collector at full fidelity;
//     cross-region flows resolve through the summarized links; a dark
//     region degrades to its last summary with an honestly growing
//     DataAge, reusing the health/breaker discipline.
package federation

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// DefaultSummarySpan is the trailing window (virtual seconds) summary
// aggregates are computed over.
const DefaultSummarySpan = 30.0

// Region wraps one region's full-fidelity source with its place in the
// global partition. It implements collector.Source (by delegation) plus
// collector.RegionSummarySource, so it can be served directly by
// collector.ServeConfig and federated from by peers.
type Region struct {
	// Name is this region's name in the partition.
	Name string
	// Src is the region's full-fidelity source: the in-process
	// *collector.Collector, a TCP client, or an HA failover client.
	Src collector.Source
	// RegionOf maps any node to its owning region ("" = unknown). All
	// federating daemons must share this partition — with generated
	// topologies (internal/topogen) it derives deterministically from
	// the (kind, n, seed, regions) spec.
	RegionOf func(graph.NodeID) string
	// Clock stamps summaries with virtual generation times.
	Clock *simclock.Clock
	// Span is the trailing window for summary aggregates (0 =
	// DefaultSummarySpan).
	Span float64

	mu    sync.Mutex
	synth uint64 // epoch fallback for unversioned sources
}

// RegionName implements collector.RegionSummarySource.
func (r *Region) RegionName() string { return r.Name }

// RegionSummary implements collector.RegionSummarySource: digest the
// region's current state. Output field order is deterministic (hosts,
// borders, and pairs sorted), so two calls at the same epoch are
// byte-identical — the property federation convergence tests pin.
func (r *Region) RegionSummary() (*collector.RegionSummary, error) {
	span := r.Span
	if span <= 0 {
		span = DefaultSummarySpan
	}
	epoch, _ := collector.VersionOf(r.Src)
	if epoch == 0 {
		r.mu.Lock()
		r.synth++
		epoch = r.synth
		r.mu.Unlock()
	}
	term, _, _ := collector.HAStatusOf(r.Src)
	s, err := Summarize(context.TODO(), r.Name, r.Src, r.RegionOf, float64(r.Clock.Now()), span)
	if err != nil {
		return nil, err
	}
	s.Epoch = epoch
	s.Term = term
	return s, nil
}

// Summarize digests src's current state, read under ctx, into a
// RegionSummary for the named region: its compute nodes, its border
// routers, and one aggregate entry per neighbouring region. Epoch and
// Term are left for the caller to stamp.
func Summarize(ctx context.Context, name string, src collector.Source, regionOf func(graph.NodeID) string,
	now, span float64) (*collector.RegionSummary, error) {
	topo, err := src.TopologyCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("federation: summarize %s: %w", name, err)
	}
	g := topo.Graph
	s := &collector.RegionSummary{Region: name, GeneratedAt: now}

	// utilOf reads the worse direction's median utilization of a link
	// (0 when unmeasured — capacity is then the honest aggregate) and
	// folds the channel's data age into MaxDataAge.
	utilOf := func(l *graph.Link) float64 {
		worst := 0.0
		got := false
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			key := topo.Key(l, d)
			if st, err := src.UtilizationCtx(ctx, key, span); err == nil && st.Valid() {
				if !got || st.Median > worst {
					worst = st.Median
				}
				got = true
				if st.Age > s.MaxDataAge {
					s.MaxDataAge = st.Age
				}
			}
			if age, err := src.DataAgeCtx(ctx, key); err == nil && age > s.MaxDataAge {
				s.MaxDataAge = age
			}
		}
		return worst
	}

	pairs := make(map[string]*collector.RegionPair)
	for _, id := range g.Nodes() {
		if regionOf(id) != name {
			continue
		}
		n := g.Node(id)
		if n.Kind == graph.Compute {
			h := collector.RegionHost{ID: string(id), Power: n.ComputePower, MemoryBytes: n.MemoryBytes}
			for _, l := range g.LinksAt(id) {
				if h.AccessBps == 0 || l.Capacity < h.AccessBps {
					util := utilOf(l)
					h.AccessBps = l.Capacity
					h.AvailableBps = l.Capacity - util
					if h.AvailableBps < 0 {
						h.AvailableBps = 0
					}
				}
			}
			s.Hosts = append(s.Hosts, h)
			continue
		}
		// Router: border when any incident link leaves the region.
		var interior float64
		var border bool
		for _, l := range g.LinksAt(id) {
			other, _ := l.Other(id)
			or := regionOf(other)
			if or == name || or == "" {
				interior += l.Capacity
				continue
			}
			border = true
			p := pairs[or]
			if p == nil {
				p = &collector.RegionPair{Peer: or, HopCount: 1}
				pairs[or] = p
			}
			util := utilOf(l)
			p.Links++
			p.CapacityBps += l.Capacity
			avail := l.Capacity - util
			if avail > 0 {
				p.AvailableBps += avail
			}
			if l.Latency > p.LatencySec {
				p.LatencySec = l.Latency
			}
		}
		if border {
			s.Borders = append(s.Borders, collector.RegionBorder{ID: string(id), InteriorBps: interior})
		}
	}
	sort.Slice(s.Hosts, func(i, j int) bool { return s.Hosts[i].ID < s.Hosts[j].ID })
	sort.Slice(s.Borders, func(i, j int) bool { return s.Borders[i].ID < s.Borders[j].ID })
	for _, p := range pairs {
		s.Pairs = append(s.Pairs, *p)
	}
	sort.Slice(s.Pairs, func(i, j int) bool { return s.Pairs[i].Peer < s.Pairs[j].Peer })
	return s, nil
}

// ---- Source delegation ----

// TopologyCtx implements collector.Source.
func (r *Region) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	return r.Src.TopologyCtx(ctx)
}

// UtilizationCtx implements collector.Source.
func (r *Region) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	return r.Src.UtilizationCtx(ctx, key, span)
}

// SamplesCtx implements collector.Source.
func (r *Region) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	return r.Src.SamplesCtx(ctx, key)
}

// HostLoadCtx implements collector.Source.
func (r *Region) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return r.Src.HostLoadCtx(ctx, node, span)
}

// DataAgeCtx implements collector.Source.
func (r *Region) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	return r.Src.DataAgeCtx(ctx, key)
}

// DataVersion implements collector.VersionedSource by probing Src.
func (r *Region) DataVersion() (uint64, bool) {
	return collector.VersionOf(r.Src)
}

// Health implements collector.HealthSource by probing Src.
func (r *Region) Health() map[graph.NodeID]collector.AgentHealth {
	if hs, ok := r.Src.(collector.HealthSource); ok {
		return hs.Health()
	}
	return nil
}

// Region deliberately does not implement collector.VersionNotifier:
// the watch plane's type assertion must see the real capability, and a
// Region over a notifier-less source degrades to the poll-driven path
// instead of advertising a channel that never fires.
