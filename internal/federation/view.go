package federation

import (
	"context"
	"sync"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The View's pull discipline: each peer is pulled every
// DefaultRefreshPeriod virtual seconds, a failing peer's backoff is
// capped at DefaultBackoffMax, and DefaultDownAfter consecutive pull
// failures mark its region Down.
const (
	DefaultRefreshPeriod = 2.0
	DefaultBackoffMax    = 60.0
	DefaultDownAfter     = 3
)

// Config configures a federated View.
type Config struct {
	// Region is the local region: full fidelity, polled by this
	// process (or its HA pair). Required.
	Region *Region
	// Peers feed the other regions' summaries.
	Peers []Peer
	// Clock is the virtual clock shared with the local collector.
	Clock *simclock.Clock
}

// View composes one local region's full detail with the last-good
// summaries of every peer region into a single queryable
// collector.Source — the federation tier. Composition is
// collector.Merge doing what it already does: the local region and one
// synthetic member per peer are merged by node name and global link
// ID, so intra-region queries resolve against local full fidelity and
// cross-region flows traverse hub routers standing in for remote
// interiors. Peer pulls happen lazily on the query path under the
// virtual clock (deterministic in tests); a peer that stops answering
// keeps its last summary, its health entry walks Healthy → Degraded →
// Down, and every answer derived from it carries a growing DataAge.
type View struct {
	cfg     Config
	local   *Region
	members []*peerMember
	merged  *collector.Merged
	tel     *telemetry.Registry

	mu          sync.Mutex
	lastRefresh float64
	refreshed   bool
}

// NewView builds the federated view.
func NewView(cfg Config) *View {
	if cfg.Region == nil {
		panic("federation: Config.Region is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = cfg.Region.Clock
	}
	v := &View{cfg: cfg, local: cfg.Region}
	sources := []collector.Source{cfg.Region}
	for i, peer := range cfg.Peers {
		m := &peerMember{feed: peer, view: v, local: cfg.Region.Name, labelN: i}
		v.members = append(v.members, m)
		sources = append(sources, m)
	}
	v.merged = collector.Merge(sources...)
	v.tel = v.merged.Telemetry()
	v.tel.Gauge("federation.regions").Set(float64(1 + len(v.members)))
	return v
}

// refresh runs one pull pass over the peers when the refresh period
// elapsed, then re-publishes the per-region staleness gauges. Cheap
// when nothing is due: one clock read and a mutex.
func (v *View) refresh() {
	now := float64(v.cfg.Clock.Now())
	v.mu.Lock()
	if v.refreshed && now-v.lastRefresh < DefaultRefreshPeriod && now >= v.lastRefresh {
		v.mu.Unlock()
		return
	}
	v.lastRefresh = now
	v.refreshed = true
	v.mu.Unlock()
	for _, m := range v.members {
		m.refresh(now)
	}
	v.tel.Counter("federation.pulls").Inc()
	for _, ra := range summaryAges(v.members, now) {
		v.tel.Gauge("federation.region." + ra.Region + ".age").Set(ra.Age)
		v.tel.Gauge("federation.region." + ra.Region + ".epoch").Set(float64(ra.Epoch))
		v.tel.Gauge("federation.region." + ra.Region + ".fails").Set(float64(ra.Fails))
	}
}

// RegionAges reports each peer region's current staleness.
//
//reach:keep the federation tests read each region's staleness through it
func (v *View) RegionAges() []RegionAge {
	v.refresh()
	return summaryAges(v.members, float64(v.cfg.Clock.Now()))
}

// ---- collector.Source ----

// TopologyCtx implements collector.Source.
func (v *View) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	v.refresh()
	return v.merged.TopologyCtx(ctx)
}

// UtilizationCtx implements collector.Source.
func (v *View) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	v.refresh()
	return v.merged.UtilizationCtx(ctx, key, span)
}

// SamplesCtx implements collector.Source.
func (v *View) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	v.refresh()
	return v.merged.SamplesCtx(ctx, key)
}

// HostLoadCtx implements collector.Source.
func (v *View) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	v.refresh()
	return v.merged.HostLoadCtx(ctx, node, span)
}

// DataAgeCtx implements collector.Source.
func (v *View) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	v.refresh()
	return v.merged.DataAgeCtx(ctx, key)
}

// ---- optional refinements ----

// DataVersion implements collector.VersionedSource: the merged sum of
// the local version and every member's applied-summary count.
func (v *View) DataVersion() (uint64, bool) { return v.merged.DataVersion() }

// Health implements collector.HealthSource: local agent health plus one
// synthetic federation/region-<name> entry per peer.
func (v *View) Health() map[graph.NodeID]collector.AgentHealth {
	v.refresh()
	return v.merged.Health()
}

// Telemetry implements collector.TelemetrySource: the merge registry,
// which also carries the federation.* metrics.
func (v *View) Telemetry() *telemetry.Registry { return v.tel }

// LastPartialError surfaces the most recent partial-merge condition
// (nil = every region contributed to the last topology).
//
//reach:keep the merge-conflict tests check through it that a full merge clears the partial error
func (v *View) LastPartialError() error { return v.merged.LastPartialError() }

// ---- federation surface ----

// RegionName implements collector.RegionSummarySource: a View is itself
// summarizable, so federations can tier (a super-collector federating
// federated views) and peers can subscribe symmetrically.
func (v *View) RegionName() string { return v.local.Name }

// RegionSummary implements collector.RegionSummarySource: the local
// region's digest (remote summaries are not re-exported — each region
// is owned, and summarized, by exactly one collector).
func (v *View) RegionSummary() (*collector.RegionSummary, error) {
	return v.local.RegionSummary()
}

// Watch implements collector.WatchSource in-process.
func (v *View) Watch(ctx context.Context, req collector.WatchRequest) (*collector.WatchHandle, error) {
	return collector.WatchLocal(ctx, v, req)
}

// HAStatus implements collector.HAStatusSource when the local source
// participates in a hot-standby pair.
func (v *View) HAStatus() (term uint64, leader bool, ok bool) {
	return collector.HAStatusOf(v.local.Src)
}
