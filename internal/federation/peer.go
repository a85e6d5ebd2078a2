package federation

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Peer is a feed of one remote region's summaries. Fetch is expected to
// be cheap and non-blocking: implementations cache and the View polls.
type Peer interface {
	// Region names the remote region ("" until known).
	Region() string
	// Fetch returns the peer's current summary. Errors mean "no fresh
	// summary available" — the View keeps serving the last good one.
	Fetch() (*collector.RegionSummary, error)
}

// SourcePeer adapts an in-process RegionSummarySource (another Region,
// or a View federating elsewhere) into a Peer.
func SourcePeer(src collector.RegionSummarySource) Peer { return &sourcePeer{src: src} }

type sourcePeer struct{ src collector.RegionSummarySource }

func (p *sourcePeer) Region() string                           { return p.src.RegionName() }
func (p *sourcePeer) Fetch() (*collector.RegionSummary, error) { return p.src.RegionSummary() }

// FuncPeer adapts a fetch function into a Peer — the seam fault tests
// use to make a region go dark deterministically.
//
//reach:keep the scripted Peer the federation and experiments tests build dark, frozen and flapping regions from
func FuncPeer(region string, fetch func() (*collector.RegionSummary, error)) Peer {
	return &funcPeer{region: region, fetch: fetch}
}

type funcPeer struct {
	region string
	fetch  func() (*collector.RegionSummary, error)
}

func (p *funcPeer) Region() string                           { return p.region }
func (p *funcPeer) Fetch() (*collector.RegionSummary, error) { return p.fetch() }

// WatchPeer subscribes to a remote collector's "region-summary" watch
// kind and caches the latest push, reconnecting with backoff after
// transport loss. Fetch never blocks on the network: it returns the
// cached summary (or an error before the first push / after Close).
type WatchPeer struct {
	region string

	mu   sync.Mutex
	sum  *collector.RegionSummary
	err  error
	stop context.CancelFunc
	done chan struct{}
}

// NewDialWatchPeer starts the subscription loop. region is the expected
// remote region name, used for labeling before the first push. The
// connection is made (and remade) inside the background loop: dial is
// called before each subscription attempt and the result closed when
// its stream ends. Daemons of one federation rely on this, so every
// listener comes up before any peer needs to be reachable: a
// mutual-subscription cycle converges in any startup order instead of
// deadlocking on connect-before-listen.
func NewDialWatchPeer(region string, dial func() (collector.WatchSource, error)) *WatchPeer {
	ctx, cancel := context.WithCancel(context.Background())
	p := &WatchPeer{
		region: region,
		err:    fmt.Errorf("federation: no summary received yet from %q", region),
		stop:   cancel,
		done:   make(chan struct{}),
	}
	cfg := collector.FollowConfig{
		Dial: func() (collector.WatchSource, func(), error) {
			ws, err := dial()
			if err != nil {
				return nil, nil, err
			}
			release := func() {}
			if c, ok := ws.(interface{ Close() error }); ok {
				release = func() { c.Close() }
			}
			return ws, release, nil
		},
		Kind: collector.WatchRegionSummary,
		Base: 100 * time.Millisecond,
		// A dead stream means the peer may be dark: Fetch errors until
		// the next push, so the View's health walk and breaker see the
		// outage while queries keep answering from the last-good
		// summary it already applied.
		Ended: func(err error, _ bool) {
			p.mu.Lock()
			p.err = fmt.Errorf("federation: watch stream to %q: %w", p.region, err)
			p.mu.Unlock()
		},
	}
	go func() {
		defer close(p.done)
		collector.Follow(ctx, cfg, func(u collector.WatchUpdate) (bool, error) {
			if u.Summary == nil {
				return false, nil // error updates
			}
			p.mu.Lock()
			p.sum, p.err = u.Summary, nil
			if p.region == "" {
				p.region = u.Summary.Region
			}
			p.mu.Unlock()
			return true, nil
		})
	}()
	return p
}

// Region implements Peer.
func (p *WatchPeer) Region() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.region
}

// Fetch implements Peer: the latest pushed summary while the stream is
// live, an error while it is down (before the first push, or after a
// disconnect until the next push lands). The View's member keeps its
// own last-good copy, so a Fetch error degrades health without losing
// answers.
func (p *WatchPeer) Fetch() (*collector.RegionSummary, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, p.err
	}
	return p.sum, nil
}

// Close stops the subscription loop.
func (p *WatchPeer) Close() {
	p.stop()
	<-p.done
}

// ---- synthetic member source ----

// synthBase tags federation-generated global link IDs, far above any
// ID discovery mints, so synthetic channels never collide with real
// ones when merged.
const synthBase = 1 << 62

// synthGID derives a deterministic global link ID from a label. Both
// sides of a federated pair derive the same ID for the same pair link
// without coordination, which is what lets collector.Merge unify them.
func synthGID(label string) int {
	h := fnv.New64a()
	h.Write([]byte(label))
	return synthBase | int(h.Sum64()&(1<<40-1))
}

// HubID is the synthetic router standing in for a summarized region's
// interior in the federated topology.
func HubID(region string) graph.NodeID { return graph.NodeID("region:" + region) }

// peerMember presents one remote region's last-good summary as a
// collector.Source, so collector.Merge can compose it with the local
// region's full-fidelity view. Its topology contribution is the
// summary's logical form: a hub router, the region's hosts on access
// links, its border routers on interior-aggregate links, and one
// aggregate link per remote region pair. Measurement queries answer
// for exactly those synthetic channels, with ages that grow from the
// moment the summary was received.
type peerMember struct {
	feed   Peer
	view   *View
	local  string // the View's own region: pairs back to it are real links, skip
	labelN int    // member index, for synthetic health entries before the name is known

	mu          sync.Mutex
	name        string
	sum         *collector.RegionSummary
	receivedAt  float64 // virtual time the summary was applied
	lastAttempt float64
	nextAttempt float64
	fails       int
	applied     uint64 // successful applies: the member's version component
	chans       map[int]synthChan
}

type synthChan struct {
	capacity float64
	util     float64
}

// refresh pulls the peer if its schedule allows, applying term fencing
// and epoch monotonicity. Called under the View's refresh pass.
func (p *peerMember) refresh(now float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now < p.nextAttempt {
		return
	}
	p.lastAttempt = now
	sum, err := p.feed.Fetch()
	v := p.view
	if err != nil {
		p.fails++
		// Same breaker schedule as agent polling, without jitter.
		p.nextAttempt = now + collector.BackoffAfter(DefaultRefreshPeriod, DefaultBackoffMax, p.fails, 0, nil)
		v.tel.Counter("federation.pull.errors").Inc()
		return
	}
	p.nextAttempt = now + DefaultRefreshPeriod
	if p.sum != nil {
		if sum.Term < p.sum.Term {
			// A deposed leader's summary: fence it, keep the newer state.
			v.tel.Counter("federation.fencing.rejections").Inc()
			p.fails++
			return
		}
		if sum.Term == p.sum.Term && sum.Epoch < p.sum.Epoch {
			// Stale replay at the same term: ignore, not an outage.
			p.fails = 0
			return
		}
	}
	p.fails = 0
	if p.sum != nil && sum.Epoch == p.sum.Epoch && sum.Term == p.sum.Term &&
		sum.GeneratedAt == p.sum.GeneratedAt {
		return // unchanged: keep receivedAt honest about actual data age
	}
	p.sum = sum
	p.name = sum.Region
	p.receivedAt = now
	p.applied++
	p.rebuildChansLocked()
	v.tel.Counter("federation.summary.applied").Inc()
}

// rebuildChansLocked recomputes the synthetic channel table from the
// current summary.
func (p *peerMember) rebuildChansLocked() {
	s := p.sum
	p.chans = make(map[int]synthChan)
	hub := string(HubID(s.Region))
	for _, h := range s.Hosts {
		cap := h.AccessBps
		if cap <= 0 {
			cap = topology.Mbps
		}
		util := cap - h.AvailableBps
		if util < 0 {
			util = 0
		}
		p.chans[synthGID("host:"+h.ID+"|"+hub)] = synthChan{capacity: cap, util: util}
	}
	for _, b := range s.Borders {
		cap := b.InteriorBps
		if cap <= 0 {
			cap = topology.Mbps
		}
		p.chans[synthGID("border:"+b.ID+"|"+hub)] = synthChan{capacity: cap}
	}
	for _, pr := range s.Pairs {
		if pr.Peer == p.local {
			continue // the cut back to the local region is real links
		}
		cap := pr.CapacityBps
		if cap <= 0 {
			cap = topology.Mbps
		}
		util := cap - pr.AvailableBps
		if util < 0 {
			util = 0
		}
		p.chans[synthGID(pairLabel(s.Region, pr.Peer))] = synthChan{capacity: cap, util: util}
	}
}

// pairLabel is symmetric in its arguments, so both regions of a pair
// derive the same synthetic link ID.
func pairLabel(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return "pair:" + a + "|" + b
}

// age is the honest staleness of answers derived from this member's
// summary: time since it was received plus how stale it already was at
// the source.
func (p *peerMember) ageLocked(now float64) float64 {
	return (now - p.receivedAt) + p.sum.MaxDataAge
}

func (p *peerMember) now() float64 { return float64(p.view.cfg.Clock.Now()) }

// TopologyCtx implements collector.Source with the summary's logical
// topology. No summary yet means a member error, which Merged surfaces
// as a partial view with a synthetic Down health entry — the same
// degradation discipline an unreachable agent gets.
func (p *peerMember) TopologyCtx(context.Context) (*collector.Topology, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sum == nil {
		return nil, fmt.Errorf("federation: region %q: no summary yet", p.feed.Region())
	}
	s := p.sum
	g := graph.New()
	hub := HubID(s.Region)
	g.AddRouter(hub, 0)
	t := &collector.Topology{Graph: g, GlobalID: make(map[graph.LinkID]int), DiscoveredAt: p.receivedAt}
	addLink := func(a, b graph.NodeID, cap, lat float64, gid int) {
		if cap <= 0 {
			cap = topology.Mbps
		}
		l := g.AddLink(a, b, cap, lat)
		t.GlobalID[l.ID] = gid
	}
	for _, h := range s.Hosts {
		id := graph.NodeID(h.ID)
		n := g.AddHost(id, h.Power)
		n.MemoryBytes = h.MemoryBytes
		addLink(id, hub, h.AccessBps, topology.PerHopLatency, synthGID("host:"+h.ID+"|"+string(hub)))
	}
	for _, b := range s.Borders {
		id := graph.NodeID(b.ID)
		g.AddRouter(id, 0)
		addLink(id, hub, b.InteriorBps, topology.PerHopLatency, synthGID("border:"+b.ID+"|"+string(hub)))
	}
	for _, pr := range s.Pairs {
		if pr.Peer == p.local {
			continue
		}
		peerHub := HubID(pr.Peer)
		if g.Node(peerHub) == nil {
			g.AddRouter(peerHub, 0)
		}
		lat := pr.LatencySec
		if lat <= 0 {
			lat = topology.PerHopLatency
		}
		// Canonical endpoint order: both regions of a pair declare the
		// same (A, B), so the merge unifies instead of conflicting.
		a, b := hub, peerHub
		if a > b {
			a, b = b, a
		}
		addLink(a, b, pr.CapacityBps, lat*float64(pr.HopCount), synthGID(pairLabel(s.Region, pr.Peer)))
	}
	return t, nil
}

// UtilizationCtx implements collector.Source for the member's synthetic
// channels: the summary's aggregate utilization as an exact-quartile
// Stat aged from receipt.
func (p *peerMember) UtilizationCtx(_ context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.chans[key.Global]
	if !ok || p.sum == nil {
		return stats.NoData(), fmt.Errorf("federation: unknown channel %v", key)
	}
	st := stats.Exact(ch.util)
	st.Age = p.ageLocked(p.now())
	return st, nil
}

// SamplesCtx implements collector.Source. Summaries carry aggregates, not
// sample histories; predictive timeframes degrade at the Modeler the
// same way an unmeasured channel does.
func (p *peerMember) SamplesCtx(_ context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	return nil, fmt.Errorf("federation: no sample history for summarized channel %v", key)
}

// HostLoadCtx implements collector.Source. Load detail stays inside the
// owning region.
func (p *peerMember) HostLoadCtx(_ context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return stats.NoData(), fmt.Errorf("federation: host load of %s is owned by region %q", node, p.regionLabel())
}

// DataAgeCtx implements collector.Source for synthetic channels.
func (p *peerMember) DataAgeCtx(_ context.Context, key collector.ChannelKey) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.chans[key.Global]; !ok || p.sum == nil {
		return 0, fmt.Errorf("federation: unknown channel %v", key)
	}
	return p.ageLocked(p.now()), nil
}

// DataVersion implements collector.VersionedSource: bumps once per
// applied summary, so the Modeler's availability memo invalidates when
// (and only when) federated state actually moved.
func (p *peerMember) DataVersion() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied, true
}

// Health implements collector.HealthSource with one synthetic entry per
// region, following the agent health state machine: Healthy while
// pulls succeed, Degraded on the first failures, Down past DownAfter —
// at which point answers keep flowing from the last summary with their
// ages telling the truth.
func (p *peerMember) Health() map[graph.NodeID]collector.AgentHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	state := collector.Healthy
	switch {
	case p.fails >= DefaultDownAfter:
		state = collector.Down
	case p.fails > 0:
		state = collector.Degraded
	}
	last := -1.0
	if p.sum != nil {
		last = p.receivedAt
	}
	att := p.lastAttempt
	if att == 0 && p.sum == nil {
		att = -1
	}
	return map[graph.NodeID]collector.AgentHealth{
		graph.NodeID("federation/region-" + p.regionLabelLocked()): {
			State:               state,
			ConsecutiveFailures: p.fails,
			LastSuccess:         last,
			LastAttempt:         att,
			NextAttempt:         p.nextAttempt,
		},
	}
}

func (p *peerMember) regionLabel() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regionLabelLocked()
}

func (p *peerMember) regionLabelLocked() string {
	if p.name != "" {
		return p.name
	}
	if r := p.feed.Region(); r != "" {
		return r
	}
	return fmt.Sprintf("peer-%d", p.labelN)
}

// summaryAges returns (region, age) pairs for every member holding a
// summary, sorted by region — the per-region staleness surface the
// telemetry gauges and FEDERATION dashboard line render.
func summaryAges(members []*peerMember, now float64) []RegionAge {
	out := make([]RegionAge, 0, len(members))
	for _, p := range members {
		p.mu.Lock()
		if p.sum != nil {
			out = append(out, RegionAge{
				Region: p.regionLabelLocked(),
				Age:    p.ageLocked(now),
				Epoch:  p.sum.Epoch,
				Fails:  p.fails,
			})
		} else {
			out = append(out, RegionAge{Region: p.regionLabelLocked(), Age: -1, Fails: p.fails})
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// RegionAge reports one federated region's staleness: Age is seconds
// since its data was current (-1 = no summary received yet).
type RegionAge struct {
	Region string
	Age    float64
	Epoch  uint64
	Fails  int
}
