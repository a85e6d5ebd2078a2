package federation_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/graph"
	"repro/internal/topogen"
)

// fedSpec is the shared small 3-region testbed: big enough to have
// borders and cross-region paths in every region, small enough for -race.
var fedSpec = topogen.Spec{Kind: topogen.KindHier, N: 60, Seed: 7, Regions: 3}

func newFed(t *testing.T) *experiments.FederationEnv {
	t.Helper()
	e := experiments.NewFederationEnv(fedSpec)
	e.Warmup()
	return e
}

// TestRegionSummaryDeterministic: summarizing the same collector state
// twice yields identical summaries (sorted hosts/borders/pairs, same
// epoch), and the summary covers exactly the region's hosts.
func TestRegionSummaryDeterministic(t *testing.T) {
	e := newFed(t)
	reg := e.Regions[0]
	s1, err := reg.RegionSummary()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := reg.RegionSummary()
	if err != nil {
		t.Fatal(err)
	}
	if s2.GeneratedAt != s1.GeneratedAt || s2.Epoch != s1.Epoch {
		t.Fatalf("unstable stamps: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summary not deterministic:\n%+v\n%+v", s1, s2)
	}
	hosts := e.Topo.Hosts(reg.Name)
	if len(s1.Hosts) != len(hosts) {
		t.Fatalf("summary hosts = %d, region has %d", len(s1.Hosts), len(hosts))
	}
	for i, h := range s1.Hosts {
		if h.ID != string(hosts[i]) {
			t.Fatalf("host[%d] = %s, want %s (sorted)", i, h.ID, hosts[i])
		}
		if h.AccessBps <= 0 || h.AvailableBps < 0 || h.AvailableBps > h.AccessBps {
			t.Fatalf("host %s has nonsense access figures: %+v", h.ID, h)
		}
	}
	if len(s1.Borders) == 0 {
		t.Fatal("region has no border routers — topology too small to federate")
	}
	if len(s1.Pairs) == 0 {
		t.Fatal("region has no cross-region pairs")
	}
	for _, p := range s1.Pairs {
		if p.Peer == reg.Name {
			t.Fatalf("pair with self: %+v", p)
		}
		if p.Links <= 0 || p.CapacityBps <= 0 {
			t.Fatalf("empty pair aggregate: %+v", p)
		}
	}
}

// TestFederatedTopologyComposition: a View's merged topology carries the
// local region at full fidelity plus each remote region's logical form —
// hub router, hosts, borders — with shared border routers and pair links
// unified rather than conflicting.
func TestFederatedTopologyComposition(t *testing.T) {
	e := newFed(t)
	v := e.Views[0]
	topo, err := v.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LastPartialError(); err != nil {
		t.Fatalf("federated merge was partial: %v", err)
	}
	g := topo.Graph
	// Every host of every region is present and still a compute node.
	for _, region := range e.Topo.Regions {
		for _, h := range e.Topo.Hosts(region) {
			n := g.Node(h)
			if n == nil || n.Kind != graph.Compute {
				t.Fatalf("host %s of %s missing or re-kinded: %+v", h, region, n)
			}
		}
	}
	// Remote regions appear as hub routers.
	for _, region := range e.Topo.Regions[1:] {
		hub := g.Node(federation.HubID(region))
		if hub == nil || hub.Kind != graph.Network {
			t.Fatalf("no hub router for %s", region)
		}
	}
	if g.Node(federation.HubID(e.Topo.Regions[0])) != nil {
		t.Fatal("local region must not be summarized into a hub")
	}
	// Remote border routers keep router kind even though the local
	// collector discovered some of them as leaf neighbours.
	s1, err := e.Regions[1].RegionSummary()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range s1.Borders {
		n := g.Node(graph.NodeID(b.ID))
		if n == nil || n.Kind != graph.Network {
			t.Fatalf("border %s missing or demoted: %+v", b.ID, n)
		}
	}
	// The r1–r2 pair link is declared by both members with one canonical
	// global ID, so it must merge to a single link.
	h1, h2 := federation.HubID(e.Topo.Regions[1]), federation.HubID(e.Topo.Regions[2])
	pairs := 0
	for _, l := range g.Links() {
		if (l.A == h1 && l.B == h2) || (l.A == h2 && l.B == h1) {
			pairs++
		}
	}
	if pairs != 1 {
		t.Fatalf("hub–hub pair links = %d, want exactly 1 unified link", pairs)
	}
	// Byte-determinism end to end: a second, independently wired
	// federation over the same spec renders the identical topology.
	e2 := experiments.NewFederationEnv(fedSpec)
	e2.Warmup()
	topo2, err := e2.Views[0].TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(topo2), render(topo); got != want {
		t.Fatalf("federated topology not reproducible:\n%s\n----\n%s", got, want)
	}
}

func render(topo *collector.Topology) string {
	out := ""
	for _, id := range topo.Graph.Nodes() {
		out += string(id) + "|" + topo.Graph.Node(id).Kind.String() + "\n"
	}
	for _, l := range topo.Graph.Links() {
		out += string(l.A) + "-" + string(l.B) + "\n"
	}
	return out
}

// TestFederatedQueries: intra-region flows answer at full fidelity;
// cross-region flows answer through the summarized links.
func TestFederatedQueries(t *testing.T) {
	e := newFed(t)
	mod := e.Mods[0]
	r0 := e.Topo.Hosts(e.Topo.Regions[0])
	r2 := e.Topo.Hosts(e.Topo.Regions[2])

	intra, err := mod.AvailableBandwidth(r0[0], r0[len(r0)-1], core.TFHistory(10))
	if err != nil {
		t.Fatalf("intra-region query: %v", err)
	}
	if !intra.Valid() || intra.Median <= 0 {
		t.Fatalf("intra-region stat invalid: %+v", intra)
	}
	cross, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10))
	if err != nil {
		t.Fatalf("cross-region query: %v", err)
	}
	if !cross.Valid() || cross.Median <= 0 {
		t.Fatalf("cross-region stat invalid: %+v", cross)
	}
	lat, err := mod.PathLatency(r0[0], r2[0])
	if err != nil {
		t.Fatalf("cross-region latency: %v", err)
	}
	if lat.Median <= 0 {
		t.Fatalf("cross-region latency = %+v", lat)
	}
}

// TestFederationDarkRegionAndHeal is the acceptance scenario: one region
// goes dark; the federation keeps answering from its last summary with
// an honestly growing age while health walks Degraded → Down; when the
// region heals, the age collapses and health returns to Healthy.
func TestFederationDarkRegionAndHeal(t *testing.T) {
	e := newFed(t)
	var dark atomic.Bool
	darkRegion := e.Topo.Regions[2]
	gate := federation.FuncPeer(darkRegion, func() (*collector.RegionSummary, error) {
		if dark.Load() {
			return nil, errors.New("region unreachable")
		}
		return e.Regions[2].RegionSummary()
	})
	v := federation.NewView(federation.Config{
		Region: e.Regions[0],
		Peers:  []federation.Peer{federation.SourcePeer(e.Regions[1]), gate},
		Clock:  e.Clk,
	})
	mod := core.New(core.Config{Source: v})
	r0 := e.Topo.Hosts(e.Topo.Regions[0])
	r2 := e.Topo.Hosts(darkRegion)

	ageOf := func(region string) float64 {
		for _, ra := range v.RegionAges() {
			if ra.Region == region {
				return ra.Age
			}
		}
		t.Fatalf("no age entry for %s", region)
		return 0
	}
	healthOf := func(region string) collector.AgentHealth {
		h, ok := v.Health()[graph.NodeID("federation/region-"+region)]
		if !ok {
			t.Fatalf("no federation health entry for %s", region)
		}
		return h
	}

	if _, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10)); err != nil {
		t.Fatalf("healthy cross query: %v", err)
	}
	if st := healthOf(darkRegion).State; st != collector.Healthy {
		t.Fatalf("pre-dark state = %v", st)
	}
	base := ageOf(darkRegion)

	dark.Store(true)
	e.Clk.Advance(2)
	if st := healthOf(darkRegion).State; st != collector.Degraded {
		t.Fatalf("first missed pull: state = %v, want Degraded", st)
	}
	prev := ageOf(darkRegion)
	if prev <= base {
		t.Fatalf("age did not grow while dark: %v <= %v", prev, base)
	}
	// Keep failing through the breaker's backoff until Down.
	deadline := 0
	for healthOf(darkRegion).State != collector.Down {
		e.Clk.Advance(2)
		if deadline++; deadline > 50 {
			t.Fatal("region never reached Down")
		}
	}
	if age := ageOf(darkRegion); age <= prev {
		t.Fatalf("age stopped growing: %v <= %v", age, prev)
	} else {
		prev = age
	}
	// Degraded answers, not refusals: the last summary still serves.
	mod.Refresh()
	st, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10))
	if err != nil {
		t.Fatalf("dark cross query: %v", err)
	}
	if !st.Valid() || st.Median <= 0 {
		t.Fatalf("dark cross stat invalid: %+v", st)
	}
	if err := v.LastPartialError(); err != nil {
		t.Fatalf("last-good summary should avert a partial merge, got %v", err)
	}

	// Heal: ride out the remaining backoff, then expect recovery.
	dark.Store(false)
	deadline = 0
	for healthOf(darkRegion).State != collector.Healthy {
		e.Clk.Advance(2)
		if deadline++; deadline > 100 {
			t.Fatal("region never healed")
		}
	}
	h := healthOf(darkRegion)
	if h.ConsecutiveFailures != 0 {
		t.Fatalf("healed region still counts failures: %+v", h)
	}
	if age := ageOf(darkRegion); age >= prev {
		t.Fatalf("age did not collapse on heal: %v >= %v", age, prev)
	}
	if _, err := mod.AvailableBandwidth(r0[0], r2[0], core.TFHistory(10)); err != nil {
		t.Fatalf("healed cross query: %v", err)
	}
	snap := v.Telemetry().Snapshot()
	if snap.Counters["federation.pull.errors"] == 0 || snap.Counters["federation.pulls"] == 0 {
		t.Fatalf("dark pulls not counted: %v", snap.Counters)
	}
	for _, g := range []string{"federation.regions", "federation.region." + darkRegion + ".age",
		"federation.region." + darkRegion + ".epoch", "federation.region." + darkRegion + ".fails"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %s not registered (gauges: %v)", g, snap.Gauges)
		}
	}
}

// TestFederationTermFencing: summaries from a deposed leader (lower
// term) are fenced; same-term epoch regressions are ignored without
// counting as an outage; genuinely newer state applies.
func TestFederationTermFencing(t *testing.T) {
	e := newFed(t)
	mk := func(term, epoch uint64, gen float64) *collector.RegionSummary {
		return &collector.RegionSummary{
			Region: "rx", Term: term, Epoch: epoch, GeneratedAt: gen,
			Hosts: []collector.RegionHost{{ID: "rx-h0", Power: 1, AccessBps: 1e8, AvailableBps: 9e7}},
		}
	}
	script := []*collector.RegionSummary{
		mk(2, 5, 1), // applied
		mk(1, 9, 2), // lower term: fenced
		mk(2, 4, 3), // same term, older epoch: ignored quietly
		mk(2, 6, 4), // newer: applied
	}
	i := 0
	peer := federation.FuncPeer("rx", func() (*collector.RegionSummary, error) {
		s := script[i]
		if i < len(script)-1 {
			i++
		}
		return s, nil
	})
	v := federation.NewView(federation.Config{
		Region: e.Regions[0], Peers: []federation.Peer{peer}, Clock: e.Clk,
	})
	epochOf := func() (uint64, int) {
		for _, ra := range v.RegionAges() {
			if ra.Region == "rx" {
				return ra.Epoch, ra.Fails
			}
		}
		t.Fatal("no rx entry")
		return 0, 0
	}
	fenced := v.Telemetry().Counter("federation.fencing.rejections")

	if ep, _ := epochOf(); ep != 5 {
		t.Fatalf("initial apply: epoch = %d, want 5", ep)
	}
	e.Clk.Advance(2)
	if ep, fails := epochOf(); ep != 5 || fails != 1 {
		t.Fatalf("after deposed-leader summary: epoch=%d fails=%d, want 5/1", ep, fails)
	}
	if fenced.Value() != 1 {
		t.Fatalf("fencing rejections = %v, want 1", fenced.Value())
	}
	e.Clk.Advance(2)
	if ep, fails := epochOf(); ep != 5 || fails != 0 {
		t.Fatalf("after stale replay: epoch=%d fails=%d, want 5/0", ep, fails)
	}
	e.Clk.Advance(2)
	if ep, _ := epochOf(); ep != 6 {
		t.Fatalf("newer summary not applied: epoch = %d, want 6", ep)
	}
	if fenced.Value() != 1 {
		t.Fatalf("fencing rejections drifted: %v", fenced.Value())
	}
	if got := v.Telemetry().Counter("federation.summary.applied").Value(); got != 2 {
		t.Fatalf("federation.summary.applied = %v, want the 2 summaries that applied", got)
	}
}

// TestWatchPeerOverWire: a remote Region served over TCP pushes its
// summaries through the "region-summary" watch kind; a WatchPeer caches
// them and feeds a federated View.
func TestWatchPeerOverWire(t *testing.T) {
	e := newFed(t)
	srv, err := collector.ServeConfig(e.Regions[1], "127.0.0.1:0", collector.ServerConfig{
		WatchPollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wp := federation.NewDialWatchPeer(e.Topo.Regions[1], func() (collector.WatchSource, error) {
		return collector.DialConfig(srv.Addr(), collector.ClientConfig{CallTimeout: 5 * time.Second})
	})
	defer wp.Close()
	var sum *collector.RegionSummary
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sum, err = wp.Fetch(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no summary pushed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sum.Region != e.Topo.Regions[1] {
		t.Fatalf("summary region = %q, want %q", sum.Region, e.Topo.Regions[1])
	}
	if want := len(e.Topo.Hosts(sum.Region)); len(sum.Hosts) != want {
		t.Fatalf("summary hosts = %d, want %d", len(sum.Hosts), want)
	}
	// The codec differential for a real summary: what crossed the wire
	// is what a gob round trip makes of the region's own summary. The
	// virtual clock stands still, so both are the same epoch's.
	local, err := e.Regions[1].RegionSummary()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	viaGob := new(collector.RegionSummary)
	if err := gob.NewEncoder(&buf).Encode(local); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(viaGob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, viaGob) {
		t.Fatalf("summary over the wire differs from its gob round trip:\n%+v\n%+v", sum, viaGob)
	}

	v := federation.NewView(federation.Config{
		Region: e.Regions[0],
		Peers:  []federation.Peer{wp, federation.SourcePeer(e.Regions[2])},
		Clock:  e.Clk,
	})
	topo, err := v.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph.Node(federation.HubID(sum.Region)) == nil {
		t.Fatal("watch-fed region missing from federated topology")
	}
}
