package collector

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Merged combines several collectors covering (possibly overlapping)
// parts of one network into a single Source — the paper's "multiple
// cooperating Collectors" for large environments. Topologies are unioned
// by node name and global link ID; measurement queries go to the first
// member that has data for the channel.
type Merged struct {
	sources []Source
	tel     *telemetry.Registry

	// mu guards memberErr: the last topology-merge error per member (""
	// when the member's last merge contribution succeeded). A partial
	// merge — some member unreachable while others answered — used to be
	// silently dropped; now it is counted (merge.topology.partial),
	// queryable (LastPartialError), and surfaced through Health.
	mu        sync.Mutex
	memberErr []string
}

// Merge creates a merged source. At least one member is required.
func Merge(sources ...Source) *Merged {
	if len(sources) == 0 {
		panic("collector: Merge requires at least one source")
	}
	return &Merged{
		sources:   sources,
		tel:       telemetry.NewRegistry(),
		memberErr: make([]string, len(sources)),
	}
}

// Telemetry implements TelemetrySource (never nil).
func (m *Merged) Telemetry() *telemetry.Registry { return m.tel }

// LastPartialError returns the first member error from the most recent
// topology merge, or nil when every member contributed (or no merge has
// run yet). A non-nil result means the current merged topology is a
// partial view.
func (m *Merged) LastPartialError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, msg := range m.memberErr {
		if msg != "" {
			return fmt.Errorf("collector: merge member %d: %s", i, msg)
		}
	}
	return nil
}

// TopologyCtx implements Source: the union of member topologies,
// each member queried under the caller's context.
func (m *Merged) TopologyCtx(ctx context.Context) (*Topology, error) {
	type linkRec struct {
		a, b     graph.NodeID
		capacity float64
		latency  float64
	}
	nodes := make(map[graph.NodeID]graph.Node)
	links := make(map[int]linkRec)
	latest := 0.0
	any := false
	var firstErr error
	memberErr := make([]string, len(m.sources))
	for i, s := range m.sources {
		t, err := s.TopologyCtx(ctx)
		if err != nil {
			if IsLifecycleError(err) {
				return nil, err
			}
			memberErr[i] = err.Error()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		any = true
		if t.DiscoveredAt > latest {
			latest = t.DiscoveredAt
		}
		for _, id := range t.Graph.Nodes() {
			n := *t.Graph.Node(id)
			// A member that only heard of a node as a leaf neighbor
			// defaults it to Compute; a member that polled it directly
			// knows better. Prefer Network kind when any member says so.
			if prev, ok := nodes[id]; ok && prev.Kind == graph.Network {
				continue
			}
			nodes[id] = n
		}
		for _, l := range t.Graph.Links() {
			gid := t.GlobalID[l.ID]
			if prev, ok := links[gid]; ok {
				if prev.a != l.A || prev.b != l.B {
					return nil, fmt.Errorf("collector: merge conflict on link %d: %s--%s vs %s--%s",
						gid, prev.a, prev.b, l.A, l.B)
				}
				continue
			}
			links[gid] = linkRec{a: l.A, b: l.B, capacity: l.Capacity, latency: l.Latency}
		}
	}
	if !any {
		return nil, firstErr
	}
	m.mu.Lock()
	m.memberErr = memberErr
	m.mu.Unlock()
	if firstErr != nil {
		// At least one member went unheard while others answered: the
		// merged topology is a partial view, and callers deserve to know
		// without the call failing.
		m.tel.Counter("merge.topology.partial").Inc()
	}
	g := graph.New()
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		g.AddNode(nodes[graph.NodeID(id)])
	}
	gids := make([]int, 0, len(links))
	for gid := range links {
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	out := &Topology{Graph: g, GlobalID: make(map[graph.LinkID]int), DiscoveredAt: latest}
	for _, gid := range gids {
		rec := links[gid]
		l := g.AddLink(rec.a, rec.b, rec.capacity, rec.latency)
		out.GlobalID[l.ID] = gid
	}
	return out, nil
}

// DataVersion implements VersionedSource: the sum of member versions
// (each monotone, so the sum is monotone). Memoization stays sound only
// when every member is versioned; one opaque member disables it.
func (m *Merged) DataVersion() (uint64, bool) {
	var sum uint64
	for _, s := range m.sources {
		v, ok := VersionOf(s)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// UtilizationCtx implements Source.
func (m *Merged) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	return firstAnswer(m, stats.NoData(), func(s Source) (stats.Stat, error) { return s.UtilizationCtx(ctx, key, span) })
}

// firstAnswer asks the members in order and returns the first answer. A
// lifecycle error (the caller gave up, a server refused) ends the walk;
// any other error moves on, and the first of them is returned when no
// member answers.
func firstAnswer[T any](m *Merged, none T, ask func(Source) (T, error)) (T, error) {
	var firstErr error
	for _, s := range m.sources {
		v, err := ask(s)
		if err == nil {
			return v, nil
		}
		if IsLifecycleError(err) {
			return none, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return none, firstErr
}

// SamplesCtx implements Source.
func (m *Merged) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	return firstAnswer(m, nil, func(s Source) ([]stats.Sample, error) { return s.SamplesCtx(ctx, key) })
}

// HostLoadCtx implements Source.
func (m *Merged) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return firstAnswer(m, stats.NoData(), func(s Source) (stats.Stat, error) { return s.HostLoadCtx(ctx, node, span) })
}

// DataAgeCtx implements Source: the freshest age any member reports for
// the channel (overlapping members may poll at different rates).
func (m *Merged) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) {
	best := 0.0
	any := false
	var firstErr error
	for _, s := range m.sources {
		age, err := s.DataAgeCtx(ctx, key)
		if err != nil {
			if IsLifecycleError(err) {
				return 0, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !any || age < best {
			best = age
		}
		any = true
	}
	if !any {
		return 0, firstErr
	}
	return best, nil
}

// Health implements HealthSource: the union of member health maps. When
// members overlap on an agent, the healthier view wins — one collector
// still reaching the agent means the data keeps flowing. Members whose
// last topology merge failed appear as synthetic "merged/member-<i>"
// entries marked Down, so a partial merged view is visible in the same
// place agent outages are.
func (m *Merged) Health() map[graph.NodeID]AgentHealth {
	var out map[graph.NodeID]AgentHealth
	for _, s := range m.sources {
		hs, ok := s.(HealthSource)
		if !ok {
			continue
		}
		for id, h := range hs.Health() {
			if out == nil {
				out = make(map[graph.NodeID]AgentHealth)
			}
			if prev, ok := out[id]; ok && prev.State <= h.State {
				continue
			}
			out[id] = h
		}
	}
	m.mu.Lock()
	for i, msg := range m.memberErr {
		if msg == "" {
			continue
		}
		if out == nil {
			out = make(map[graph.NodeID]AgentHealth)
		}
		id := graph.NodeID(fmt.Sprintf("merged/member-%d", i))
		out[id] = AgentHealth{State: Down, ConsecutiveFailures: 1, LastSuccess: -1, LastAttempt: -1}
	}
	m.mu.Unlock()
	return out
}
