package collector

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/snmp"
)

// ifaceInfo is one row of an agent's interface table: the static
// columns, joined with the Remos enterprise columns. Discovery reads
// them; a poll round reads only the two octet counters of each row.
type ifaceInfo struct {
	index    uint32
	neighbor string
	global   int // global link ID
	speed    float64
}

// walkInterfaces reads the static columns of an agent's interface
// table: a GETBULK walk of the neighbour column, then one GET per row
// for the link ID and ifSpeed. It is the table-learning step of
// discovery (and of a poll round that finds an agent without a plan),
// not part of the steady-state poll.
func (c *Collector) walkInterfaces(addr string) ([]ifaceInfo, error) {
	nbrs, err := c.cfg.Client.BulkWalk(addr, snmp.OIDRemosNeighbor, 16)
	if err != nil {
		return nil, err
	}
	out := make([]ifaceInfo, 0, len(nbrs))
	for _, vb := range nbrs {
		idx := vb.OID[len(vb.OID)-1]
		vbs, err := c.cfg.Client.Get(addr, snmp.OIDRemosLinkID.Append(idx), snmp.OIDIfSpeed.Append(idx))
		if err != nil {
			return nil, err
		}
		// Edge validation: a capacity entering the topology must be a
		// finite positive number. SNMP's ifSpeed is unsigned today, but
		// this is the ingest boundary — maxmin's guards downstream are
		// the second line of defense, not the first.
		speed := float64(vbs[1].Value.Uint)
		if math.IsNaN(speed) || math.IsInf(speed, 0) || speed <= 0 {
			return nil, fmt.Errorf("collector: agent %s ifindex %d reports invalid link speed %v", addr, idx, speed)
		}
		out = append(out, ifaceInfo{
			index:    idx,
			neighbor: string(vb.Value.Bytes),
			global:   int(vbs[0].Value.Int),
			speed:    speed,
		})
	}
	return out, nil
}

// agentSlot is one agent of the domain. id and addr never change; plan
// is guarded by c.mu.
type agentSlot struct {
	id   graph.NodeID
	addr string
	plan *pollPlan // nil: not learned yet (cold, or after a warm restart)
}

// pollPlan is what a poll round asks one agent, made once from its
// interface table and replayed as one GET per round: the recurring cost
// the paper says must stay "low and directly related to the depth and
// frequency of requests". It is immutable; invalidation replaces it.
//
// The plan holds only the columns that change between rounds. Link ID,
// neighbour and ifSpeed are read when the table is learned: a capacity
// change or a renumbered interface is picked up by the next discovery
// (Config.RediscoverPeriod), a removed one by the NoSuchName it causes.
// Both ends of a link stay in their agents' plans, so a channel keeps
// being measured while one endpoint is Down.
type pollPlan struct {
	// oids is ifOutOctets.i, ifInOctets.i for each interface, then
	// hrProcessorLoad when the agent exposes it.
	oids []snmp.OID
	// gets is oids encoded once as GETs, one per snmp.MaxVarBinds of
	// them: one for any realistic agent.
	gets []*snmp.GetRequest
	// keys[j] is the channel the counter at oids[j] measures.
	keys []ChannelKey
	load bool

	// slots[j] is keys[j]'s channel slot in topo and loadSlot the
	// agent's node slot (-1: not in topo): where a round's readings
	// land in the state. A plan is resolved against each new topology
	// once (resolved), not per reading.
	topo     *Topology
	slots    []int32
	loadSlot int32
}

// resolved is p with its slots in topo (p itself when they already
// are); nil for a nil p.
func (p *pollPlan) resolved(topo *Topology, id graph.NodeID) *pollPlan {
	if p == nil || (p.topo == topo && p.slots != nil) {
		return p
	}
	q := *p
	q.topo, q.slots, q.loadSlot = topo, make([]int32, len(p.keys)), -1
	for j, k := range p.keys {
		q.slots[j] = -1
		if s, ok := topo.chanSlotOf(k); ok {
			q.slots[j] = int32(s)
		}
	}
	if s, ok := topo.nodeSlotOf(id); ok {
		q.loadSlot = int32(s)
	}
	return &q
}

// resolvePlanLocked resolves plan, agent slot i's, against the current
// topology and keeps the result as the agent's plan. Callers hold c.mu.
func (c *Collector) resolvePlanLocked(i int, plan *pollPlan) *pollPlan {
	plan = plan.resolved(c.st.topo, c.agents[i].id)
	c.agents[i].plan = plan
	return plan
}

// learnPlan walks an agent's interface table and builds its poll plan.
func (c *Collector) learnPlan(id graph.NodeID, addr string) ([]ifaceInfo, *pollPlan, error) {
	ifaces, err := c.walkInterfaces(addr)
	if err != nil {
		return nil, nil, err
	}
	plan := &pollPlan{
		oids: make([]snmp.OID, 0, 2*len(ifaces)+1),
		keys: make([]ChannelKey, 0, 2*len(ifaces)),
	}
	for _, iface := range ifaces {
		plan.oids = append(plan.oids, snmp.OIDIfOutOctets.Append(iface.index), snmp.OIDIfInOctets.Append(iface.index))
		plan.keys = append(plan.keys,
			canonicalKey(iface.global, string(id), iface.neighbor),
			canonicalKey(iface.global, iface.neighbor, string(id)))
	}
	// Host CPU load is optional: routers answer NoSuchName.
	switch _, err := c.cfg.Client.Get(addr, snmp.OIDHrProcessorLoad); {
	case err == nil:
		plan.oids = append(plan.oids, snmp.OIDHrProcessorLoad)
		plan.load = true
	case !errors.Is(err, snmp.ErrNoSuchName):
		return nil, nil, err
	}
	for oids := plan.oids; len(oids) > 0; {
		n := min(len(oids), snmp.MaxVarBinds)
		get, err := c.cfg.Client.PrepareGet(oids[:n]...)
		if err != nil {
			return nil, nil, err
		}
		plan.gets = append(plan.gets, get)
		oids = oids[n:]
	}
	return ifaces, plan, nil
}

// setPlan installs (or, with nil, forgets) the plan of agent slot i,
// and returns it resolved against the current topology.
func (c *Collector) setPlan(i int, plan *pollPlan) *pollPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolvePlanLocked(i, plan)
}

// pollAgent reads one agent's counters: its plan's prepared GET sent
// once (see getAll for the agent whose table outgrows one message).
// An agent without a plan is walked first. A NoSuchName or mismatched
// answer means the table moved under the plan: the plan is forgotten
// and the agent walked and asked again within the round. Any other
// error, or a second one of those, is the agent's failed attempt. The
// values are the round's scratch, good until the next call; callers
// hold c.pollMu.
func (c *Collector) pollAgent(i int, plan *pollPlan) (*pollPlan, []snmp.Value, error) {
	slot := &c.agents[i]
	for relearned := false; ; relearned = true {
		if plan == nil {
			var err error
			if _, plan, err = c.learnPlan(slot.id, slot.addr); err != nil {
				return nil, nil, err
			}
			plan = c.setPlan(i, plan)
		}
		vals, err := c.getAll(slot.addr, plan)
		if err == nil {
			// Get has matched OIDs to positions; the value types are the
			// other half of "this varbind is that channel's counter".
			for j := range plan.keys {
				if vals[j].Kind != snmp.KindCounter32 {
					return nil, nil, fmt.Errorf("collector: agent %s answers %v with a %v", slot.addr, plan.oids[j], vals[j].Kind)
				}
			}
			if plan.load && vals[len(plan.keys)].Kind != snmp.KindInteger {
				return nil, nil, fmt.Errorf("collector: agent %s answers hrProcessorLoad with a %v", slot.addr, vals[len(plan.keys)].Kind)
			}
			return plan, vals, nil
		}
		if relearned || !(errors.Is(err, snmp.ErrNoSuchName) || errors.Is(err, snmp.ErrBadResponse)) {
			return nil, nil, err
		}
		c.setPlan(i, nil)
		plan = nil
	}
}

// getAll sends plan's GETs, one for any realistic agent, and returns
// the answers in the order of plan.oids. Every agent of a round reuses
// one request buffer and one value slice; callers hold c.pollMu.
func (c *Collector) getAll(addr string, plan *pollPlan) ([]snmp.Value, error) {
	if cap(c.roundVals) < len(plan.oids) {
		c.roundVals = make([]snmp.Value, len(plan.oids))
	}
	vals := c.roundVals[:len(plan.oids)]
	off := 0
	for _, get := range plan.gets {
		if err := c.cfg.Client.Do(addr, get, &c.roundWire, vals[off:]); err != nil {
			return nil, err
		}
		off += get.Len()
	}
	return vals, nil
}

// nodeInfo is the per-node discovery record.
type nodeInfo struct {
	name       string
	kind       graph.NodeKind
	internalBW float64
	memory     float64 // bytes; hosts only
	ifaces     []ifaceInfo
}

func (c *Collector) queryNode(id graph.NodeID, addr string) (*nodeInfo, *pollPlan, error) {
	vbs, err := c.cfg.Client.Get(addr, snmp.OIDSysName, snmp.OIDRemosNodeKind, snmp.OIDRemosInternalBW)
	if err != nil {
		return nil, nil, err
	}
	ni := &nodeInfo{
		name:       string(vbs[0].Value.Bytes),
		internalBW: float64(vbs[2].Value.Uint),
	}
	if vbs[1].Value.Int == 1 {
		ni.kind = graph.Network
	} else {
		ni.kind = graph.Compute
		// Memory is optional (not every agent exposes it).
		if mem, err := c.cfg.Client.Get(addr, snmp.OIDHrMemorySize); err == nil && len(mem) == 1 {
			ni.memory = float64(mem[0].Value.Int) * 1024
		}
	}
	var plan *pollPlan
	ni.ifaces, plan, err = c.learnPlan(id, addr)
	if err != nil {
		return nil, nil, err
	}
	return ni, plan, nil
}

// Discover queries every agent in the domain and assembles the Topology.
// Nodes whose agents fail are reported as an error only if nothing could
// be discovered; partial domains are normal (other collectors cover the
// rest).
func (c *Collector) Discover() (*Topology, error) {
	wallStart := time.Now()
	defer func() {
		c.tel.Counter("collector.discoveries").Inc()
		c.tel.Quantile("collector.discovery.wall_ms", 0).
			Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	type linkRec struct {
		a, b     string // canonical: a < b
		capacity float64
	}
	nodes := make(map[string]*nodeInfo)
	links := make(map[int]linkRec)
	live := make(map[string]bool)
	now := float64(c.cfg.Clock.Now())
	var firstErr error
	// remember falls back to the last good discovery record for an agent
	// the breaker is skipping or that just failed: the dead router stays
	// in the topology with its links (partial-topology serving) and only
	// its measurements go stale.
	remember := func(id graph.NodeID) {
		c.mu.Lock()
		ni := c.lastNode[id]
		c.mu.Unlock()
		if ni != nil {
			nodes[ni.name] = ni
		}
	}
	for i := range c.agents {
		id := c.agents[i].id
		// The breaker throttles discovery the same way it throttles
		// polling: a Down agent is re-probed on the backoff schedule, and
		// a successful probe here is how it rejoins the topology.
		if _, ok := c.allowAttempt(i, now); !ok {
			remember(id)
			continue
		}
		ni, plan, err := c.queryNode(id, c.agents[i].addr)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("collector: discovering %q: %w", id, err)
			}
			c.recordFailure(i, now)
			remember(id)
			continue
		}
		c.recordSuccess(i, now)
		c.mu.Lock()
		c.lastNode[id] = ni
		c.agents[i].plan = plan // rediscovery replaces the plan
		c.mu.Unlock()
		nodes[ni.name] = ni
		live[ni.name] = true
	}
	if len(nodes) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("collector: empty domain")
	}

	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	// Links reported by live agents win and are cross-checked against
	// each other; remembered (stale) records only fill in links no live
	// agent covers — e.g. a backbone link whose both ends are dark — and
	// are exempt from conflict checks, since a link may well have changed
	// while its reporter was unreachable.
	for pass := 0; pass < 2; pass++ {
		for _, n := range names {
			if live[n] != (pass == 0) {
				continue
			}
			for _, iface := range nodes[n].ifaces {
				a, b := n, iface.neighbor
				if a > b {
					a, b = b, a
				}
				if prev, ok := links[iface.global]; ok {
					if pass == 1 {
						continue
					}
					if prev.a != a || prev.b != b {
						return nil, fmt.Errorf("collector: link %d reported as %s--%s and %s--%s",
							iface.global, prev.a, prev.b, a, b)
					}
					if prev.capacity != iface.speed {
						return nil, fmt.Errorf("collector: link %d speed mismatch %v vs %v",
							iface.global, prev.capacity, iface.speed)
					}
					continue
				}
				links[iface.global] = linkRec{a: a, b: b, capacity: iface.speed}
			}
		}
	}

	g := graph.New()
	for _, n := range names {
		ni := nodes[n]
		if ni.kind == graph.Network {
			g.AddRouter(graph.NodeID(n), ni.internalBW)
		} else {
			g.AddNode(graph.Node{
				ID: graph.NodeID(n), Kind: graph.Compute,
				ComputePower: 1, MemoryBytes: ni.memory,
			})
		}
	}
	// Leaf neighbors we only heard about from the far end (hosts without
	// their own agents, or nodes outside the domain) still belong in the
	// topology; without better information they default to hosts.
	for _, n := range names {
		for _, iface := range nodes[n].ifaces {
			if !g.HasNode(graph.NodeID(iface.neighbor)) {
				g.AddHost(graph.NodeID(iface.neighbor), 1)
			}
		}
	}

	globals := make([]int, 0, len(links))
	for id := range links {
		globals = append(globals, id)
	}
	sort.Ints(globals)
	topo := &Topology{
		Graph:        g,
		GlobalID:     make(map[graph.LinkID]int),
		DiscoveredAt: float64(c.cfg.Clock.Now()),
	}
	for _, gid := range globals {
		rec := links[gid]
		l := g.AddLink(graph.NodeID(rec.a), graph.NodeID(rec.b), rec.capacity, c.cfg.PerHopLatency)
		topo.GlobalID[l.ID] = gid
	}
	topo.index()
	// Both directions of a link have its capacity.
	capacity := make([]float64, len(topo.chans))
	for s, k := range topo.chans {
		capacity[s] = links[k.Global].capacity
	}
	c.mu.Lock()
	c.counters = carry(c.counters, topo.chans, c.st.topo.chanSlotOf)
	c.st.setTopology(topo, capacity)
	c.discoveries++
	c.mu.Unlock()
	c.dataVersion.Add(1)
	c.bell.Ring()
	if firstErr != nil {
		// The topology assembled, but at least one agent went unheard:
		// partial-topology serving is in effect.
		c.tel.Counter("collector.discovery.partial").Inc()
	}
	return topo, nil
}
