// Package netsim is a deterministic fluid-flow network simulator: the
// stand-in for the paper's physical IP testbed (Figure 3).
//
// The model is flow-level, not packet-level. At any instant a set of flows
// is active; each flow follows a static shortest-hop route; the bandwidth
// each flow receives is the weighted max-min fair allocation over the
// directed link channels (and router backplanes) it crosses — exactly the
// sharing policy Remos assumes of the network (§4.2). Whenever the flow
// set changes, the simulator:
//
//  1. advances per-channel octet counters analytically (rate × elapsed
//     time) — these counters are what the SNMP agents expose, and byte
//     conservation is exact;
//  2. re-solves the max-min allocation;
//  3. reschedules the completion events of finite transfers.
//
// Everything runs on a simclock.Clock, so experiments that take "hours" of
// testbed time finish in milliseconds and are bit-for-bit reproducible.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/simclock"
)

// FlowID identifies an active or completed flow.
type FlowID int

// PriorityHeadroom is the fraction of every resource that priority
// (non-responsive) flows can never claim, so elastic flows always make
// progress; see recompute.
const PriorityHeadroom = 0.02

// FlowSpec describes a flow to start.
type FlowSpec struct {
	Src, Dst graph.NodeID

	// Bytes is the transfer size; <= 0 means a persistent flow that runs
	// until stopped (background traffic, long-lived streams).
	Bytes float64

	// RateCap, when positive, limits the sending rate in bits/second
	// (CBR sources). Zero means elastic: take whatever max-min gives.
	RateCap float64

	// Weight scales the max-min share (default 1).
	Weight float64

	// Priority marks a non-responsive source (UDP blaster): it takes its
	// full RateCap before elastic flows share the remainder, like the
	// paper's interfering synthetic traffic. Requires RateCap > 0.
	Priority bool

	// Owner tags the flow's originator ("app", "traffic", ...) so that
	// measurement consumers can discount an application's own traffic —
	// the fix for the paper's §8.3 self-migration fallacy.
	Owner string

	// OnComplete fires when a finite flow delivers its last byte. It runs
	// inside the simulation event, at the completion's virtual time.
	OnComplete func(now simclock.Time, f *Flow)
}

// Flow is a live or finished flow. Fields are owned by the Network; read
// them only from simulation callbacks or between Run calls.
type Flow struct {
	ID    FlowID
	Spec  FlowSpec
	Path  *graph.Path
	Start simclock.Time

	rate      float64 // current allocation, bits/s
	sentBits  float64
	totalBits float64 // target; +Inf for persistent
	done      bool
	completed simclock.Time
	complEv   *simclock.Event
	resources []maxmin.ResourceID
}

// Rate returns the flow's current bandwidth in bits/second.
func (f *Flow) Rate() float64 { return f.rate }

// SentBytes returns the bytes delivered so far.
func (f *Flow) SentBytes() float64 { return f.sentBits / 8 }

// Done reports whether a finite flow has completed.
func (f *Flow) Done() bool { return f.done }

// CompletedAt returns when the flow finished (valid when Done).
func (f *Flow) CompletedAt() simclock.Time { return f.completed }

func (f *Flow) String() string {
	return fmt.Sprintf("flow%d %s->%s rate=%.2fMbps", f.ID, f.Spec.Src, f.Spec.Dst, f.rate/1e6)
}

// Network is the simulator. Construct with New.
type Network struct {
	clock *simclock.Clock
	g     *graph.Graph
	rt    *graph.RouteTable

	// Resource indexing for the max-min solver: one resource per directed
	// channel, plus one per network node with finite internal bandwidth.
	capacities []float64
	chanRes    map[graph.Channel]int
	nodeRes    map[graph.NodeID]int
	resOfChan  []graph.Channel // reverse map for channel resources only

	flows      map[FlowID]*Flow
	order      []FlowID // deterministic iteration
	nextID     FlowID
	lastUpdate simclock.Time

	// counterBits accumulates the total bits ever carried per channel
	// resource index; SNMP agents read these.
	counterBits []float64

	// Conservation bookkeeping: bits delivered by finished flows, and the
	// same weighted by each flow's resource count (a flow crossing h
	// resources contributes h× its bits to the counters).
	totalDelivered        float64
	deliveredWeightedHops float64

	// hostLoad is a background CPU load fraction per host; see compute.go.
	hostLoad map[graph.NodeID]float64

	recomputes uint64
}

// New builds a simulator over the given topology. The route table is
// computed once; the topology must not be mutated afterwards.
func New(clock *simclock.Clock, g *graph.Graph) (*Network, error) {
	rt, err := g.Routes()
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	n := &Network{
		clock:   clock,
		g:       g,
		rt:      rt,
		chanRes: make(map[graph.Channel]int),
		nodeRes: make(map[graph.NodeID]int),
		flows:   make(map[FlowID]*Flow),
	}
	for _, l := range g.Links() {
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			ch := graph.Channel{Link: l.ID, Dir: d}
			n.chanRes[ch] = len(n.capacities)
			n.resOfChan = append(n.resOfChan, ch)
			n.capacities = append(n.capacities, l.Capacity)
		}
	}
	for _, id := range g.NetworkNodes() {
		if nd := g.Node(id); nd.InternalBW > 0 {
			n.nodeRes[id] = len(n.capacities)
			n.capacities = append(n.capacities, nd.InternalBW)
		}
	}
	n.counterBits = make([]float64, len(n.capacities))
	return n, nil
}

// Clock returns the simulation clock.
func (n *Network) Clock() *simclock.Clock { return n.clock }

// Graph returns the physical topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Routes returns the static route table (shared with the modeler so that
// predictions and behaviour agree).
func (n *Network) Routes() *graph.RouteTable { return n.rt }

// Recomputes returns how many allocation recomputations have run
// (diagnostic; scales with flow churn).
func (n *Network) Recomputes() uint64 { return n.recomputes }

// resourcesFor maps a path onto solver resources: every directed channel
// plus every transit router with finite internal bandwidth (endpoints'
// hosts never appear in nodeRes).
func (n *Network) resourcesFor(p *graph.Path) []maxmin.ResourceID {
	var out []maxmin.ResourceID
	for _, ch := range p.Channels() {
		out = append(out, maxmin.ResourceID(n.chanRes[ch]))
	}
	for _, node := range p.Nodes {
		if r, ok := n.nodeRes[node]; ok {
			out = append(out, maxmin.ResourceID(r))
		}
	}
	return out
}

// StartFlow begins a flow and returns it. It panics if src/dst are not
// distinct compute nodes with a route — topology bugs, not runtime errors.
func (n *Network) StartFlow(spec FlowSpec) *Flow {
	if spec.Src == spec.Dst {
		panic(fmt.Sprintf("netsim: flow with equal endpoints %s", spec.Src))
	}
	p := n.rt.Route(spec.Src, spec.Dst)
	if p == nil {
		panic(fmt.Sprintf("netsim: no route %s -> %s", spec.Src, spec.Dst))
	}
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	if spec.Priority && spec.RateCap <= 0 {
		panic("netsim: priority flow requires a positive RateCap")
	}
	f := &Flow{
		ID:    n.nextID,
		Spec:  spec,
		Path:  p,
		Start: n.clock.Now(),
	}
	n.nextID++
	if spec.Bytes > 0 {
		f.totalBits = spec.Bytes * 8
	} else {
		f.totalBits = math.Inf(1)
	}
	f.resources = n.resourcesFor(p)
	n.flows[f.ID] = f
	n.order = append(n.order, f.ID)
	n.recompute()
	return f
}

// StopFlow terminates a flow (persistent or not) immediately. Bytes sent
// so far stay counted. Unknown or finished IDs are no-ops.
func (n *Network) StopFlow(id FlowID) {
	f := n.flows[id]
	if f == nil {
		return
	}
	n.advance()
	n.removeFlow(f)
	n.recomputeAfterRemoval()
}

func (n *Network) removeFlow(f *Flow) {
	if f.complEv != nil {
		n.clock.Cancel(f.complEv)
		f.complEv = nil
	}
	delete(n.flows, f.ID)
	for i, id := range n.order {
		if id == f.ID {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
}

// ActiveFlows returns the live flows in start order.
func (n *Network) ActiveFlows() []*Flow {
	out := make([]*Flow, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.flows[id])
	}
	return out
}

// advance accrues counters and flow progress from lastUpdate to now using
// the current rates. Must run before any allocation change.
func (n *Network) advance() {
	now := n.clock.Now()
	dt := float64(now - n.lastUpdate)
	if dt < 0 {
		panic("netsim: clock moved backwards")
	}
	if dt > 0 {
		for _, id := range n.order {
			f := n.flows[id]
			if f.rate <= 0 {
				continue
			}
			bits := f.rate * dt
			f.sentBits += bits
			if f.sentBits > f.totalBits {
				// Completion events land exactly at the finish time, so
				// overshoot can only be float noise; clamp it.
				f.sentBits = f.totalBits
			}
			for _, r := range f.resources {
				n.counterBits[r] += bits
			}
		}
	}
	n.lastUpdate = now
}

// recompute re-solves the global allocation and reschedules completions.
func (n *Network) recompute() {
	n.advance()
	n.recomputes++
	// Priority (non-responsive) flows are solved first, like the fixed
	// class of §4.2; elastic flows share what remains. The headroom
	// keeps priority traffic from starving elastic flows to an exact
	// zero rate (which would deadlock finite transfers): real
	// non-responsive UDP crushes TCP but never eliminates it.
	cp := &maxmin.ClassedProblem{Capacity: n.capacities, FixedHeadroom: PriorityHeadroom}
	kind := make([]int, len(n.order)) // index within its class
	for i, id := range n.order {
		f := n.flows[id]
		d := maxmin.Demand{
			Resources: f.resources,
			Weight:    f.Spec.Weight,
			Cap:       f.Spec.RateCap,
		}
		if f.Spec.Priority {
			kind[i] = len(cp.Fixed)<<1 | 1
			cp.Fixed = append(cp.Fixed, d)
		} else {
			kind[i] = len(cp.Variable) << 1
			cp.Variable = append(cp.Variable, d)
		}
	}
	res := maxmin.SolveClasses(cp)
	now := n.clock.Now()
	for i, id := range n.order {
		f := n.flows[id]
		if kind[i]&1 == 1 {
			f.rate = res.Fixed[kind[i]>>1]
		} else {
			f.rate = res.Variable[kind[i]>>1]
		}
		if f.complEv != nil {
			n.clock.Cancel(f.complEv)
			f.complEv = nil
		}
		if math.IsInf(f.totalBits, 1) {
			continue
		}
		remaining := f.totalBits - f.sentBits
		fid := f.ID
		if remaining <= 0 {
			// Completed exactly at a recompute boundary. Defer to a
			// zero-delay event: finishing inline would mutate n.order
			// while this loop ranges over it, and completion callbacks
			// may start new flows (re-entrant recompute).
			f.complEv = n.clock.Schedule(now, "flow-complete", func(t simclock.Time) {
				n.completeFlow(fid, t)
			})
			continue
		}
		if f.rate <= 0 {
			continue // starved; will be rescheduled when capacity frees up
		}
		eta := now + simclock.Time(remaining/f.rate)
		f.complEv = n.clock.Schedule(eta, "flow-complete", func(t simclock.Time) {
			n.completeFlow(fid, t)
		})
	}
}

// recomputeAfterRemoval is recompute without the duplicate advance (the
// caller already advanced).
func (n *Network) recomputeAfterRemoval() { n.recompute() }

func (n *Network) completeFlow(id FlowID, now simclock.Time) {
	f := n.flows[id]
	if f == nil || f.done {
		return
	}
	n.advance()
	// Force exact accounting: the event fires precisely at the computed
	// finish time, so remaining bits are float noise.
	short := f.totalBits - f.sentBits
	if short > 0 {
		f.sentBits = f.totalBits
		for _, r := range f.resources {
			n.counterBits[r] += short
		}
	}
	n.finish(f, now)
	n.recomputeAfterRemoval()
}

func (n *Network) finish(f *Flow, now simclock.Time) {
	f.done = true
	f.completed = now
	f.rate = 0
	n.totalDelivered += f.totalBits
	n.deliveredWeightedHops += f.totalBits * float64(len(f.resources))
	n.removeFlow(f)
	if f.Spec.OnComplete != nil {
		f.Spec.OnComplete(now, f)
	}
}

// ChannelCounter returns a reader of the cumulative bits a directed
// channel has carried, for reading at an arbitrary instant (the SNMP
// agents do): each call first advances the counters to the current
// time, without changing allocations. The channel's resource is
// resolved once, here; a channel outside the network reads 0.
func (n *Network) ChannelCounter(ch graph.Channel) func() float64 {
	r, ok := n.chanRes[ch]
	if !ok {
		return func() float64 { return 0 }
	}
	return func() float64 {
		n.advance()
		return n.counterBits[r]
	}
}

// ChannelRate returns the instantaneous aggregate rate on a channel in
// bits/second, optionally excluding flows with the given owner tag
// (pass "" to include everything).
func (n *Network) ChannelRate(ch graph.Channel, excludeOwner string) float64 {
	r, ok := n.chanRes[ch]
	if !ok {
		return 0
	}
	var sum float64
	for _, id := range n.order {
		f := n.flows[id]
		if excludeOwner != "" && f.Spec.Owner == excludeOwner {
			continue
		}
		for _, fr := range f.resources {
			if int(fr) == r {
				sum += f.rate
			}
		}
	}
	return sum
}

// Channels returns all directed channels in deterministic order.
func (n *Network) Channels() []graph.Channel {
	out := append([]graph.Channel(nil), n.resOfChan...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link != out[j].Link {
			return out[i].Link < out[j].Link
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// ChannelCapacity returns the configured capacity of a channel.
func (n *Network) ChannelCapacity(ch graph.Channel) float64 {
	r, ok := n.chanRes[ch]
	if !ok {
		return 0
	}
	return n.capacities[r]
}

// PathLatency returns the one-way latency along the static route between
// two hosts (the collector's fixed per-hop model rides on link latencies).
func (n *Network) PathLatency(src, dst graph.NodeID) float64 {
	if src == dst {
		return 0
	}
	p := n.rt.Route(src, dst)
	if p == nil {
		return math.Inf(1)
	}
	return p.Latency()
}

// CheckConservation verifies that every channel's counter equals the sum
// of bits its flows pushed through it; returns the first discrepancy. The
// invariant: total counter bits on a flow's channels == hops × flow bits.
// It is cheap and the simulator's main self-check in tests.
func (n *Network) CheckConservation(tol float64) error {
	n.advance()
	var counted float64
	for _, bits := range n.counterBits {
		counted += bits
	}
	var expected float64
	expected += n.deliveredWeightedHops
	for _, id := range n.order {
		f := n.flows[id]
		expected += f.sentBits * float64(len(f.resources))
	}
	if math.Abs(counted-expected) > tol*(1+expected) {
		return fmt.Errorf("netsim: conservation violated: counters=%v expected=%v", counted, expected)
	}
	return nil
}
