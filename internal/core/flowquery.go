package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/stats"
)

// FlowKind is the three-class spectrum of §4.2.
type FlowKind int

const (
	// FixedFlow has an absolute bandwidth requirement (audio).
	FixedFlow FlowKind = iota
	// VariableFlow shares bandwidth proportionally to its requirement
	// relative to the other variable flows (video tiers).
	VariableFlow
	// IndependentFlow absorbs whatever is left after the first two
	// classes (bulk transfer).
	IndependentFlow
)

func (k FlowKind) String() string {
	switch k {
	case FixedFlow:
		return "fixed"
	case VariableFlow:
		return "variable"
	case IndependentFlow:
		return "independent"
	default:
		return fmt.Sprintf("FlowKind(%d)", int(k))
	}
}

// Flow is one application-level flow in a query.
type Flow struct {
	Src, Dst graph.NodeID
	Kind     FlowKind

	// Bandwidth is the absolute requirement for FixedFlow and the
	// relative requirement (weight) for VariableFlow; ignored for
	// IndependentFlow.
	Bandwidth float64

	// MaxBandwidth optionally caps a VariableFlow (0 = uncapped).
	MaxBandwidth float64
}

// FlowResult reports what one queried flow would receive.
type FlowResult struct {
	Flow Flow

	// Bandwidth is the predicted allocation as a quartile Stat whose
	// median is the max-min allocation and whose spread follows the
	// bottleneck availability's spread.
	Bandwidth stats.Stat

	// Satisfied reports whether a FixedFlow's full requirement fits.
	Satisfied bool

	// Latency is the one-way path latency.
	Latency stats.Stat

	// Hops is the route length in links.
	Hops int
}

// FlowInfo is the answer to remos_flow_info.
type FlowInfo struct {
	Fixed       []FlowResult
	Variable    []FlowResult
	Independent []FlowResult
	Timeframe   Timeframe

	// Epoch identifies the topology snapshot the answer was computed
	// against (see Graph.Epoch).
	Epoch uint64
}

// All returns every result in query order (fixed, variable, independent).
func (fi *FlowInfo) All() []FlowResult {
	out := make([]FlowResult, 0, len(fi.Fixed)+len(fi.Variable)+len(fi.Independent))
	out = append(out, fi.Fixed...)
	out = append(out, fi.Variable...)
	out = append(out, fi.Independent...)
	return out
}

// QueryFlowInfo answers remos_flow_info(fixed, variable, independent,
// timeframe): all flows are resolved *simultaneously*, so internal
// sharing between the queried flows is accounted for (§4.2 "simultaneous
// queries and sharing"). Fixed flows are satisfied first, then variable
// flows share proportionally, then independent flows absorb the rest,
// all under weighted max-min fairness on the availability implied by the
// timeframe.
func (m *Modeler) QueryFlowInfo(fixed, variable, independent []Flow, tf Timeframe) (*FlowInfo, error) {
	return m.QueryFlowInfoCtx(context.Background(), fixed, variable, independent, tf)
}

// QueryFlowInfoCtx is QueryFlowInfo under a context: the resource-space
// construction fetches one availability per directed channel in use, and
// each fetch carries the caller's deadline. A budget that expires
// mid-construction aborts with a typed lifecycle error.
func (m *Modeler) QueryFlowInfoCtx(ctx context.Context, fixed, variable, independent []Flow, tf Timeframe) (_ *FlowInfo, retErr error) {
	ctx, finish := m.startQuery(ctx, "query.flowinfo", m.qFlowQuery)
	defer func() { finish(retErr) }()
	fi, err := m.flowInfo(ctx, fixed, variable, independent, tf)
	if err == errTopologyMoved {
		fi, err = m.flowInfo(ctx, fixed, variable, independent, tf)
	}
	return fi, err
}

func (m *Modeler) flowInfo(ctx context.Context, fixed, variable, independent []Flow, tf Timeframe) (*FlowInfo, error) {
	s, err := m.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	// List the channels of every flow's route before folding any, so one
	// read fetches them all. A flow without a route lists nothing; the
	// loop below reports it.
	v := view{m: m, s: s, tf: tf}
	sc := getScratch(s.chanSlots)
	for _, class := range [...][]Flow{fixed, variable, independent} {
		for _, f := range class {
			if p := s.rt.Route(f.Src, f.Dst); p != nil && f.Src != f.Dst {
				sc.wantPath(p)
			}
		}
	}
	err = v.prefetch(ctx, sc)
	putScratch(sc)
	if err != nil {
		return nil, err
	}

	// Build the resource space: one resource per directed channel in use,
	// plus router backplanes with finite internal bandwidth. The index is
	// pooled; nothing it owns escapes into the returned FlowInfo (the
	// solver and allocationStat copy what they keep), so it is released
	// when the query returns.
	idx := newResourceIndex(v)
	defer idx.release()
	toDemand := func(f Flow) (maxmin.Demand, *graph.Path, error) {
		if f.Src == f.Dst {
			return maxmin.Demand{}, nil, fmt.Errorf("core: flow with equal endpoints %q", f.Src)
		}
		p := s.rt.Route(f.Src, f.Dst)
		if p == nil {
			return maxmin.Demand{}, nil, fmt.Errorf("core: no route %s -> %s", f.Src, f.Dst)
		}
		return maxmin.Demand{Resources: idx.resourcesFor(p), Weight: 1}, p, nil
	}

	cp := &maxmin.ClassedProblem{}
	paths := make(map[*Flow]*graph.Path)
	fixedFlows := append([]Flow(nil), fixed...)
	varFlows := append([]Flow(nil), variable...)
	indFlows := append([]Flow(nil), independent...)
	for i := range fixedFlows {
		f := &fixedFlows[i]
		if f.Bandwidth <= 0 {
			return nil, fmt.Errorf("core: fixed flow %s->%s needs a positive bandwidth", f.Src, f.Dst)
		}
		d, p, err := toDemand(*f)
		if err != nil {
			return nil, err
		}
		d.Cap = f.Bandwidth
		cp.Fixed = append(cp.Fixed, d)
		paths[f] = p
	}
	for i := range varFlows {
		f := &varFlows[i]
		d, p, err := toDemand(*f)
		if err != nil {
			return nil, err
		}
		if f.Bandwidth > 0 {
			d.Weight = f.Bandwidth
		}
		d.Cap = f.MaxBandwidth
		cp.Variable = append(cp.Variable, d)
		paths[f] = p
	}
	for i := range indFlows {
		f := &indFlows[i]
		d, p, err := toDemand(*f)
		if err != nil {
			return nil, err
		}
		cp.Independent = append(cp.Independent, d)
		paths[f] = p
	}
	cp.Capacity = idx.capacities()

	var res *maxmin.ClassedResult
	if m.cfg.Sharing == ShareProportional {
		res = solveProportionalClasses(cp)
	} else {
		res = maxmin.SolveClasses(cp)
	}

	out := &FlowInfo{Timeframe: tf, Epoch: s.epoch}
	mk := func(f *Flow, alloc float64, satisfied bool) FlowResult {
		p := paths[f]
		bottleneck := idx.bottleneckStat(p)
		return FlowResult{
			Flow:      *f,
			Bandwidth: allocationStat(alloc, bottleneck),
			Satisfied: satisfied,
			Latency:   stats.Exact(p.Latency()),
			Hops:      p.Hops(),
		}
	}
	out.Fixed = make([]FlowResult, 0, len(fixedFlows))
	for i := range fixedFlows {
		out.Fixed = append(out.Fixed, mk(&fixedFlows[i], res.Fixed[i], res.FixedSatisfied[i]))
	}
	out.Variable = make([]FlowResult, 0, len(varFlows))
	for i := range varFlows {
		out.Variable = append(out.Variable, mk(&varFlows[i], res.Variable[i], true))
	}
	out.Independent = make([]FlowResult, 0, len(indFlows))
	for i := range indFlows {
		out.Independent = append(out.Independent, mk(&indFlows[i], res.Independent[i], true))
	}
	return out, nil
}

// solveProportionalClasses resolves all three classes with the naive
// proportional model: one flat solve, no phasing, no redistribution.
// Fixed flows are capped at their requests; "satisfied" means the
// proportional share covers the request.
func solveProportionalClasses(cp *maxmin.ClassedProblem) *maxmin.ClassedResult {
	var demands []maxmin.Demand
	demands = append(demands, cp.Fixed...)
	demands = append(demands, cp.Variable...)
	demands = append(demands, cp.Independent...)
	for i := range demands {
		if demands[i].Weight <= 0 {
			demands[i].Weight = 1
		}
	}
	p := &maxmin.Problem{Capacity: cp.Capacity, Demands: demands}
	alloc := p.SolveProportional()
	res := &maxmin.ClassedResult{Residual: p.Residual(alloc)}
	nf, nv := len(cp.Fixed), len(cp.Variable)
	res.Fixed = alloc[:nf]
	res.Variable = alloc[nf : nf+nv]
	res.Independent = alloc[nf+nv:]
	res.FixedSatisfied = make([]bool, nf)
	for i, d := range cp.Fixed {
		res.FixedSatisfied[i] = res.Fixed[i] >= d.Cap-1e-6
	}
	return res
}

// resourceIndex maps channels (and limited backplanes) to max-min
// resources whose capacities are the timeframe's availability medians.
// Instances are pooled: a flow query borrows one, builds the resource
// space, and releases it on return. Nothing handed out by the index may
// be retained past the owning query (the solver copies capacities it
// mutates; results copy stats by value).
type resourceIndex struct {
	v view

	ids   map[resKey]int
	caps  []float64
	stats []stats.Stat

	// resbuf is an arena for the per-demand resource-ID lists:
	// resourcesFor returns capacity-clamped subslices of it, so one
	// query's lists share a single growing allocation.
	resbuf []maxmin.ResourceID
}

type resKey struct {
	link graph.LinkID // -1 for node backplane resources
	dir  graph.Dir
	node graph.NodeID
}

var riPool = sync.Pool{
	New: func() any { return &resourceIndex{ids: make(map[resKey]int, 32)} },
}

func newResourceIndex(v view) *resourceIndex {
	ri := riPool.Get().(*resourceIndex)
	ri.v = v
	return ri
}

// release returns the index to the pool, dropping query-scoped state but
// keeping the map and slice capacity warm.
func (ri *resourceIndex) release() {
	clear(ri.ids)
	ri.v = view{}
	ri.caps = ri.caps[:0]
	ri.stats = ri.stats[:0]
	ri.resbuf = ri.resbuf[:0]
	riPool.Put(ri)
}

func (ri *resourceIndex) intern(k resKey, capacity float64, st stats.Stat) int {
	if id, ok := ri.ids[k]; ok {
		return id
	}
	id := len(ri.caps)
	ri.ids[k] = id
	ri.caps = append(ri.caps, capacity)
	ri.stats = append(ri.stats, st)
	return id
}

func (ri *resourceIndex) resourcesFor(p *graph.Path) []maxmin.ResourceID {
	start := len(ri.resbuf)
	for i, l := range p.Links {
		d := l.DirFrom(p.Nodes[i])
		st := ri.v.channelAvailability(l, d)
		capacity := st.Median
		if !st.Valid() {
			capacity = l.Capacity
		}
		id := ri.intern(resKey{link: l.ID, dir: d}, capacity, st)
		ri.resbuf = append(ri.resbuf, maxmin.ResourceID(id))
	}
	for _, nid := range p.Nodes {
		n := ri.v.s.topo.Graph.Node(nid)
		if n != nil && n.Kind == graph.Network && n.InternalBW > 0 {
			id := ri.intern(resKey{link: -1, node: nid}, n.InternalBW, stats.Exact(n.InternalBW))
			ri.resbuf = append(ri.resbuf, maxmin.ResourceID(id))
		}
	}
	// Three-index slice: a later resourcesFor growing resbuf must
	// reallocate rather than overwrite this demand's tail.
	return ri.resbuf[start:len(ri.resbuf):len(ri.resbuf)]
}

func (ri *resourceIndex) capacities() []float64 { return ri.caps }

// bottleneckStat returns the availability Stat of the tightest resource
// along the path (by median).
func (ri *resourceIndex) bottleneckStat(p *graph.Path) stats.Stat {
	best := stats.NoData()
	bestMedian := math.Inf(1)
	for i, l := range p.Links {
		d := l.DirFrom(p.Nodes[i])
		if id, ok := ri.ids[resKey{link: l.ID, dir: d}]; ok {
			st := ri.stats[id]
			if st.Valid() && st.Median < bestMedian {
				best, bestMedian = st, st.Median
			}
		}
	}
	for _, nid := range p.Nodes {
		if id, ok := ri.ids[resKey{link: -1, node: nid}]; ok {
			st := ri.stats[id]
			if st.Valid() && st.Median < bestMedian {
				best, bestMedian = st, st.Median
			}
		}
	}
	return best
}

// allocationStat turns a point allocation into a quartile Stat: the
// median is the allocation, and the relative spread follows the
// bottleneck availability's spread (if the bottleneck wobbles ±20%, so
// does the flow's share).
func allocationStat(alloc float64, bottleneck stats.Stat) stats.Stat {
	if math.IsInf(alloc, 1) {
		return stats.Exact(math.Inf(1))
	}
	if !bottleneck.Valid() || bottleneck.Median <= 0 || alloc <= 0 {
		return stats.Exact(alloc).WithAccuracy(bottleneck.Accuracy)
	}
	k := alloc / bottleneck.Median
	out := bottleneck.Scale(k)
	out.Median = alloc
	// The allocation can never exceed what max-min granted under the
	// median availability estimate if the bottleneck were at its max;
	// keep quartiles ordered after the median override.
	if out.Q1 > out.Median {
		out.Q1 = out.Median
	}
	if out.Min > out.Q1 {
		out.Min = out.Q1
	}
	if out.Q3 < out.Median {
		out.Q3 = out.Median
	}
	if out.Max < out.Q3 {
		out.Max = out.Q3
	}
	return out
}

// BandwidthMatrix computes the pairwise available-bandwidth matrix the
// clustering module consumes: entry [i][j] is the bottleneck availability
// median between nodes[i] and nodes[j]. This uses topology information
// (one batched kernel pass, matrix.go) rather than O(n²) flow queries,
// matching the paper's observation that flow queries for the matrix
// "would have been needed, implying a much higher overhead".
func (m *Modeler) BandwidthMatrix(nodes []graph.NodeID, tf Timeframe) ([][]float64, error) {
	return m.BandwidthMatrixCtx(context.Background(), nodes, tf)
}

// BandwidthMatrixCtx is BandwidthMatrix under a context. It runs the
// batched kernel (QueryMatrixCtx) for the square nodes×nodes case:
// entries degrade individually — a mid-matrix agent outage zero-fills
// the affected entries instead of aborting the batch — and only
// lifecycle errors (an expired budget, a fenced source) abort, with
// the typed error. Callers needing per-entry validity or the snapshot
// epoch use QueryMatrixCtx directly.
func (m *Modeler) BandwidthMatrixCtx(ctx context.Context, nodes []graph.NodeID, tf Timeframe) ([][]float64, error) {
	mi, err := m.QueryMatrixCtx(ctx, nodes, nodes, tf)
	if err != nil {
		return nil, err
	}
	return mi.Bandwidth, nil
}

// LatencyMatrix computes pairwise one-way latencies.
func (m *Modeler) LatencyMatrix(nodes []graph.NodeID) ([][]float64, error) {
	return m.LatencyMatrixCtx(context.Background(), nodes)
}

// LatencyMatrixCtx is LatencyMatrix under a context, computed by the
// batched kernel against one pinned snapshot: entries without a route
// are zero-filled rather than aborting the matrix.
func (m *Modeler) LatencyMatrixCtx(ctx context.Context, nodes []graph.NodeID) ([][]float64, error) {
	mi, err := m.QueryMatrixCtx(ctx, nodes, nodes, TFCapacity())
	if err != nil {
		return nil, err
	}
	return mi.Latency, nil
}
