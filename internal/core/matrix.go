package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/collector"
	"repro/internal/graph"
)

// Batched flow-matrix kernel. The clustering consumer needs pairwise
// N×N answers, and the paper notes per-pair flow queries "would have
// been needed, implying a much higher overhead". The per-pair loop
// paid that overhead internally too: snapshot resolution, route
// lookup, and per-link availability folding once per *pair* — O(N²·L)
// availability computations for answers that share one snapshot and
// one set of links. The kernel restructures the computation around
// what is actually shared:
//
//  1. one snapshot pin — every entry is computed against the same
//     epoch-numbered topology, stamped on the result;
//  2. one availability pass — each directed channel an entry folds is
//     resolved exactly once per matrix (not once per pair through it),
//     into one plane of availability medians;
//  3. one compiled sweep per distinct source, in two parts. The
//     interior steps — the steps of the source's shortest-path tree
//     into a node that forwards (some step's parent) — are folded once
//     per row, parent before child, into a bottleneck median per
//     forwarding node. Every other entry reads its last hop from a
//     per-node-slot table (parent slot, channel slot, the parent's
//     cap, path latency): a destination host never forwards
//     (graph.ShortestPath), so it is a leaf, and its entry is one
//     min(parent, cap, channel) — the expression a full sweep would
//     have evaluated for that step. The sweep is compiled (every slot
//     pre-resolved, router caps and path latencies baked in) and
//     cached on the snapshot by source node slot, so repeated matrices
//     between poll rounds pay only the fold arithmetic, no map lookups;
//  4. rows run one after another on pooled scratch, so a query
//     allocates only its answer's planes and a few slices.
//
// The sweep folds only what the answer carries: one median per node,
// where the per-pair answer folds full stats.Stats with stats.MinStat.
// A channel that was never measured is its link's capacity at accuracy
// 0.1 (availabilityOf; TestAvailabilityIsNeverInvalid), so every
// channel folded is valid, and an entry is valid exactly when the
// source's tree reaches the destination. The fold is then exact, bit
// for bit:
//
//   - MinStat(a, b) of two valid stats has the median
//     math.Min(a.Median, b.Median), and the source's empty fold is
//     +Inf, min's identity for every float64;
//   - the builtin min agrees with math.Min bit for bit except on a NaN
//     against -Inf or -0, and neither is ever folded: availability
//     medians are clamped to +0 or above (stats.SubFrom), capacities
//     and router caps are positive.
//
// min is associative and commutative, so the tree order of the sweep
// (each step's cap, then its channel) folds to the per-pair answer
// (the route's channels, then its caps); TestMatrixEquivalencePerPair
// and FuzzMatrixFold pin it.
//
// Degradation is per-entry: an unknown node, a non-compute endpoint, or
// a missing route marks Valid[i][j] false and zero-fills the number — a
// mid-matrix agent outage degrades entries (measurement errors already
// fall back to capacity at low accuracy), it does not abort the batch.
// Only lifecycle errors (the caller's budget, a shed or fenced source)
// abort, exactly as scalar queries do.

// MatrixInfo is the batched answer for the cross product Srcs×Dsts:
// Bandwidth[i][j] is the bottleneck availability median (bits/s) from
// Srcs[i] to Dsts[j] under the timeframe, Latency[i][j] the one-way
// path latency in seconds, and Valid[i][j] whether the entry is backed
// by a route and a valid stat. Epoch identifies the topology snapshot
// every entry saw (see Graph.Epoch); Term carries the answering
// server's HA fencing term for wire-served matrices (zero locally).
type MatrixInfo struct {
	Srcs, Dsts []graph.NodeID
	Timeframe  Timeframe
	Bandwidth  [][]float64
	Latency    [][]float64
	Valid      [][]bool
	Epoch      uint64
	Term       uint64
}

// QueryMatrix is QueryMatrixCtx with a background context.
func (m *Modeler) QueryMatrix(srcs, dsts []graph.NodeID, tf Timeframe) (*MatrixInfo, error) {
	return m.QueryMatrixCtx(context.Background(), srcs, dsts, tf)
}

// QueryMatrixCtx computes the rectangular flow matrix Srcs×Dsts in one
// batch. When the Modeler's source can answer matrices natively
// (collector.MatrixSource — the TCP client and failover group forward
// the "matrix" wire op), the whole batch is one round trip; a source
// that answers ErrMatrixUnsupported falls back to the local kernel.
func (m *Modeler) QueryMatrixCtx(ctx context.Context, srcs, dsts []graph.NodeID, tf Timeframe) (_ *MatrixInfo, retErr error) {
	ctx, finish := m.startQuery(ctx, "query.matrix", m.qMatrix)
	defer func() { finish(retErr) }()
	if len(srcs) == 0 || len(dsts) == 0 {
		return nil, fmt.Errorf("core: matrix query needs srcs and dsts")
	}
	if ms, ok := m.cfg.Source.(collector.MatrixSource); ok {
		ans, err := ms.MatrixQuery(ctx, &collector.MatrixRequest{
			Srcs: srcs, Dsts: dsts,
			TFKind: int(tf.Kind), Span: tf.Span, Horizon: tf.Horizon,
		})
		if err == nil {
			return &MatrixInfo{
				Srcs: srcs, Dsts: dsts, Timeframe: tf,
				Bandwidth: ans.Bandwidth, Latency: ans.Latency, Valid: ans.Valid,
				Epoch: ans.Epoch, Term: ans.Term,
			}, nil
		}
		if !errors.Is(err, collector.ErrMatrixUnsupported) {
			return nil, err
		}
	}
	mi, err := m.matrixLocal(ctx, srcs, dsts, tf)
	if err == errTopologyMoved {
		mi, err = m.matrixLocal(ctx, srcs, dsts, tf)
	}
	return mi, err
}

// matrixChan is one directed channel a query will read: some row sweep
// of a matrix, a route, or a plan link, listed for view.prefetch.
type matrixChan struct {
	l    *graph.Link
	d    graph.Dir
	slot int
}

// compiledStep is one parent-before-child DP step with every index the
// fold needs pre-resolved against the snapshot: dense node slots for
// the parent and child, the availability slot of the channel between
// them, and the parent's internal-bandwidth cap — +Inf, min's identity,
// when the parent is the source or uncapped (see sweepAt).
type compiledStep struct {
	pSlot     int32
	vSlot     int32
	availSlot int32
	limit     float64
}

// lastHop is the step that reaches one node slot: the parent's slot
// (-1 for the source and for a slot the tree does not reach), the
// channel slot and cap of the step, and the path latency from the
// source, summed hop by hop in step order as graph.Path.Latency sums a
// route's links.
type lastHop struct {
	pSlot     int32
	availSlot int32
	limit     float64
	lat       float64
}

// compiledSweep is one source's compiled DP program: the interior steps
// (into nodes that forward), parent before child, and the last hop of
// every node slot. Topology, routing, and slot assignment are all
// frozen per snapshot, so the compilation is cached there
// (snapshot.sweeps) and shared by every matrix until the epoch moves.
// Both slices are sized exactly: the cache holds one per source.
type compiledSweep struct {
	srcSlot int32
	steps   []compiledStep
	hops    []lastHop
}

// sweepEdge is one step of a source's shortest-path tree resolved to
// slots, with the latency of its link.
type sweepEdge struct {
	compiledStep
	latency float64
}

// compileSweep splits a source's resolved tree steps, given parent
// before child, into its interior steps and its last-hop table over
// the snapshot's node slots (nodes of them).
func compileSweep(src int32, nodes int, edges []sweepEdge) *compiledSweep {
	cs := &compiledSweep{srcSlot: src, hops: make([]lastHop, nodes)}
	for i := range cs.hops {
		cs.hops[i].pSlot = -1
	}
	forwards := make([]bool, nodes)
	for _, e := range edges {
		cs.hops[e.vSlot] = lastHop{pSlot: e.pSlot, availSlot: e.availSlot, limit: e.limit,
			lat: cs.hops[e.pSlot].lat + e.latency}
		forwards[e.pSlot] = true
	}
	interior := 0
	for _, e := range edges {
		if forwards[e.vSlot] {
			interior++
		}
	}
	cs.steps = make([]compiledStep, 0, interior)
	for _, e := range edges {
		if forwards[e.vSlot] {
			cs.steps = append(cs.steps, e.compiledStep)
		}
	}
	return cs
}

// computeSlot is a node's slot if it is a compute node of the snapshot,
// else -1: only compute nodes are matrix endpoints.
func (s *snapshot) computeSlot(id graph.NodeID) int32 {
	if nd := s.topo.Graph.Node(id); nd == nil || nd.Kind != graph.Compute {
		return -1
	}
	return int32(s.nodeSlot[id])
}

// sweepAt returns the compiled sweep of the compute node src at slot,
// compiling and caching it on first use. A source with no route tree
// (an isolated host) returns nil: its whole row is invalid except the
// diagonal. Failures are not cached — they are structural and should
// not recur hot.
func (s *snapshot) sweepAt(slot int32, src graph.NodeID) *compiledSweep {
	if cs := s.sweeps[slot].Load(); cs != nil {
		return cs
	}
	t, err := s.rt.Tree(src)
	if err != nil {
		return nil
	}
	g := s.topo.Graph
	tree := t.Sweep()
	edges := make([]sweepEdge, len(tree))
	for k, step := range tree {
		e := sweepEdge{compiledStep: compiledStep{
			pSlot:     int32(s.nodeSlot[step.Parent]),
			vSlot:     int32(s.nodeSlot[step.Node]),
			availSlot: int32(step.Via.ID)*2 + int32(step.Via.DirFrom(step.Parent)),
			limit:     math.Inf(1),
		}, latency: step.Via.Latency}
		// A node that forwards traffic onward is an interior hop for
		// everything beyond it: its internal bandwidth caps those paths
		// (Figure 1), but never the path that ends at it — matching the
		// per-pair fold over p.Nodes[1:len-1].
		if step.Parent != src {
			if nd := g.Node(step.Parent); nd != nil && nd.InternalBW > 0 {
				e.limit = nd.InternalBW
			}
		}
		edges[k] = e
	}
	cs := compileSweep(slot, len(s.nodeSlot), edges)
	if s.sweeps[slot].CompareAndSwap(nil, cs) {
		return cs
	}
	return s.sweeps[slot].Load()
}

// queryScratch is the per-query shared scratch: the dedup list of
// channels and the hosts a query reads, the read request and answer
// that fetch them (view.prefetch), and for a matrix the plane its rows
// fold: each listed channel's availability median, indexed
// linkID*2+dir like the snapshot memo. Pooled; only touched slots are
// cleared on release.
type queryScratch struct {
	need    []bool
	chanMed []float64
	chans   []matrixChan
	hosts   []graph.NodeID

	keys []collector.ChannelKey
	req  collector.ReadRequest
	ans  collector.ReadAnswer
}

var scratchPool = sync.Pool{New: func() any { return &queryScratch{} }}

func getScratch(chanSlots int) *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	if len(sc.need) < chanSlots {
		sc.need = make([]bool, chanSlots)
		sc.chanMed = make([]float64, chanSlots)
	}
	return sc
}

// want lists one directed channel, once.
func (sc *queryScratch) want(l *graph.Link, d graph.Dir) {
	slot := int(l.ID)*2 + int(d)
	if !sc.need[slot] {
		sc.need[slot] = true
		sc.chans = append(sc.chans, matrixChan{l: l, d: d, slot: slot})
	}
}

// wantSlot lists the directed channel behind an availability slot, once.
func (sc *queryScratch) wantSlot(s *snapshot, slot int32) {
	if !sc.need[slot] {
		sc.need[slot] = true
		l := s.topo.Graph.Link(graph.LinkID(slot / 2))
		sc.chans = append(sc.chans, matrixChan{l: l, d: graph.Dir(slot % 2), slot: int(slot)})
	}
}

// wantPath lists the channels a route traverses.
func (sc *queryScratch) wantPath(p *graph.Path) {
	for i, l := range p.Links {
		sc.want(l, l.DirFrom(p.Nodes[i]))
	}
}

func putScratch(sc *queryScratch) {
	for _, mc := range sc.chans {
		sc.need[mc.slot] = false
	}
	sc.chans = sc.chans[:0]
	sc.hosts = sc.hosts[:0]
	scratchPool.Put(sc)
}

// rowScratch is one query's DP state: the bottleneck median from the
// row's source to each forwarding node, indexed by the snapshot's dense
// node slots. A sweep writes every slot it folds before reading it, and
// a row reads only the source's and the interior steps' slots, so
// nothing is reset between rows.
type rowScratch struct {
	med []float64
}

var rowScratchPool = sync.Pool{New: func() any { return &rowScratch{} }}

func getRowScratch(nodes int) *rowScratch {
	rs := rowScratchPool.Get().(*rowScratch)
	if len(rs.med) < nodes {
		rs.med = make([]float64, nodes)
	}
	return rs
}

func putRowScratch(rs *rowScratch) { rowScratchPool.Put(rs) }

// matrixLocal is the batched kernel itself.
func (m *Modeler) matrixLocal(ctx context.Context, srcs, dsts []graph.NodeID, tf Timeframe) (*MatrixInfo, error) {
	s, err := m.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	v := view{m: m, s: s, tf: tf}

	n, cols := len(srcs), len(dsts)
	out := &MatrixInfo{
		Srcs: srcs, Dsts: dsts, Timeframe: tf, Epoch: s.epoch,
		Bandwidth: make([][]float64, n),
		Latency:   make([][]float64, n),
		Valid:     make([][]bool, n),
	}
	// One backing array per plane keeps a 64×64 matrix at three
	// allocations instead of 3·N.
	bwFlat := make([]float64, n*cols)
	latFlat := make([]float64, n*cols)
	okFlat := make([]bool, n*cols)
	for i := 0; i < n; i++ {
		out.Bandwidth[i] = bwFlat[i*cols : (i+1)*cols : (i+1)*cols]
		out.Latency[i] = latFlat[i*cols : (i+1)*cols : (i+1)*cols]
		out.Valid[i] = okFlat[i*cols : (i+1)*cols : (i+1)*cols]
	}

	// Resolve each distinct source's compiled sweep once (cached on the
	// snapshot, underlying trees shared with per-pair Route answers) and
	// each destination's slot (-1 = unknown or non-compute), then list
	// every directed channel a row will fold: the interior steps', and
	// each reached destination's last hop. A source with no sweep —
	// unknown node, non-compute, no route tree — leaves a nil entry: its
	// whole row is invalid except the diagonal.
	sweeps := make([]*compiledSweep, n)
	sc := getScratch(s.chanSlots)
	defer putScratch(sc)
	dstSlots := make([]int32, cols)
	for j, dst := range dsts {
		dstSlots[j] = s.computeSlot(dst)
	}
	for i, src := range srcs {
		slot := s.computeSlot(src)
		if slot < 0 {
			continue
		}
		cs := s.sweepAt(slot, src)
		if cs == nil {
			continue
		}
		sweeps[i] = cs
		for k := range cs.steps {
			sc.wantSlot(s, cs.steps[k].availSlot)
		}
		for _, d := range dstSlots {
			if d >= 0 && cs.hops[d].pSlot >= 0 {
				sc.wantSlot(s, cs.hops[d].availSlot)
			}
		}
	}

	// Availability once per directed channel per matrix. Lifecycle
	// errors abort the batch (the caller's budget expired or the
	// source refused); measurement errors degrade to capacity at low
	// accuracy. An entry keeps only the median, so that is all the
	// plane holds.
	if err := v.prefetch(ctx, sc); err != nil {
		return nil, err
	}
	for _, mc := range sc.chans {
		sc.chanMed[mc.slot] = v.channelAvailability(mc.l, mc.d).Median
	}
	v.publishHits()

	// Rows run one after another: a worker pool gained nothing at the
	// matrix sizes the daemon's default admission gate admits
	// (EXPERIMENTS "A matrix row folds the routers only").
	rs := getRowScratch(len(s.nodeSlot))
	for i := range srcs {
		matrixRow(sc.chanMed, rs, sweeps[i], srcs[i], dsts, dstSlots, out, i)
	}
	putRowScratch(rs)
	return out, nil
}

// sweep folds one compiled sweep's interior steps over the channel
// plane: for every forwarding node the source's tree reaches, the
// bottleneck median over the tree path's collapsed-router caps and
// channel availabilities — the MinStat fold on one median (see the top
// of this file for why that is exact).
func (rs *rowScratch) sweep(cs *compiledSweep, chanMed []float64) {
	med := rs.med
	med[cs.srcSlot] = math.Inf(1)
	for k := range cs.steps {
		st := &cs.steps[k]
		med[st.vSlot] = min(med[st.pSlot], st.limit, chanMed[st.availSlot])
	}
}

// matrixRow fills row i: the source's interior sweep (rowScratch.sweep),
// then each destination's entry from its last hop, the path latency
// baked into it, and the diagonal told apart by node slot. Every index
// is pre-resolved (compiledSweep, dstSlots), so the hot loop is pure
// array arithmetic.
func matrixRow(chanMed []float64, rs *rowScratch,
	cs *compiledSweep, src graph.NodeID, dsts []graph.NodeID, dstSlots []int32, out *MatrixInfo, i int) {

	bw, lat, ok := out.Bandwidth[i], out.Latency[i], out.Valid[i]
	if cs == nil {
		// No sweep: only the diagonal answers, and the source may not
		// be a node of the snapshot at all, so it is found by name.
		for j, dst := range dsts {
			if dst == src {
				bw[j], ok[j] = math.Inf(1), true
			}
		}
		return
	}
	rs.sweep(cs, chanMed)
	med := rs.med
	for j, slot := range dstSlots {
		if slot == cs.srcSlot {
			bw[j], ok[j] = math.Inf(1), true
			continue
		}
		if slot < 0 {
			continue // unknown or non-compute destination
		}
		h := &cs.hops[slot]
		if h.pSlot < 0 {
			continue // unreachable under current routing
		}
		bw[j] = min(med[h.pSlot], h.limit, chanMed[h.availSlot])
		lat[j] = h.lat
		ok[j] = true
	}
}

// MatrixHandler adapts a Modeler to collector.ServerConfig.Matrix, so
// a collector daemon, a read replica, or a federated view serves the
// "matrix" wire op with the batched kernel. A long-lived serving Modeler
// follows topology changes and honours replica fencing because every
// matrix is one read of its source (view.prefetch).
func MatrixHandler(m *Modeler) collector.MatrixHandler {
	return func(ctx context.Context, req *collector.MatrixRequest) (*collector.MatrixAnswer, error) {
		tf := Timeframe{Kind: TimeframeKind(req.TFKind), Span: req.Span, Horizon: req.Horizon}
		mi, err := m.QueryMatrixCtx(ctx, req.Srcs, req.Dsts, tf)
		if err != nil {
			return nil, err
		}
		return &collector.MatrixAnswer{
			Bandwidth: mi.Bandwidth, Latency: mi.Latency, Valid: mi.Valid, Epoch: mi.Epoch,
		}, nil
	}
}
