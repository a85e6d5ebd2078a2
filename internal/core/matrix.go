package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
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
//  2. one availability pass — each directed channel any route uses is
//     resolved exactly once per matrix (not once per pair through it);
//  3. one compiled sweep per distinct source — entries for a row are
//     produced by a single bottleneck sweep over the source's
//     shortest-path tree (parent-before-child DP) instead of per-pair
//     path walks. stats.MinStat is associative and commutative, so the
//     sweep's fold is bit-identical to the per-pair fold. The sweep is
//     compiled (node-slot and channel-slot indices pre-resolved, router
//     caps baked in) and cached on the snapshot, so repeated matrices
//     between poll rounds pay only the DP arithmetic, no map lookups;
//  4. rows run on a bounded worker pool with pooled scratch, so large
//     matrices scale across cores without per-query allocation churn.
//
// Degradation is per-entry: an unknown node, a missing route, or an
// invalid stat marks Valid[i][j] false and zero-fills the number — a
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

// maxMatrixWorkers bounds the row worker pool: matrix parallelism is a
// latency optimization for one query, not a license to occupy every
// core of a shared daemon.
const maxMatrixWorkers = 8

// minParallelCells is the matrix area below which spawning workers
// costs more than the sweep itself.
const minParallelCells = 256

// matrixChan is one directed channel a query will read: some row sweep
// of a matrix, a route, or a plan link, listed for view.prefetch.
type matrixChan struct {
	l    *graph.Link
	d    graph.Dir
	slot int
}

// compiledStep is one parent-before-child DP step with every index the
// sweep needs pre-resolved against the snapshot: dense node slots for
// the parent and child, the availability slot of the channel between
// them, the interior parent's internal-bandwidth cap (0 when the parent
// is the source or uncapped — see matrixRow), and the hop latency.
type compiledStep struct {
	link      *graph.Link
	dir       graph.Dir
	pSlot     int32
	vSlot     int32
	availSlot int32
	limit     float64
	lat       float64
}

// compiledSweep is one source's full compiled DP program. Topology,
// routing, and slot assignment are all frozen per snapshot, so the
// compilation is cached there (snapshot.sweeps) and shared by every
// matrix until the epoch moves.
type compiledSweep struct {
	srcSlot int
	steps   []compiledStep
}

// sweepFor returns the compiled sweep for src, compiling and caching it
// on first use. A source with no route tree (unknown node, isolated
// host) returns nil: its whole row is invalid except the diagonal.
// Failures are not cached — they are structural and the setup loop has
// already filtered non-compute nodes, so they should not recur hot.
func (s *snapshot) sweepFor(src graph.NodeID) *compiledSweep {
	if v, ok := s.sweeps.Load(src); ok {
		return v.(*compiledSweep)
	}
	t, err := s.rt.Tree(src)
	if err != nil {
		return nil
	}
	g := s.topo.Graph
	sweep := t.Sweep()
	cs := &compiledSweep{srcSlot: s.nodeSlot[src], steps: make([]compiledStep, 0, len(sweep))}
	for _, step := range sweep {
		d := step.Via.DirFrom(step.Parent)
		limit := 0.0
		// A node that forwards traffic onward is an interior hop for
		// everything beyond it: its internal bandwidth caps those paths
		// (Figure 1), but never the path that ends at it — matching the
		// per-pair fold over p.Nodes[1:len-1].
		if step.Parent != src {
			if nd := g.Node(step.Parent); nd != nil && nd.InternalBW > 0 {
				limit = nd.InternalBW
			}
		}
		cs.steps = append(cs.steps, compiledStep{
			link:      step.Via,
			dir:       d,
			pSlot:     int32(s.nodeSlot[step.Parent]),
			vSlot:     int32(s.nodeSlot[step.Node]),
			availSlot: int32(step.Via.ID)*2 + int32(d),
			limit:     limit,
			lat:       step.Via.Latency,
		})
	}
	actual, _ := s.sweeps.LoadOrStore(src, cs)
	return actual.(*compiledSweep)
}

// queryScratch is the per-query shared scratch: the dedup list of
// channels and the hosts a query reads, the read request and answer
// that fetch them (view.prefetch), and for a matrix the dense
// availability table (indexed linkID*2+dir, like the snapshot memo).
// Pooled; only touched slots are cleared on release.
type queryScratch struct {
	need  []bool
	avail []stats.Stat
	chans []matrixChan
	hosts []graph.NodeID

	keys []collector.ChannelKey
	req  collector.ReadRequest
	ans  collector.ReadAnswer
}

var scratchPool = sync.Pool{New: func() any { return &queryScratch{} }}

func getScratch(chanSlots int) *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	if len(sc.need) < chanSlots {
		sc.need = make([]bool, chanSlots)
		sc.avail = make([]stats.Stat, chanSlots)
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

// rowScratch is one worker's DP state, indexed by the snapshot's dense
// node slots. Generation counters make per-row resets O(touched), not
// O(nodes).
type rowScratch struct {
	bw  []stats.Stat
	lat []float64
	gen []uint64
	cur uint64
}

var rowScratchPool = sync.Pool{New: func() any { return &rowScratch{} }}

func getRowScratch(nodes int) *rowScratch {
	rs := rowScratchPool.Get().(*rowScratch)
	if len(rs.bw) < nodes {
		rs.bw = make([]stats.Stat, nodes)
		rs.lat = make([]float64, nodes)
		rs.gen = make([]uint64, nodes)
		rs.cur = 0
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
	// mark every directed channel any sweep will read. A source with no
	// sweep — unknown node, non-compute — leaves a nil entry: its whole
	// row is invalid except the diagonal. Destination slots resolve once
	// per matrix too (-1 = structurally invalid), shared by every row.
	sweeps := make([]*compiledSweep, n)
	sc := getScratch(s.chanSlots)
	defer putScratch(sc)
	for i, src := range srcs {
		if nd := s.topo.Graph.Node(src); nd == nil || nd.Kind != graph.Compute {
			continue
		}
		cs := s.sweepFor(src)
		if cs == nil {
			continue
		}
		sweeps[i] = cs
		for k := range cs.steps {
			sc.want(cs.steps[k].link, cs.steps[k].dir)
		}
	}
	dstSlots := make([]int32, cols)
	for j, dst := range dsts {
		dstSlots[j] = -1
		if nd := s.topo.Graph.Node(dst); nd == nil || nd.Kind != graph.Compute {
			continue
		}
		if slot, ok := s.nodeSlot[dst]; ok {
			dstSlots[j] = int32(slot)
		}
	}

	// Availability once per directed channel per matrix. Lifecycle
	// errors abort the batch (the caller's budget expired or the
	// source refused); measurement errors degrade to capacity at low
	// accuracy.
	if err := v.prefetch(ctx, sc); err != nil {
		return nil, err
	}
	for _, mc := range sc.chans {
		sc.avail[mc.slot] = v.channelAvailability(mc.l, mc.d)
	}
	v.publishHits()

	// Row sweeps: serial for small matrices, a bounded worker pool
	// pulling rows off an atomic counter for large ones. Workers write
	// disjoint rows, and read only the shared immutable scratch.
	workers := runtime.GOMAXPROCS(0)
	if workers > maxMatrixWorkers {
		workers = maxMatrixWorkers
	}
	if workers > n {
		workers = n
	}
	if workers < 2 || n*cols < minParallelCells {
		rs := getRowScratch(len(s.nodeSlot))
		for i := range srcs {
			matrixRow(sc, rs, sweeps[i], srcs[i], dsts, dstSlots, out, i)
		}
		putRowScratch(rs)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs := getRowScratch(len(s.nodeSlot))
				defer putRowScratch(rs)
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					matrixRow(sc, rs, sweeps[i], srcs[i], dsts, dstSlots, out, i)
				}
			}()
		}
		wg.Wait()
	}
	return out, nil
}

// matrixRow fills row i: one parent-before-child DP pass over the
// source's compiled sweep accumulates, for every reachable node, the
// element-wise bottleneck min over the tree path's channel
// availabilities and collapsed-router internal-bandwidth limits —
// exactly the fold AvailableBandwidthCtx performs per pair, in an
// order MinStat's associativity makes equivalent — plus the summed
// path latency. Every index is pre-resolved (compiledStep, dstSlots),
// so the hot loop is pure array arithmetic.
func matrixRow(sc *queryScratch, rs *rowScratch,
	cs *compiledSweep, src graph.NodeID, dsts []graph.NodeID, dstSlots []int32, out *MatrixInfo, i int) {

	rs.cur++
	cur := rs.cur
	if cs != nil {
		rs.bw[cs.srcSlot] = stats.NoData()
		rs.lat[cs.srcSlot] = 0
		rs.gen[cs.srcSlot] = cur
		for k := range cs.steps {
			st := &cs.steps[k]
			base := rs.bw[st.pSlot]
			if st.limit > 0 {
				base = stats.MinStat(base, stats.Exact(st.limit))
			}
			rs.bw[st.vSlot] = stats.MinStat(base, sc.avail[st.availSlot])
			rs.lat[st.vSlot] = rs.lat[st.pSlot] + st.lat
			rs.gen[st.vSlot] = cur
		}
	}
	for j, dst := range dsts {
		if dst == src {
			out.Bandwidth[i][j] = math.Inf(1)
			out.Latency[i][j] = 0
			out.Valid[i][j] = true
			continue
		}
		if cs == nil {
			continue // row source has no routes: entry stays invalid
		}
		slot := dstSlots[j]
		if slot < 0 || rs.gen[slot] != cur {
			continue // unknown, non-compute, or unreachable under current routing
		}
		out.Latency[i][j] = rs.lat[slot]
		if bw := rs.bw[slot]; bw.Valid() {
			out.Bandwidth[i][j] = bw.Median
			out.Valid[i][j] = true
		}
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
