package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Lock-free topology snapshots: the Modeler's read side.
//
// A snapshot freezes everything a query needs — the discovered topology,
// its route table, per-channel slot assignments — behind one atomic
// pointer. Readers Load it and never take a lock; Refresh (or the first
// query after it) installs a fresh snapshot under the next epoch. Each
// snapshot carries two derived, lazily built, lock-free structures:
//
//   - an availability memo: per (timeframe, channel) Stats computed at
//     most once per source data version, so a burst of queries between
//     poll ticks shares one summary per channel instead of re-deriving
//     quartiles per query. Every query lists what it folds and reads it
//     in one collector read (view.prefetch), which validates the
//     generation it holds — in process against the source's version, over
//     the wire inside the query's one frame;
//   - a plan cache: the logical-topology skeleton remos_get_graph
//     derives for a node set (route induction + chain collapsing, §4.3)
//     is purely topological, so it is built once per (epoch, node set)
//     and every query replays it against memoized availabilities.
type snapshot struct {
	epoch   uint64
	topo    *collector.Topology
	rt      *graph.RouteTable
	fetched time.Time // wall time of the topology fetch

	// nodeSlot assigns every topology node a dense index into tfMemo
	// load arrays; chanSlots is the length of the channel arrays
	// (2 slots per link, indexed linkID*2 + dir), and keys names the
	// channel behind each slot.
	nodeSlot  map[graph.NodeID]int
	chanSlots int
	keys      []collector.ChannelKey

	memo atomic.Pointer[availMemo]

	plans atomic.Pointer[planMap]

	// sweeps caches compiled per-source matrix sweeps (matrix.go) by
	// the source's node slot. Topology and routing are frozen per
	// snapshot, so a source's sweep compiles once and serves every
	// matrix until the epoch moves.
	sweeps []atomic.Pointer[compiledSweep]
}

func newSnapshot(epoch uint64, topo *collector.Topology, rt *graph.RouteTable) *snapshot {
	s := &snapshot{epoch: epoch, topo: topo, rt: rt, fetched: time.Now()}
	ids := topo.Graph.Nodes()
	s.nodeSlot = make(map[graph.NodeID]int, len(ids))
	for i, id := range ids {
		s.nodeSlot[id] = i
	}
	s.sweeps = make([]atomic.Pointer[compiledSweep], len(ids))
	maxID := -1
	for _, l := range topo.Graph.Links() {
		if int(l.ID) > maxID {
			maxID = int(l.ID)
		}
	}
	s.chanSlots = (maxID + 1) * 2
	s.keys = make([]collector.ChannelKey, s.chanSlots)
	for _, l := range topo.Graph.Links() {
		for _, d := range [...]graph.Dir{graph.AtoB, graph.BtoA} {
			s.keys[int(l.ID)*2+int(d)] = topo.Key(l, d)
		}
	}
	return s
}

// availMemo is one generation of memoized per-timeframe answers, valid
// for exactly one (instance, version, selfGen): the validator of the
// reads that filled it (collector.ReadAnswer — a version is comparable
// only between answers of one issuer) and the self-flow generation its
// availabilities discounted. When either moves the whole generation is
// dropped and rebuilt — there is no per-entry invalidation to race on.
type availMemo struct {
	version  uint64
	instance uint64
	selfGen  uint64
	tfs      atomic.Pointer[[]*tfMemo]
}

// tfMemo holds the memoized stats of one timeframe: dense arrays of
// atomically published Stats (nil = not computed yet). A hit is a Load;
// on a miss two goroutines may race to compute and publish the same
// entry, but both derive it from the same frozen version, so either
// winning is correct.
type tfMemo struct {
	tf    Timeframe
	avail []atomic.Pointer[stats.Stat] // indexed by linkID*2 + dir
	loads []atomic.Pointer[stats.Stat] // indexed by nodeSlot
}

// lacking moves the listed channels and hosts whose slots are not filled
// to the end of their lists, and says how many of each there are. A
// filled slot stays filled, so what it counts as held is held.
func (tm *tfMemo) lacking(s *snapshot, chans []matrixChan, hosts []graph.NodeID) (nChans, nHosts int) {
	held := len(chans)
	for i := 0; i < held; {
		if tm.avail[chans[i].slot].Load() != nil {
			i++
			continue
		}
		held--
		chans[i], chans[held] = chans[held], chans[i]
	}
	nChans, held = len(chans)-held, len(hosts)
	for i := 0; i < held; {
		if tm.loads[s.nodeSlot[hosts[i]]].Load() != nil {
			i++
			continue
		}
		held--
		hosts[i], hosts[held] = hosts[held], hosts[i]
	}
	return nChans, len(hosts) - held
}

// tfFor returns (building if needed) the memo for one timeframe. The
// slice of timeframes is copy-on-write: distinct timeframes per epoch
// are few (an adaptation loop typically reuses one or two), so a linear
// scan beats any locked map.
func (am *availMemo) tfFor(tf Timeframe, s *snapshot) *tfMemo {
	for {
		lst := am.tfs.Load()
		if lst != nil {
			for _, tm := range *lst {
				if tm.tf == tf {
					return tm
				}
			}
		}
		tm := &tfMemo{
			tf:    tf,
			avail: make([]atomic.Pointer[stats.Stat], s.chanSlots),
			loads: make([]atomic.Pointer[stats.Stat], len(s.nodeSlot)),
		}
		var cur []*tfMemo
		if lst != nil {
			cur = *lst
		}
		next := make([]*tfMemo, len(cur), len(cur)+1)
		copy(next, cur)
		next = append(next, tm)
		if am.tfs.CompareAndSwap(lst, &next) {
			return tm
		}
	}
}

// view is one query's resolved read context: the snapshot it runs
// against, its timeframe, and — once prefetch has run — the tfMemo
// holding every channel and host the query folds. Folds count their
// memo hits in hits; the query publishes the total once (publishHits)
// rather than paying an atomic add per channel.
type view struct {
	m    *Modeler
	s    *snapshot
	tf   Timeframe
	tm   *tfMemo
	hits uint64
}

// errTopologyMoved is prefetch's verdict that the source now serves a
// topology discovered at another time than the snapshot's: the snapshot
// is dropped and the query entry points run once more against a fresh
// one.
var errTopologyMoved = errors.New("core: the collector rediscovered its topology during the query")

// prefetch is a query's one read, in process or over the wire. The
// caller lists in sc every channel and host the query is about to fold;
// prefetch sends the list with the validator of the installed memo
// generation and which listed slots that generation lacks, and leaves
// v.tm holding all of them, so the fold that follows reads memo hits
// only:
//
//   - "not modified": the generation it checked is current, v.tm is it,
//     and the answer's entries fill the slots it lacked — so between two
//     polls a slot is read once, however the queries that list it
//     interleave;
//   - entries under the installed generation's stamp: every listed slot
//     is filled in (the held ones again);
//   - entries under another stamp: a fresh generation replaces the
//     installed one — on any instance change, and within one instance
//     only upward; an answer older than what is installed fills a
//     detached generation that serves this query alone, as does an
//     answer without a stamp (a source with no data version).
//
// The answer's stamp was read before its data (collector/readwire.go),
// so a slot is never older than its generation says. A lifecycle error
// — a fenced replica among them — aborts the query; any other failure of
// the read (a transport error) fails every entry, and each degrades as a
// failed entry does. Capacity lists no channel, but still reads: the
// read is also how the query learns of a fence or a rediscovery.
func (v *view) prefetch(ctx context.Context, sc *queryScratch) error {
	m, s := v.m, v.s
	chans := sc.chans
	if v.tf.Kind == Capacity {
		chans = nil
	}
	self := m.selfGen.Load()
	req := &sc.req
	*req = collector.ReadRequest{Span: tfSpan(v.tf), Discovered: true, Keys: sc.keys[:0], Hosts: sc.hosts}
	if v.tf.Kind == Future {
		req.Of = collector.ReadWindow // a prediction starts from the raw window
	}
	var held *tfMemo
	if am := s.memo.Load(); am != nil && am.selfGen == self {
		held = am.tfFor(v.tf, s)
		req.HaveInstance, req.HaveVersion = am.instance, am.version
		req.MissingKeys, req.MissingHosts = held.lacking(s, chans, sc.hosts)
	}
	for _, mc := range chans {
		req.Keys = append(req.Keys, s.keys[mc.slot])
	}
	sc.keys = req.Keys
	ans := &sc.ans
	if err := m.reader.Read(ctx, req, ans); err != nil {
		if collector.IsLifecycleError(err) {
			return fmt.Errorf("core: %w", err)
		}
		*ans = collector.ReadAnswer{DiscoveredAt: s.topo.DiscoveredAt, Entries: ans.Entries[:0]}
		for range len(req.Keys) + len(req.Hosts) {
			ans.Entries = append(ans.Entries, collector.ReadEntry{Failed: true})
		}
	}
	if math.Float64bits(ans.DiscoveredAt) != math.Float64bits(s.topo.DiscoveredAt) {
		m.snap.CompareAndSwap(s, nil)
		return errTopologyMoved
	}
	keys, hosts := req.Keys, req.Hosts
	var tm *tfMemo
	if ans.NotModified {
		tm = held
		keys, hosts = keys[len(keys)-req.MissingKeys:], hosts[len(hosts)-req.MissingHosts:]
		chans = chans[len(chans)-len(keys):]
	} else {
		var am *availMemo
		if ans.Instance == 0 {
			am = &availMemo{selfGen: self}
		}
		for am == nil {
			cur := s.memo.Load()
			if cur != nil && cur.instance == ans.Instance && cur.selfGen == self && cur.version >= ans.Version {
				am = cur
				if cur.version > ans.Version {
					am = &availMemo{version: ans.Version, instance: ans.Instance, selfGen: self}
				}
				break
			}
			fresh := &availMemo{version: ans.Version, instance: ans.Instance, selfGen: self}
			if s.memo.CompareAndSwap(cur, fresh) {
				am = fresh
			}
		}
		tm = am.tfFor(v.tf, s)
	}
	// One slab backs every slot this answer fills; a generation is
	// dropped whole, so its slots never outlive one another by much.
	slab := make([]stats.Stat, len(ans.Entries))
	for i, mc := range chans {
		slab[i] = m.availabilityOf(s, mc.l, keys[i], v.tf, &ans.Entries[i])
		tm.avail[mc.slot].Store(&slab[i])
	}
	for j, id := range hosts {
		i := len(chans) + j
		slab[i] = ans.Entries[i].Stat // a failed entry's is NoData
		tm.loads[s.nodeSlot[id]].Store(&slab[i])
	}
	clear(ans.Entries) // the pooled scratch must not pin windows
	m.cMemoMiss.Add(uint64(len(slab)))
	v.tm = tm
	return nil
}

// channelAvailability is the fold's read of one directed channel's
// availability under the view's timeframe: a capacity, or the slot
// prefetch filled.
func (v *view) channelAvailability(l *graph.Link, d graph.Dir) stats.Stat {
	if v.tf.Kind == Capacity {
		return stats.Exact(l.Capacity)
	}
	return v.hit(v.tm.avail[int(l.ID)*2+int(d)].Load())
}

// hostLoad is the fold's read of a node's CPU load summary.
func (v *view) hostLoad(id graph.NodeID) stats.Stat {
	return v.hit(v.tm.loads[v.s.nodeSlot[id]].Load())
}

func (v *view) hit(p *stats.Stat) stats.Stat {
	if p == nil {
		panic("core: a query folded a channel or host it did not list")
	}
	v.hits++
	return *p
}

// publishHits adds the query's memo hits to the Modeler's counter. Call
// it once, after the last fold.
func (v *view) publishHits() { v.m.cMemoHits.Add(v.hits) }

// foldAvail combines the availabilities of the physical channels behind
// one logical link (element-wise bottleneck min), then folds in any
// collapsed-router internal-bandwidth limit. MinStat is associative and
// commutative, so folding the flat channel list is equivalent to the
// pairwise merging the chain collapse used to do.
func (v *view) foldAvail(chans []physChan, limit float64) stats.Stat {
	out := stats.NoData()
	for _, pc := range chans {
		out = stats.MinStat(out, v.channelAvailability(pc.l, pc.d))
	}
	if limit > 0 {
		out = stats.MinStat(out, stats.Exact(limit))
	}
	return out
}

// physChan identifies one directed physical channel contributing to a
// logical link's availability.
type physChan struct {
	l *graph.Link
	d graph.Dir
}

// planLink is one logical link of a graph plan: static annotations
// precomputed, dynamic availability expressed as the channel sets to
// fold at query time.
type planLink struct {
	a, b     graph.NodeID
	capacity stats.Stat
	latency  stats.Stat
	fwd, rev []physChan // physical channels behind a->b / b->a traffic
	limit    float64    // min internal BW of collapsed routers (0 = none)
}

// graphPlan is the frozen skeleton of one remos_get_graph answer: node
// annotations minus the dynamic load, logical links minus the dynamic
// availability, plus the (immutable, shared) index maps the answer's
// Node/LinksAt accessors use.
type graphPlan struct {
	nodes   []NodeInfo
	links   []planLink
	nodeIdx map[graph.NodeID]int
	linkIdx map[graph.NodeID][]int
}

type planMap map[string]*graphPlan

// planKey canonicalizes a node set. The empty key stands for "all
// compute nodes" — the common (and benchmarked) case — so the default
// query never allocates a key.
func planKey(nodes []graph.NodeID) string {
	if len(nodes) == 0 {
		return ""
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = string(n)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x00")
}

// plan returns the cached plan for a validated node set, building and
// publishing it (copy-on-write map) on first use.
func (s *snapshot) plan(key string, nodes []graph.NodeID) (*graphPlan, error) {
	if pm := s.plans.Load(); pm != nil {
		if p, ok := (*pm)[key]; ok {
			return p, nil
		}
	}
	p, err := s.buildPlan(nodes)
	if err != nil {
		return nil, err
	}
	for {
		old := s.plans.Load()
		if old != nil {
			if q, ok := (*old)[key]; ok {
				return q, nil
			}
		}
		var next planMap
		if old != nil {
			next = make(planMap, len(*old)+1)
			for k, q := range *old {
				next[k] = q
			}
		} else {
			next = make(planMap, 1)
		}
		next[key] = p
		if s.plans.CompareAndSwap(old, &next) {
			return p, nil
		}
	}
}

// buildPlan derives the logical-topology skeleton for a node set:
// (1) the subgraph induced by routes among the requested nodes, (2)
// pass-through network-node chains collapsed into single logical links
// (capacity: min; latency: sum; internal-BW limits folded) — exactly
// the construction of §4.3, but tracking for every logical link which
// physical channels its availability folds over instead of binding any
// timeframe-dependent numbers. The result is immutable and shared by
// every query against this snapshot.
func (s *snapshot) buildPlan(nodes []graph.NodeID) (*graphPlan, error) {
	requested := make(map[graph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		requested[n] = true
	}
	sub := s.topo.Graph.InducedByRoutes(s.rt, nodes)

	type buildLink struct {
		a, b     graph.NodeID
		capacity stats.Stat
		latency  stats.Stat
		fwd, rev []physChan
		limit    float64
	}
	chansFrom := func(l *buildLink, from graph.NodeID) []physChan {
		if l.a == from {
			return l.fwd
		}
		return l.rev
	}
	otherEnd := func(l *buildLink, id graph.NodeID) graph.NodeID {
		if l.a == id {
			return l.b
		}
		return l.a
	}

	// The induced subgraph has fresh link IDs; map each link back to the
	// original by endpoints + capacity so channel identities (and memo
	// slots) refer to the snapshot's physical topology.
	bls := make([]*buildLink, 0, sub.NumLinks())
	adj := make(map[graph.NodeID][]*buildLink)
	for _, l := range sub.Links() {
		orig := findLink(s.topo.Graph, l.A, l.B, l.Capacity)
		if orig == nil {
			return nil, fmt.Errorf("core: internal: lost link %s--%s", l.A, l.B)
		}
		bl := &buildLink{
			a: l.A, b: l.B,
			capacity: stats.Exact(l.Capacity),
			latency:  stats.Exact(l.Latency),
			fwd:      []physChan{{orig, orig.DirFrom(l.A)}},
			rev:      []physChan{{orig, orig.DirFrom(l.B)}},
		}
		bls = append(bls, bl)
		adj[l.A] = append(adj[l.A], bl)
		adj[l.B] = append(adj[l.B], bl)
	}

	// Collapse pass-through network-node chains.
	removed := make(map[graph.NodeID]bool)
	liveAt := func(id graph.NodeID) []*buildLink {
		var out []*buildLink
		for _, l := range adj[id] {
			if l.a != "" {
				out = append(out, l)
			}
		}
		return out
	}
	for {
		collapsed := false
		for _, id := range sub.Nodes() {
			if removed[id] || requested[id] {
				continue
			}
			nd := sub.Node(id)
			if nd == nil || nd.Kind != graph.Network {
				continue
			}
			ls := liveAt(id)
			if len(ls) != 2 {
				continue
			}
			l1, l2 := ls[0], ls[1]
			a, b := otherEnd(l1, id), otherEnd(l2, id)
			if a == b {
				continue
			}
			merged := &buildLink{a: a, b: b}
			merged.capacity = stats.MinStat(l1.capacity, l2.capacity)
			merged.latency = stats.AddStat(l1.latency, l2.latency)
			// a -> b traverses l1 from a, then l2 from mid (and the
			// reverse for b -> a).
			merged.fwd = joinChans(chansFrom(l1, a), chansFrom(l2, id))
			merged.rev = joinChans(chansFrom(l2, b), chansFrom(l1, id))
			merged.limit = minPositive(l1.limit, l2.limit)
			if nd.InternalBW > 0 {
				merged.capacity = stats.MinStat(merged.capacity, stats.Exact(nd.InternalBW))
				merged.limit = minPositive(merged.limit, nd.InternalBW)
			}
			// Mark originals dead and install the merged link.
			l1.a, l1.b = "", ""
			l2.a, l2.b = "", ""
			adj[a] = append(adj[a], merged)
			adj[b] = append(adj[b], merged)
			bls = append(bls, merged)
			removed[id] = true
			collapsed = true
		}
		if !collapsed {
			break
		}
	}

	// Plans are cached for the life of the snapshot, one per node set
	// queried, so their slices are sized exactly: grown by append they
	// held half again as much as they used.
	live := 0
	for _, bl := range bls {
		if bl.a != "" {
			live++
		}
	}
	p := &graphPlan{
		nodes: make([]NodeInfo, 0, sub.NumNodes()-len(removed)),
		links: make([]planLink, 0, live),
	}
	for _, id := range sub.Nodes() {
		if removed[id] {
			continue
		}
		nd := sub.Node(id)
		p.nodes = append(p.nodes, NodeInfo{ID: id, Kind: nd.Kind, InternalBW: nd.InternalBW, Memory: nd.MemoryBytes})
	}
	for _, bl := range bls {
		if bl.a == "" {
			continue // merged away
		}
		p.links = append(p.links, planLink{
			a: bl.a, b: bl.b,
			capacity: bl.capacity, latency: bl.latency,
			fwd: bl.fwd, rev: bl.rev, limit: bl.limit,
		})
	}
	sort.Slice(p.links, func(i, j int) bool {
		if p.links[i].a != p.links[j].a {
			return p.links[i].a < p.links[j].a
		}
		return p.links[i].b < p.links[j].b
	})
	p.nodeIdx = make(map[graph.NodeID]int, len(p.nodes))
	for i := range p.nodes {
		p.nodeIdx[p.nodes[i].ID] = i
	}
	p.linkIdx = make(map[graph.NodeID][]int, len(p.nodes))
	for i := range p.links {
		p.linkIdx[p.links[i].a] = append(p.linkIdx[p.links[i].a], i)
		p.linkIdx[p.links[i].b] = append(p.linkIdx[p.links[i].b], i)
	}
	return p, nil
}

// joinChans concatenates two channel lists into one of exactly their
// length.
func joinChans(a, b []physChan) []physChan {
	return append(append(make([]physChan, 0, len(a)+len(b)), a...), b...)
}

// minPositive returns the smaller of two limits, treating <=0 as "no
// limit".
func minPositive(a, b float64) float64 {
	if a <= 0 {
		return b
	}
	if b <= 0 {
		return a
	}
	return math.Min(a, b)
}
