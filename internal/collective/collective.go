// Package collective implements Remos-driven optimization of group
// communication — the paper's §2 "Optimization of communication" usage
// model: "if an application relies heavily on broadcasts, some subnets
// may be better platforms than others", and Remos can be used "to
// optimize primitives in a communication library by customizing the
// implementation of group communication operations for a particular
// network".
//
// A collective operation is compiled into a Schedule: a sequence of
// rounds, each a set of point-to-point transfers that run concurrently;
// rounds run back to back. Three broadcast strategies are provided:
//
//   - Flat: the root sends to every participant directly (what a naive
//     library does). All copies leave the root's access link and cross
//     any shared backbone once per receiver.
//   - Binomial: the classic topology-oblivious binomial tree: informed
//     nodes recruit the rest in ceil(log2 P) rounds.
//   - TopologyAware: a maximum-bottleneck spanning tree built from
//     Remos bandwidth measurements, so each slow link is crossed exactly
//     once and fan-out happens behind it.
package collective

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// Round is a set of transfers that run concurrently.
type Round []netsim.FlowSpec

// Schedule is a compiled collective operation.
type Schedule struct {
	Name   string
	Op     string // "broadcast"
	Root   graph.NodeID
	Rounds []Round
}

// TotalBytes sums the payload bytes moved by the schedule.
func (s *Schedule) TotalBytes() float64 {
	var sum float64
	for _, r := range s.Rounds {
		for _, f := range r {
			sum += f.Bytes
		}
	}
	return sum
}

// Receivers returns every distinct destination (diagnostic; for a
// broadcast this must equal the non-root participants).
func (s *Schedule) Receivers() map[graph.NodeID]int {
	out := make(map[graph.NodeID]int)
	for _, r := range s.Rounds {
		for _, f := range r {
			out[f.Dst]++
		}
	}
	return out
}

func validate(root graph.NodeID, nodes []graph.NodeID, bytes float64) error {
	if bytes <= 0 {
		return fmt.Errorf("collective: non-positive payload %v", bytes)
	}
	found := false
	seen := make(map[graph.NodeID]bool)
	for _, n := range nodes {
		if seen[n] {
			return fmt.Errorf("collective: duplicate participant %q", n)
		}
		seen[n] = true
		if n == root {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("collective: root %q not among participants", root)
	}
	return nil
}

// Flat builds the naive one-round broadcast: root sends to everyone.
func Flat(root graph.NodeID, nodes []graph.NodeID, bytes float64) (*Schedule, error) {
	if err := validate(root, nodes, bytes); err != nil {
		return nil, err
	}
	var round Round
	for _, n := range nodes {
		if n != root {
			round = append(round, netsim.FlowSpec{Src: root, Dst: n, Bytes: bytes})
		}
	}
	s := &Schedule{Name: "flat", Op: "broadcast", Root: root}
	if len(round) > 0 {
		s.Rounds = append(s.Rounds, round)
	}
	return s, nil
}

// Binomial builds the topology-oblivious binomial-tree broadcast: in
// each round every informed node sends to one uninformed node, doubling
// the informed set, in participant order.
func Binomial(root graph.NodeID, nodes []graph.NodeID, bytes float64) (*Schedule, error) {
	if err := validate(root, nodes, bytes); err != nil {
		return nil, err
	}
	informed := []graph.NodeID{root}
	var rest []graph.NodeID
	for _, n := range nodes {
		if n != root {
			rest = append(rest, n)
		}
	}
	s := &Schedule{Name: "binomial", Op: "broadcast", Root: root}
	for len(rest) > 0 {
		var round Round
		var newly []graph.NodeID
		for _, sender := range informed {
			if len(rest) == 0 {
				break
			}
			dst := rest[0]
			rest = rest[1:]
			round = append(round, netsim.FlowSpec{Src: sender, Dst: dst, Bytes: bytes})
			newly = append(newly, dst)
		}
		informed = append(informed, newly...)
		s.Rounds = append(s.Rounds, round)
	}
	return s, nil
}

// Tree is a rooted spanning tree over participants.
type Tree struct {
	Root     graph.NodeID
	Children map[graph.NodeID][]graph.NodeID
	Parent   map[graph.NodeID]graph.NodeID
}

// MaxBottleneckTree builds a spanning tree over the participants that
// maximizes the bottleneck bandwidth of every root-to-leaf path (Prim on
// negated widest-path weights), using a pairwise bandwidth matrix.
func MaxBottleneckTree(root graph.NodeID, nodes []graph.NodeID, bw [][]float64) (*Tree, error) {
	idx := make(map[graph.NodeID]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	ri, ok := idx[root]
	if !ok {
		return nil, fmt.Errorf("collective: root %q not among participants", root)
	}
	t := &Tree{
		Root:     root,
		Children: make(map[graph.NodeID][]graph.NodeID),
		Parent:   make(map[graph.NodeID]graph.NodeID),
	}
	inTree := make([]bool, len(nodes))
	inTree[ri] = true
	// width[i] = best bottleneck from the tree to node i; via[i] = the
	// tree node achieving it.
	width := make([]float64, len(nodes))
	via := make([]int, len(nodes))
	for i := range nodes {
		if i != ri {
			width[i] = math.Min(bw[ri][i], bw[i][ri])
			via[i] = ri
		}
	}
	for added := 1; added < len(nodes); added++ {
		best, bestW := -1, -1.0
		for i := range nodes {
			if !inTree[i] && width[i] > bestW {
				best, bestW = i, width[i]
			}
		}
		if best < 0 || bestW <= 0 {
			return nil, fmt.Errorf("collective: participants not fully connected")
		}
		inTree[best] = true
		parent := nodes[via[best]]
		t.Parent[nodes[best]] = parent
		t.Children[parent] = append(t.Children[parent], nodes[best])
		for i := range nodes {
			if !inTree[i] {
				w := math.Min(bw[best][i], bw[i][best])
				if w > width[i] {
					width[i] = w
					via[i] = best
				}
			}
		}
	}
	return t, nil
}

// subtreeSize counts nodes under (and including) n.
func (t *Tree) subtreeSize(n graph.NodeID) int {
	size := 1
	for _, c := range t.Children[n] {
		size += t.subtreeSize(c)
	}
	return size
}

// BroadcastSchedule compiles the tree into rounds: each informed node
// sends to one child per round, largest subtree first (the classical
// ordering that minimizes completion rounds).
func (t *Tree) BroadcastSchedule(name string, bytes float64) *Schedule {
	// Per-node child queues, ordered by descending subtree size.
	queues := make(map[graph.NodeID][]graph.NodeID)
	for n, cs := range t.Children {
		q := append([]graph.NodeID(nil), cs...)
		sort.SliceStable(q, func(i, j int) bool {
			return t.subtreeSize(q[i]) > t.subtreeSize(q[j])
		})
		queues[n] = q
	}
	s := &Schedule{Name: name, Op: "broadcast", Root: t.Root}
	informed := []graph.NodeID{t.Root}
	for {
		var round Round
		var newly []graph.NodeID
		for _, sender := range informed {
			q := queues[sender]
			if len(q) == 0 {
				continue
			}
			dst := q[0]
			queues[sender] = q[1:]
			round = append(round, netsim.FlowSpec{Src: sender, Dst: dst, Bytes: bytes})
			newly = append(newly, dst)
		}
		if len(round) == 0 {
			break
		}
		s.Rounds = append(s.Rounds, round)
		informed = append(informed, newly...)
	}
	return s
}

// TopologyAware builds a broadcast schedule from live Remos
// measurements: bandwidth matrix -> max-bottleneck tree -> round
// schedule.
func TopologyAware(m *core.Modeler, root graph.NodeID, nodes []graph.NodeID, bytes float64, tf core.Timeframe) (*Schedule, error) {
	if err := validate(root, nodes, bytes); err != nil {
		return nil, err
	}
	bw, err := m.BandwidthMatrix(nodes, tf)
	if err != nil {
		return nil, err
	}
	t, err := MaxBottleneckTree(root, nodes, bw)
	if err != nil {
		return nil, err
	}
	return t.BroadcastSchedule("topology-aware", bytes), nil
}

// Execute runs the schedule's rounds back to back on the simulator and
// calls done at the completion time of the last round.
func Execute(n *netsim.Network, s *Schedule, owner string, done func(now simclock.Time)) {
	var runRound func(now simclock.Time, i int)
	runRound = func(now simclock.Time, i int) {
		if i >= len(s.Rounds) {
			if done != nil {
				done(now)
			}
			return
		}
		n.TransferGroup(s.Rounds[i], owner, func(t simclock.Time) { runRound(t, i+1) })
	}
	runRound(n.Clock().Now(), 0)
}

// Measure executes the schedule and drives the clock to completion,
// returning the elapsed virtual seconds. Other scheduled activity
// (traffic, collectors) keeps running meanwhile.
func Measure(n *netsim.Network, s *Schedule, owner string) float64 {
	start := n.Clock().Now()
	var end simclock.Time
	finished := false
	Execute(n, s, owner, func(now simclock.Time) {
		end = now
		finished = true
	})
	clk := n.Clock()
	deadline := start + simclock.Time(365*24*3600)
	for !finished {
		if !clk.Step() {
			panic(fmt.Sprintf("collective: schedule %q never completed", s.Name))
		}
		if clk.Now() > deadline {
			panic(fmt.Sprintf("collective: schedule %q starved", s.Name))
		}
	}
	return float64(end - start)
}
