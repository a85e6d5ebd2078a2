// Package cluster implements node selection for network-aware
// applications (§7.2): given Remos-measured bandwidth and latency between
// a pool of candidate hosts, pick a well-connected subset to run on.
//
// The paper uses a greedy heuristic — start from an application-provided
// node, repeatedly add the candidate closest to the current cluster —
// because the exact problem is NP-hard (equivalent to k-clique). Both
// the greedy heuristic and an exhaustive optimal search (feasible at
// testbed sizes, used to evaluate the heuristic) are provided.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Metric converts (bandwidth, latency) into a scalar distance:
//
//	d = BandwidthWeight/bw + LatencyWeight*latency
//
// On the paper's testbed "the distance is based only on bandwidth since
// latency between any pair of nodes is virtually the same" — that is
// Metric{BandwidthWeight: 1}.
type Metric struct {
	BandwidthWeight float64
	LatencyWeight   float64
}

// TestbedMetric is bandwidth-dominant with a small latency term that
// breaks ties toward fewer hops, reproducing the paper's Figure 4
// selection exactly: at 100 Mbps the bandwidth term is 1e-8 per pair,
// congestion penalties are ~1e-7, and the latency term contributes
// ~0.5e-8 per hop — big enough to order equal-bandwidth candidates,
// too small to override a congested link.
func TestbedMetric() Metric { return Metric{BandwidthWeight: 1, LatencyWeight: 1e-5} }

// Distance computes the scalar distance for one pair.
func (m Metric) Distance(bw, latency float64) float64 {
	d := 0.0
	if m.BandwidthWeight > 0 {
		if bw <= 0 {
			return math.Inf(1)
		}
		d += m.BandwidthWeight / bw
	}
	d += m.LatencyWeight * latency
	return d
}

// DistanceMatrix combines bandwidth and latency matrices into distances.
// Diagonal entries are zero.
func DistanceMatrix(bw, lat [][]float64, m Metric) [][]float64 {
	n := len(bw)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == j {
				continue
			}
			l := 0.0
			if lat != nil {
				l = lat[i][j]
			}
			out[i][j] = m.Distance(bw[i][j], l)
		}
	}
	return out
}

// Result is a selected node set with its communication score.
type Result struct {
	// Nodes is the selected subset, in selection order for Greedy and
	// sorted order for Optimal.
	Nodes []graph.NodeID

	// Score is the mean pairwise distance within the cluster; lower is
	// better. This is the "measure of the expected communication
	// performance" returned to the adaptation module (§7.3).
	Score float64
}

// Score computes the mean pairwise distance among the given indices.
// A single-node cluster scores 0.
func Score(dist [][]float64, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	var sum float64
	var pairs int
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			// Use the worse of the two directions: synchronous exchange
			// is limited by the slower one.
			d := math.Max(dist[idx[a]][idx[b]], dist[idx[b]][idx[a]])
			sum += d
			pairs++
		}
	}
	return sum / float64(pairs)
}

func indexOf(nodes []graph.NodeID, id graph.NodeID) int {
	for i, n := range nodes {
		if n == id {
			return i
		}
	}
	return -1
}

func validate(nodes []graph.NodeID, dist [][]float64, start graph.NodeID, k int) (int, error) {
	if k < 1 || k > len(nodes) {
		return 0, fmt.Errorf("cluster: k=%d out of range for %d candidates", k, len(nodes))
	}
	if len(dist) != len(nodes) {
		return 0, fmt.Errorf("cluster: distance matrix is %d×?, want %d", len(dist), len(nodes))
	}
	for i := range dist {
		if len(dist[i]) != len(nodes) {
			return 0, fmt.Errorf("cluster: distance row %d has %d entries, want %d", i, len(dist[i]), len(nodes))
		}
	}
	s := indexOf(nodes, start)
	if s < 0 {
		return 0, fmt.Errorf("cluster: start node %q not among candidates", start)
	}
	return s, nil
}

// Greedy runs the paper's heuristic: seed with start, then repeatedly add
// the candidate with the smallest total distance to the nodes already in
// the cluster, until k nodes are selected. Ties break toward the earlier
// candidate, making the result deterministic.
func Greedy(nodes []graph.NodeID, dist [][]float64, start graph.NodeID, k int) (Result, error) {
	s, err := validate(nodes, dist, start, k)
	if err != nil {
		return Result{}, err
	}
	selected := []int{s}
	in := make([]bool, len(nodes))
	in[s] = true
	for len(selected) < k {
		best := -1
		bestD := math.Inf(1)
		for cand := range nodes {
			if in[cand] {
				continue
			}
			var d float64
			for _, m := range selected {
				// Symmetric worst-direction distance, as in Score.
				d += math.Max(dist[m][cand], dist[cand][m])
			}
			if d < bestD {
				bestD, best = d, cand
			}
		}
		if best < 0 || math.IsInf(bestD, 1) {
			return Result{}, fmt.Errorf("cluster: only %d of %d nodes reachable from %q", len(selected), k, start)
		}
		selected = append(selected, best)
		in[best] = true
	}
	res := Result{Score: Score(dist, selected)}
	for _, i := range selected {
		res.Nodes = append(res.Nodes, nodes[i])
	}
	return res, nil
}

// Optimal exhaustively searches all k-subsets containing start and
// returns the one with the lowest Score. Exponential in len(nodes);
// intended for evaluating the heuristic at testbed scale.
//
//reach:keep the exhaustive reference TestOptimalNeverWorseThanGreedy holds Greedy against
func Optimal(nodes []graph.NodeID, dist [][]float64, start graph.NodeID, k int) (Result, error) {
	s, err := validate(nodes, dist, start, k)
	if err != nil {
		return Result{}, err
	}
	var best []int
	bestScore := math.Inf(1)
	subset := make([]int, 0, k)
	var rec func(next int)
	rec = func(next int) {
		if len(subset) == k {
			sc := Score(dist, subset)
			if sc < bestScore {
				bestScore = sc
				best = append(best[:0], subset...)
			}
			return
		}
		need := k - len(subset)
		for i := next; i <= len(nodes)-need; i++ {
			if i == s {
				continue // start is always included
			}
			subset = append(subset, i)
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	subset = append(subset, s)
	rec(0)
	if best == nil {
		return Result{}, fmt.Errorf("cluster: no feasible %d-subset", k)
	}
	if math.IsInf(bestScore, 1) {
		return Result{}, fmt.Errorf("cluster: best %d-subset is disconnected", k)
	}
	sort.Ints(best)
	res := Result{Score: bestScore}
	for _, i := range best {
		res.Nodes = append(res.Nodes, nodes[i])
	}
	return res, nil
}

// FromModeler runs greedy selection on live Remos measurements: the
// §7.3 sequence remos_get_graph -> distance matrix -> clustering, in one
// call. pool lists candidate hosts; tf selects the measurement timeframe.
func FromModeler(m *core.Modeler, pool []graph.NodeID, start graph.NodeID, k int, metric Metric, tf core.Timeframe) (Result, error) {
	bw, err := m.BandwidthMatrix(pool, tf)
	if err != nil {
		return Result{}, err
	}
	var lat [][]float64
	if metric.LatencyWeight > 0 {
		lat, err = m.LatencyMatrix(pool)
		if err != nil {
			return Result{}, err
		}
	}
	dist := DistanceMatrix(bw, lat, metric)
	return Greedy(pool, dist, start, k)
}
