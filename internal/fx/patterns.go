package fx

import (
	"repro/internal/graph"
	"repro/internal/netsim"
)

// Collective-communication patterns as flow-set builders. These are the
// building blocks programs compose in Step.Comm; they model the volume
// and endpoints of each collective, while contention and timing come
// from the simulator.

// AllToAll exchanges bytesPerPair between every ordered pair of distinct
// nodes — the FFT transpose and Airshed redistribution pattern.
func AllToAll(bytesPerPair float64) func(nodes []graph.NodeID) []netsim.FlowSpec {
	return func(nodes []graph.NodeID) []netsim.FlowSpec {
		var out []netsim.FlowSpec
		for _, src := range nodes {
			for _, dst := range nodes {
				if src != dst {
					out = append(out, netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytesPerPair})
				}
			}
		}
		return out
	}
}

// AllToAllTotal exchanges a fixed total volume regardless of node count:
// each of the P(P-1) ordered pairs carries total/P² bytes, the volume
// profile of transposing a fixed-size matrix.
func AllToAllTotal(totalBytes float64) func(nodes []graph.NodeID) []netsim.FlowSpec {
	return func(nodes []graph.NodeID) []netsim.FlowSpec {
		p := float64(len(nodes))
		if p < 2 {
			return nil
		}
		return AllToAll(totalBytes / (p * p))(nodes)
	}
}

// Broadcast sends bytes from the first node to every other node.
func Broadcast(bytes float64) func(nodes []graph.NodeID) []netsim.FlowSpec {
	return func(nodes []graph.NodeID) []netsim.FlowSpec {
		if len(nodes) < 2 {
			return nil
		}
		root := nodes[0]
		var out []netsim.FlowSpec
		for _, dst := range nodes[1:] {
			out = append(out, netsim.FlowSpec{Src: root, Dst: dst, Bytes: bytes})
		}
		return out
	}
}

// Gather sends bytes from every non-root node to the first node.
func Gather(bytes float64) func(nodes []graph.NodeID) []netsim.FlowSpec {
	return func(nodes []graph.NodeID) []netsim.FlowSpec {
		if len(nodes) < 2 {
			return nil
		}
		root := nodes[0]
		var out []netsim.FlowSpec
		for _, src := range nodes[1:] {
			out = append(out, netsim.FlowSpec{Src: src, Dst: root, Bytes: bytes})
		}
		return out
	}
}

// Ring exchanges bytes between cyclic neighbors (boundary exchange).
func Ring(bytes float64) func(nodes []graph.NodeID) []netsim.FlowSpec {
	return func(nodes []graph.NodeID) []netsim.FlowSpec {
		if len(nodes) < 2 {
			return nil
		}
		var out []netsim.FlowSpec
		for i := range nodes {
			j := (i + 1) % len(nodes)
			out = append(out,
				netsim.FlowSpec{Src: nodes[i], Dst: nodes[j], Bytes: bytes},
				netsim.FlowSpec{Src: nodes[j], Dst: nodes[i], Bytes: bytes},
			)
		}
		return out
	}
}
