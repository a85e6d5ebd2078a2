package snmp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netsim"
)

// DefaultCommunity is the community string the simulated testbed uses.
const DefaultCommunity = "public"

// AttachedAgents is the set of agents instrumenting a simulated network:
// one per node (routers expose the interfaces table; hosts additionally
// expose a CPU load gauge). Addresses are "snmp://<node-id>".
type AttachedAgents struct {
	Registry *InProcRegistry
	Agents   map[graph.NodeID]*Agent
}

// Addr returns the registry address of a node's agent.
func Addr(id graph.NodeID) string { return "snmp://" + string(id) }

// Attach instruments every node of the simulated network with an SNMP
// agent. Interface indices are 1-based in the order of graph.LinksAt
// (link-ID order), matching how real agents number ifTable rows.
//
// Counter semantics: a router interface's ifInOctets counts octets
// arriving from the attached neighbor (neighbor->node channel);
// ifOutOctets counts octets departing toward it. Counters wrap at 2^32
// octets like real Counter32s — the collector must handle wraparound.
func Attach(n *netsim.Network, community string) *AttachedAgents {
	g := n.Graph()
	out := &AttachedAgents{
		Registry: NewInProcRegistry(),
		Agents:   make(map[graph.NodeID]*Agent),
	}
	for _, id := range g.Nodes() {
		node := g.Node(id)
		a := NewAgent(string(id), community)
		mib := a.MIB
		mib.Set(OIDSysName, OctetString(string(id)))
		mib.Set(OIDSysDescr, OctetString(fmt.Sprintf("remos-sim %s node", node.Kind)))
		clk := n.Clock()
		mib.SetFunc(OIDSysUpTime, func() Value {
			return TimeTicks(uint64(float64(clk.Now()) * 100))
		})
		kind := int64(0)
		if node.Kind == graph.Network {
			kind = 1
		}
		mib.Set(OIDRemosNodeKind, Integer(kind))
		mib.Set(OIDRemosInternalBW, Gauge32(uint64(node.InternalBW)))

		links := g.LinksAt(id)
		mib.Set(OIDIfNumber, Integer(int64(len(links))))
		for i, l := range links {
			idx := uint32(i + 1)
			neighbor, _ := l.Other(id)
			inCh := graph.Channel{Link: l.ID, Dir: l.DirFrom(neighbor)} // toward this node
			outCh := graph.Channel{Link: l.ID, Dir: l.DirFrom(id)}      // away from this node
			mib.Set(OIDIfIndex.Append(idx), Integer(int64(idx)))
			mib.Set(OIDIfDescr.Append(idx), OctetString(fmt.Sprintf("eth%d to %s", idx, neighbor)))
			// Dynamic: the simulator can degrade links at runtime.
			link := l
			mib.SetFunc(OIDIfSpeed.Append(idx), func() Value {
				return Gauge32(uint64(link.Capacity))
			})
			inBits, outBits := n.ChannelCounter(inCh), n.ChannelCounter(outCh)
			mib.SetFunc(OIDIfInOctets.Append(idx), func() Value {
				return Counter32(uint64(inBits() / 8))
			})
			mib.SetFunc(OIDIfOutOctets.Append(idx), func() Value {
				return Counter32(uint64(outBits() / 8))
			})
			mib.Set(OIDRemosNeighbor.Append(idx), OctetString(string(neighbor)))
			mib.Set(OIDRemosLinkID.Append(idx), Integer(int64(l.ID)))
		}
		if node.Kind == graph.Compute {
			hid := id
			mib.SetFunc(OIDHrProcessorLoad, func() Value {
				return Integer(int64(n.HostLoad(hid) * 100))
			})
			if node.MemoryBytes > 0 {
				mib.Set(OIDHrMemorySize, Integer(int64(node.MemoryBytes/1024)))
			}
		}
		out.Agents[id] = a
		out.Registry.Register(Addr(id), a)
	}
	return out
}
