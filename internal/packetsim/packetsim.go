// Package packetsim is a small packet-level network simulator used to
// validate the fluid-flow model in internal/netsim — the load-bearing
// substitution of this reproduction (DESIGN.md): the claim that a
// packet-switched network with fair queueing shares bottleneck
// bandwidth max-min fairly, so a fluid model that computes max-min
// allocations directly reproduces the same rates.
//
// The model: store-and-forward links, each running a two-level
// scheduler — strict priority for non-responsive sources (the netsim
// Priority class), then deficit round robin (DRR) with per-flow queues
// and weight-proportional quanta for everyone else. Sources are greedy
// (always backlogged, elastic), CBR (paced injection), or finite
// transfers. Tests in this package drive identical scenarios through
// packetsim and through maxmin/netsim and assert the rates agree to
// within a few percent.
//
//reach:keep the packet-level reference the experiments cross-model tests validate the fluid netsim against
package packetsim

import (
	"fmt"

	"repro/internal/simclock"
)

// Link is one transmission resource with per-flow queues.
type Link struct {
	Name     string
	Capacity float64 // bits per second

	queues   map[*Flow][]*packet
	deficit  map[*Flow]float64
	rr       []*Flow // round-robin order (flows that ever enqueued)
	rrPos    int
	fresh    bool // rrPos just moved onto a new queue (grant due)
	busy     bool
	quantumB float64 // base quantum in bytes
}

// NewLink creates a link. quantumBytes is the DRR base quantum (per unit
// of flow weight); it should be at least one packet.
func NewLink(name string, capacity, quantumBytes float64) *Link {
	if capacity <= 0 || quantumBytes <= 0 {
		panic(fmt.Sprintf("packetsim: bad link %s cap=%v quantum=%v", name, capacity, quantumBytes))
	}
	return &Link{
		Name:     name,
		Capacity: capacity,
		queues:   make(map[*Flow][]*packet),
		deficit:  make(map[*Flow]float64),
		quantumB: quantumBytes,
	}
}

// SourceKind selects a flow's traffic source model.
type SourceKind int

const (
	// Greedy is always backlogged: an elastic bulk transfer.
	Greedy SourceKind = iota
	// CBR injects packets at a fixed rate.
	CBR
	// Finite injects a fixed number of bytes as fast as the first hop
	// accepts them, then stops.
	Finite
)

// Flow is one end-to-end packet stream.
type Flow struct {
	ID     int
	Path   []*Link
	Kind   SourceKind
	Weight float64 // DRR share weight (default 1)

	// Rate is the injection rate for CBR flows (bits/second).
	Rate float64

	// Priority marks the flow for the strict-priority class, like
	// netsim's non-responsive blasters. Only meaningful with CBR.
	Priority bool

	// TotalBytes is the Finite transfer size.
	TotalBytes float64

	// PacketBytes is the packet size (default 1500).
	PacketBytes float64

	delivered float64 // bytes that completed the last hop
	injected  float64
	window    int // greedy in-flight limit at the first hop
}

// Delivered returns bytes delivered end to end.
func (f *Flow) Delivered() float64 { return f.delivered }

type packet struct {
	flow  *Flow
	bytes float64
	hop   int
}

// Network runs flows over links on a simulation clock.
type Network struct {
	clock *simclock.Clock
	flows []*Flow
	links map[*Link]bool
}

// New creates a packet network on the given clock.
func New(clock *simclock.Clock) *Network {
	return &Network{clock: clock, links: make(map[*Link]bool)}
}

// AddFlow registers and starts a flow.
func (n *Network) AddFlow(f *Flow) *Flow {
	if len(f.Path) == 0 {
		panic("packetsim: flow without a path")
	}
	if f.Weight <= 0 {
		f.Weight = 1
	}
	if f.PacketBytes <= 0 {
		f.PacketBytes = 1500
	}
	if f.window == 0 {
		f.window = 8
	}
	if f.Priority && f.Kind != CBR {
		panic("packetsim: priority requires a CBR source")
	}
	f.ID = len(n.flows)
	n.flows = append(n.flows, f)
	for _, l := range f.Path {
		n.links[l] = true
	}
	switch f.Kind {
	case Greedy, Finite:
		n.refillGreedy(f)
	case CBR:
		n.scheduleCBR(f)
	}
	return f
}

// refillGreedy tops the first-hop queue up to the window.
func (n *Network) refillGreedy(f *Flow) {
	first := f.Path[0]
	for len(first.queues[f]) < f.window {
		if f.Kind == Finite && f.injected >= f.TotalBytes {
			return
		}
		size := f.PacketBytes
		if f.Kind == Finite && f.injected+size > f.TotalBytes {
			size = f.TotalBytes - f.injected
		}
		f.injected += size
		n.enqueue(first, &packet{flow: f, bytes: size, hop: 0})
	}
}

func (n *Network) scheduleCBR(f *Flow) {
	interval := f.PacketBytes * 8 / f.Rate
	n.clock.NewTicker(n.clock.Now()+simclock.Time(interval), interval,
		fmt.Sprintf("cbr-flow-%d", f.ID), func(simclock.Time) {
			f.injected += f.PacketBytes
			n.enqueue(f.Path[0], &packet{flow: f, bytes: f.PacketBytes, hop: 0})
		})
}

func (n *Network) enqueue(l *Link, p *packet) {
	if _, seen := l.queues[p.flow]; !seen {
		l.rr = append(l.rr, p.flow)
		l.deficit[p.flow] = 0
	}
	l.queues[p.flow] = append(l.queues[p.flow], p)
	if !l.busy {
		n.transmitNext(l)
	}
}

// pick selects the next packet under strict-priority-then-DRR.
func (l *Link) pick() *packet {
	// Strict priority class first, FIFO among priority flows.
	for _, f := range l.rr {
		if f.Priority && len(l.queues[f]) > 0 {
			return l.queues[f][0]
		}
	}
	// DRR over non-priority flows. A queue's turn starts when the
	// round-robin pointer moves onto it (one quantum granted, scaled by
	// weight) and lasts while its deficit affords packets; the deficit
	// resets when the queue drains, per the classic algorithm.
	active := 0
	for _, f := range l.rr {
		if !f.Priority && len(l.queues[f]) > 0 {
			active++
		}
	}
	if active == 0 {
		return nil
	}
	const maxScans = 1 << 20 // tiny quantum×weight would otherwise spin
	for scans := 0; scans < maxScans; scans++ {
		f := l.rr[l.rrPos%len(l.rr)]
		q := l.queues[f]
		if f.Priority || len(q) == 0 {
			if len(q) == 0 {
				l.deficit[f] = 0
			}
			l.rrPos++
			l.fresh = true
			continue
		}
		if l.fresh {
			l.deficit[f] += l.quantumB * f.Weight
			l.fresh = false
		}
		if l.deficit[f] >= q[0].bytes {
			return q[0] // stay on this queue: its turn continues
		}
		l.rrPos++
		l.fresh = true
	}
	panic(fmt.Sprintf("packetsim: link %s scheduler starved (quantum %v too small?)", l.Name, l.quantumB))
}

func (n *Network) transmitNext(l *Link) {
	p := l.pick()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	if !p.flow.Priority {
		l.deficit[p.flow] -= p.bytes
	}
	// Dequeue.
	q := l.queues[p.flow]
	l.queues[p.flow] = q[1:]
	dur := p.bytes * 8 / l.Capacity
	n.clock.After(dur, "pkt-tx:"+l.Name, func(simclock.Time) {
		n.packetDone(l, p)
	})
}

func (n *Network) packetDone(l *Link, p *packet) {
	p.hop++
	if p.hop < len(p.flow.Path) {
		n.enqueue(p.flow.Path[p.hop], p)
	} else {
		p.flow.delivered += p.bytes
		if p.flow.Kind == Greedy || p.flow.Kind == Finite {
			n.refillGreedy(p.flow)
		}
	}
	n.transmitNext(l)
}

// MeasureRates runs the simulation for `warmup` seconds, then measures
// each flow's delivery rate (bits/s) over the next `window` seconds.
func (n *Network) MeasureRates(warmup, window float64) []float64 {
	n.clock.Advance(warmup)
	start := make([]float64, len(n.flows))
	for i, f := range n.flows {
		start[i] = f.delivered
	}
	n.clock.Advance(window)
	out := make([]float64, len(n.flows))
	for i, f := range n.flows {
		out[i] = (f.delivered - start[i]) * 8 / window
	}
	return out
}
