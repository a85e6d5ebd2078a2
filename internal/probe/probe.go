// Package probe is the active-measurement substrate behind the paper's
// second Collector flavor: "a Collector that uses benchmarks to probe
// networks that do not respond to our SNMP queries (e.g. wide-area
// networks run by commercial ISPs)".
//
// A Prober injects real transfers into the simulated network and measures
// them, so — exactly like a benchmark on a physical network — the probes
// themselves perturb the system and their results reflect competing
// traffic.
//
//reach:keep the benchmark-probing Collector of PAPER.md's Fig. 2, which its tests alone exercise
package probe

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Owner tags probe flows in the simulator.
const Owner = "probe"

// Result is one probe measurement.
type Result struct {
	Src, Dst  graph.NodeID
	When      simclock.Time
	Bandwidth float64 // bits/s achieved by the probe transfer
	RTT       float64 // seconds
}

// Prober issues timed transfers and RTT pings between host pairs.
type Prober struct {
	n *netsim.Network

	// ProbeBytes is the transfer size per bandwidth probe. Large probes
	// measure better but disturb more; 1 MB is the default.
	ProbeBytes float64

	windows map[[2]graph.NodeID]*pairWindows
	tickers []*simclock.Ticker
}

type pairWindows struct {
	bw  *stats.Window
	rtt *stats.Window
}

// New creates a prober over a simulated network.
func New(n *netsim.Network) *Prober {
	return &Prober{
		n:          n,
		ProbeBytes: 1e6,
		windows:    make(map[[2]graph.NodeID]*pairWindows),
	}
}

// RTT returns the round-trip latency between two hosts (twice the one-way
// path latency; the paper's collector assumes fixed per-hop delay, so no
// transfer is needed).
func (p *Prober) RTT(src, dst graph.NodeID) float64 {
	return 2 * p.n.PathLatency(src, dst)
}

// ProbeOnce starts a bandwidth probe and delivers the Result when the
// transfer finishes. The probe is an elastic flow, so its achieved rate
// is the max-min share available between src and dst right now — the
// same thing iperf measures.
func (p *Prober) ProbeOnce(src, dst graph.NodeID, done func(Result)) {
	start := p.n.Clock().Now()
	p.n.StartFlow(netsim.FlowSpec{
		Src: src, Dst: dst, Bytes: p.ProbeBytes, Owner: Owner,
		OnComplete: func(now simclock.Time, f *netsim.Flow) {
			elapsed := float64(now - start)
			if elapsed <= 0 {
				elapsed = 1e-9
			}
			r := Result{
				Src: src, Dst: dst, When: now,
				Bandwidth: p.ProbeBytes * 8 / elapsed,
				RTT:       p.RTT(src, dst),
			}
			p.record(r)
			if done != nil {
				done(r)
			}
		},
	})
}

func (p *Prober) record(r Result) {
	key := [2]graph.NodeID{r.Src, r.Dst}
	w := p.windows[key]
	if w == nil {
		w = &pairWindows{
			bw:  stats.NewWindow(128, 0),
			rtt: stats.NewWindow(128, 0),
		}
		p.windows[key] = w
	}
	// Probes complete in order per pair, so Add cannot fail; a failure
	// indicates a simulator bug and must surface.
	if err := w.bw.Add(float64(r.When), r.Bandwidth); err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
	if err := w.rtt.Add(float64(r.When), r.RTT); err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
}

// StartPeriodic probes the pair every period seconds until StopAll.
func (p *Prober) StartPeriodic(src, dst graph.NodeID, period float64) {
	clk := p.n.Clock()
	t := clk.NewTicker(clk.Now()+simclock.Time(period), period,
		fmt.Sprintf("probe %s->%s", src, dst),
		func(now simclock.Time) { p.ProbeOnce(src, dst, nil) })
	p.tickers = append(p.tickers, t)
}

// StopAll halts periodic probing.
func (p *Prober) StopAll() {
	for _, t := range p.tickers {
		t.Stop()
	}
	p.tickers = nil
}

// Bandwidth summarizes measured bandwidth for a pair over the last span
// seconds (stats.NoData if never probed).
func (p *Prober) Bandwidth(src, dst graph.NodeID, span float64) stats.Stat {
	w := p.windows[[2]graph.NodeID{src, dst}]
	if w == nil {
		return stats.NoData()
	}
	return w.bw.Summary(span)
}

// RTTStat summarizes measured RTT for a pair.
func (p *Prober) RTTStat(src, dst graph.NodeID, span float64) stats.Stat {
	w := p.windows[[2]graph.NodeID{src, dst}]
	if w == nil {
		return stats.NoData()
	}
	return w.rtt.Summary(span)
}

// Samples returns the raw bandwidth samples for a pair (for predictors).
func (p *Prober) Samples(src, dst graph.NodeID) []stats.Sample {
	w := p.windows[[2]graph.NodeID{src, dst}]
	if w == nil {
		return nil
	}
	return w.bw.Samples()
}
