// Package traffic generates the synthetic competing load of §8.2/§8.3:
// "a synthetic program that generates communication traffic between nodes
// m-6 and m-8". Generators are deterministic (seeded PRNG) processes on
// the simulation clock that start and stop flows in the netsim.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// Owner is the flow-owner tag attached to generated traffic, so that
// measurement consumers can distinguish it from application flows.
const Owner = "traffic"

// Generator is a running traffic source that can be stopped.
type Generator interface {
	// Stop halts the generator and removes any live flows it owns.
	Stop()
	// Describe returns a human-readable summary for experiment logs.
	Describe() string
}

// CBR starts a constant-bit-rate flow from src to dst at rate bits/s,
// running until stopped. This is the paper's interfering load: a steady
// stream that occupies a known share of every link on its route.
func CBR(n *netsim.Network, src, dst graph.NodeID, rate float64) Generator {
	f := n.StartFlow(netsim.FlowSpec{Src: src, Dst: dst, RateCap: rate, Owner: Owner})
	return &cbr{n: n, flow: f, src: src, dst: dst, rate: rate}
}

type cbr struct {
	n        *netsim.Network
	flow     *netsim.Flow
	src, dst graph.NodeID
	rate     float64
	stopped  bool
}

func (c *cbr) Stop() {
	if !c.stopped {
		c.n.StopFlow(c.flow.ID)
		c.stopped = true
	}
}

func (c *cbr) Describe() string {
	return fmt.Sprintf("CBR %s->%s @ %.1f Mbps", c.src, c.dst, c.rate/1e6)
}

// Blast starts a non-responsive constant-rate flow (a UDP blaster): it
// claims its full rate before elastic traffic shares the remainder. This
// is the shape of the paper's §8.2 interfering load — heavy synthetic
// traffic that does not back off.
func Blast(n *netsim.Network, src, dst graph.NodeID, rate float64) Generator {
	f := n.StartFlow(netsim.FlowSpec{Src: src, Dst: dst, RateCap: rate, Priority: true, Owner: Owner})
	return &cbr{n: n, flow: f, src: src, dst: dst, rate: rate}
}

// OnOffConfig parameterizes an on-off (bursty) source.
type OnOffConfig struct {
	Rate    float64 // sending rate while on, bits/s
	MeanOn  float64 // mean on-period, seconds (exponential)
	MeanOff float64 // mean off-period, seconds (exponential)
	Seed    int64
}

// OnOff starts a bursty source alternating exponentially-distributed on
// and off periods — the "bursty traffic" the paper cites as the reason
// quartiles beat variance (§4.4).
func OnOff(n *netsim.Network, src, dst graph.NodeID, cfg OnOffConfig) Generator {
	if cfg.Rate <= 0 || cfg.MeanOn <= 0 || cfg.MeanOff <= 0 {
		panic("traffic: OnOff requires positive rate and periods")
	}
	g := &onOff{
		n: n, src: src, dst: dst, cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.scheduleOn(n.Clock().Now())
	return g
}

type onOff struct {
	n        *netsim.Network
	src, dst graph.NodeID
	cfg      OnOffConfig
	rng      *rand.Rand
	flow     *netsim.Flow
	stopped  bool
	bursts   int
}

func (g *onOff) exp(mean float64) float64 { return g.rng.ExpFloat64() * mean }

func (g *onOff) scheduleOn(now simclock.Time) {
	g.n.Clock().Schedule(now+simclock.Time(g.exp(g.cfg.MeanOff)), "onoff-on", func(t simclock.Time) {
		if g.stopped {
			return
		}
		g.bursts++
		g.flow = g.n.StartFlow(netsim.FlowSpec{Src: g.src, Dst: g.dst, RateCap: g.cfg.Rate, Owner: Owner})
		g.n.Clock().After(g.exp(g.cfg.MeanOn), "onoff-off", func(simclock.Time) {
			if g.flow != nil {
				g.n.StopFlow(g.flow.ID)
				g.flow = nil
			}
			if !g.stopped {
				g.scheduleOn(g.n.Clock().Now())
			}
		})
	})
}

func (g *onOff) Stop() {
	g.stopped = true
	if g.flow != nil {
		g.n.StopFlow(g.flow.ID)
		g.flow = nil
	}
}

func (g *onOff) Describe() string {
	return fmt.Sprintf("OnOff %s->%s @ %.1f Mbps (on %.1fs / off %.1fs)",
		g.src, g.dst, g.cfg.Rate/1e6, g.cfg.MeanOn, g.cfg.MeanOff)
}

// PoissonTransfersConfig parameterizes a Poisson arrival process of
// finite transfers with bounded-Pareto-ish sizes.
type PoissonTransfersConfig struct {
	MeanInterarrival float64 // seconds
	MinBytes         float64
	MaxBytes         float64
	Alpha            float64 // Pareto shape; 1.2 is heavy-tailed
	Seed             int64
}

// PoissonTransfers launches finite elastic transfers at Poisson times
// with heavy-tailed sizes: workstation-cluster background load.
func PoissonTransfers(n *netsim.Network, src, dst graph.NodeID, cfg PoissonTransfersConfig) Generator {
	if cfg.MeanInterarrival <= 0 || cfg.MinBytes <= 0 || cfg.MaxBytes < cfg.MinBytes {
		panic("traffic: bad PoissonTransfers config")
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1.2
	}
	g := &poisson{n: n, src: src, dst: dst, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.scheduleNext(n.Clock().Now())
	return g
}

type poisson struct {
	n        *netsim.Network
	src, dst graph.NodeID
	cfg      PoissonTransfersConfig
	rng      *rand.Rand
	live     map[netsim.FlowID]bool
	stopped  bool
	launched int
}

func (g *poisson) size() float64 {
	// Bounded Pareto via inverse transform.
	a := g.cfg.Alpha
	l, h := g.cfg.MinBytes, g.cfg.MaxBytes
	u := g.rng.Float64()
	x := math.Pow(math.Pow(l, -a)-u*(math.Pow(l, -a)-math.Pow(h, -a)), -1/a)
	return x
}

func (g *poisson) scheduleNext(now simclock.Time) {
	g.n.Clock().Schedule(now+simclock.Time(g.rng.ExpFloat64()*g.cfg.MeanInterarrival), "poisson-xfer", func(t simclock.Time) {
		if g.stopped {
			return
		}
		g.launched++
		if g.live == nil {
			g.live = make(map[netsim.FlowID]bool)
		}
		var id netsim.FlowID
		f := g.n.StartFlow(netsim.FlowSpec{
			Src: g.src, Dst: g.dst, Bytes: g.size(), Owner: Owner,
			OnComplete: func(simclock.Time, *netsim.Flow) { delete(g.live, id) },
		})
		id = f.ID
		g.live[id] = true
		g.scheduleNext(t)
	})
}

func (g *poisson) Stop() {
	g.stopped = true
	for id := range g.live {
		g.n.StopFlow(id)
	}
	g.live = nil
}

func (g *poisson) Describe() string {
	return fmt.Sprintf("Poisson %s->%s (1/%.1fs, %.0f-%.0f bytes)",
		g.src, g.dst, g.cfg.MeanInterarrival, g.cfg.MinBytes, g.cfg.MaxBytes)
}

// Scenario is a named bundle of generators: one traffic pattern of
// Tables 2 and 3.
type Scenario struct {
	Name string
	gens []Generator
}

// NewScenario creates an empty scenario.
func NewScenario(name string) *Scenario { return &Scenario{Name: name} }

// Add registers a generator with the scenario.
func (s *Scenario) Add(g Generator) *Scenario {
	s.gens = append(s.gens, g)
	return s
}
