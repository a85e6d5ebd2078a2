package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/traffic"
	"repro/remos"
)

const (
	fig3    = "fig3"    // the paper's Figure 3 testbed: 8 hosts, 3 routers
	hier300 = "hier300" // topogen hier N=300 Seed=11 Regions=1: 264 hosts

	// historySeconds of virtual time are polled during set-up: 150 poll
	// rounds at the testbed's 2 s period, so every window a TFHistory(10)
	// query reads is full.
	historySeconds = 300
	pollPeriod     = 2
	querySpan      = 10
)

// daemonDefaults are the admission and lifecycle settings of
// cmd/remos-collector's flag defaults, so admission is on the path as
// deployed.
func daemonDefaults() collector.ServerConfig {
	return collector.ServerConfig{
		IdleTimeout:   2 * time.Minute,
		MaxConns:      256,
		MaxInflight:   64,
		QueueDepth:    128,
		DefaultBudget: 2 * time.Second,
	}
}

// fixture is one system under test: a simulated deployment with a full
// measurement history and a TCP query endpoint on the host loopback.
type fixture struct {
	kind    string
	tb      *remos.Testbed
	srv     *collector.Server
	addr    string
	serving *core.Modeler    // the Modeler behind the endpoint's matrix op
	served  *recordingSource // serving-side span recorder; nil when untraced
	hosts   []graph.NodeID
	keys    []collector.ChannelKey
}

// newFixture builds the deployment, polls historySeconds of history and
// starts the endpoint. With a tracer and decorate set, the served source
// is wrapped in a recordingSource and the matrix handler in a span; the
// serving Modeler then also gets a telemetry registry, whose sample
// counts are how the benchmark checks which workloads reach core.
func newFixture(kind string, tr *tracer, decorate bool) (*fixture, error) {
	fx := &fixture{kind: kind}
	var err error
	switch kind {
	case fig3:
		fx.tb, err = remos.NewTestbed()
	case hier300:
		var tp *topogen.Topology
		tp, err = topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
		if err == nil {
			fx.tb, err = remos.NewTestbedOn(tp.Graph)
		}
	default:
		err = fmt.Errorf("unknown fixture %q", kind)
	}
	if err != nil {
		return nil, err
	}
	fx.hosts = fx.tb.Hosts()
	sort.Slice(fx.hosts, func(i, j int) bool { return fx.hosts[i] < fx.hosts[j] })
	fx.backgroundTraffic()
	fx.tb.Run(historySeconds)

	topo, err := fx.tb.Collector.Topology()
	if err != nil {
		return nil, err
	}
	for _, l := range topo.Graph.Links() {
		fx.keys = append(fx.keys, topo.Key(l, graph.AtoB), topo.Key(l, graph.BtoA))
	}
	sort.Slice(fx.keys, func(i, j int) bool {
		if fx.keys[i].Global != fx.keys[j].Global {
			return fx.keys[i].Global < fx.keys[j].Global
		}
		return fx.keys[i].Dir < fx.keys[j].Dir
	})

	var src collector.Source = fx.tb.Collector
	mcfg := core.Config{}
	if tr != nil && decorate {
		fx.served = &recordingSource{inner: src, prefix: "collector.", tr: tr}
		src = fx.served
		mcfg.Telemetry = telemetry.NewRegistry()
	}
	mcfg.Source = src
	fx.serving = core.New(mcfg)
	cfg := daemonDefaults()
	cfg.Matrix = core.MatrixHandler(fx.serving)
	if tr != nil && decorate {
		inner := cfg.Matrix
		cfg.Matrix = func(ctx context.Context, req *collector.MatrixRequest) (*collector.MatrixAnswer, error) {
			ctx, end := tr.begin(ctx, "core.MatrixHandler")
			defer end()
			return inner(ctx, req)
		}
	}
	fx.srv, err = collector.ServeConfig(src, "127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	fx.addr = fx.srv.Addr()
	return fx, nil
}

// backgroundTraffic starts bursty cross traffic so the windows hold
// varying samples and a wrong-key or wrong-window answer cannot pass the
// oracle by every channel reading the same idle value. It is part of the
// fixture, not of the seeded inputs: every seed queries the same network.
func (fx *fixture) backgroundTraffic() {
	n := len(fx.hosts)
	pairs := 3
	if fx.kind == hier300 {
		pairs = 12
	}
	for i := 0; i < pairs; i++ {
		src, dst := fx.hosts[(i*5)%n], fx.hosts[(i*5+n/2)%n]
		traffic.OnOff(fx.tb.Network, src, dst, traffic.OnOffConfig{
			Rate: float64(20+10*(i%3)) * 1e6, MeanOn: 6, MeanOff: 4, Seed: int64(100 + i),
		})
	}
}

// advance runs one poll period: every agent is polled and the collector
// publishes a new data version.
func (fx *fixture) advance() { fx.tb.Run(pollPeriod) }

func (fx *fixture) version() uint64 {
	v, _ := fx.tb.Collector.DataVersion()
	return v
}

func (fx *fixture) close() {
	if fx.srv != nil {
		fx.srv.Close()
	}
	fx.tb.Collector.Stop()
}
