package experiments

import (
	"math"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/traffic"
)

// TestFigure2Architecture exercises the deployment of the paper's
// Figure 2: two applications (one with an in-process Modeler, one whose
// Modeler reaches the Collector over the TCP service), an SNMP-based
// Collector, and a benchmark-based collector (the Prober) — all serving
// consistent answers about the same network.
func TestFigure2Architecture(t *testing.T) {
	t.Parallel()
	e := NewEnv()
	traffic.Blast(e.Net, "m-6", "m-8", 60e6)
	e.Clk.Advance(30)

	// Application 1: in-process Modeler (already wired by Env).
	app1, err := e.Mod.AvailableBandwidth("m-4", "m-7", core.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}

	// Application 2: Modeler over the TCP query service.
	srv, err := collector.ServeConfig(e.Col, "127.0.0.1:0", collector.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := collector.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mod2 := core.New(core.Config{Source: cli})
	app2, err := mod2.AvailableBandwidth("m-4", "m-7", core.TFHistory(20))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(app1.Median-app2.Median) > 1e-9 {
		t.Fatalf("in-process (%v) and TCP (%v) Modelers disagree", app1.Median, app2.Median)
	}
	if math.Abs(app1.Median-40e6) > 1e5 {
		t.Fatalf("availability = %v, want ~40 Mbps", app1.Median)
	}

	// Collector flavor 2: benchmark probes measure the same condition
	// actively (Figure 2's second collector), within probe noise.
	pr := probe.New(e.Net)
	pr.ProbeBytes = 2e5
	pr.StartPeriodic("m-4", "m-7", 1.0)
	e.Clk.Advance(12)
	probed := pr.Bandwidth("m-4", "m-7", 100)
	if !probed.Valid() {
		t.Fatal("prober produced no data")
	}
	if math.Abs(probed.Median-40e6) > 2e6 {
		t.Fatalf("probe-based estimate = %v, SNMP-based = %v", probed.Median, app1.Median)
	}
}
