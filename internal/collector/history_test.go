package collector

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestSaveLoadHistoryRoundTrip(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 55e6)
	r.net.SetHostLoad("m-3", 0.35)
	r.clk.RunUntil(40)

	var buf bytes.Buffer
	if err := r.col.SaveHistory(&buf); err != nil {
		t.Fatal(err)
	}
	rp, err := LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Topology survives.
	topo, err := rp.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live, _ := r.col.TopologyCtx(context.Background())
	if topo.Graph.NumNodes() != live.Graph.NumNodes() || topo.Graph.NumLinks() != live.Graph.NumLinks() {
		t.Fatal("topology changed in the dump")
	}

	// Measurements answer identically.
	k := keyFor(t, live, "timberline", "whiteface")
	want, _ := r.col.UtilizationCtx(context.Background(), k, 20)
	got, err := rp.UtilizationCtx(context.Background(), k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Median-want.Median) > 1e-9 || got.Samples != want.Samples {
		t.Fatalf("replayed util %v vs live %v", got, want)
	}
	samples, err := rp.SamplesCtx(context.Background(), k)
	if err != nil || len(samples) == 0 {
		t.Fatalf("samples: %d, %v", len(samples), err)
	}
	ld, err := rp.HostLoadCtx(context.Background(), "m-3", 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ld.Median-0.35) > 1e-9 {
		t.Fatalf("replayed load = %v", ld)
	}

	// Unknown keys error like the live collector.
	if _, err := rp.UtilizationCtx(context.Background(), ChannelKey{Global: 999}, 5); err == nil {
		t.Fatal("bogus channel succeeded")
	}
	if _, err := rp.HostLoadCtx(context.Background(), "aspen", 5); err == nil {
		t.Fatal("router load succeeded")
	}
}

func TestSaveHistoryBeforeDiscoveryFails(t *testing.T) {
	r := newRig(t, 2)
	var buf bytes.Buffer
	if err := r.col.SaveHistory(&buf); err == nil {
		t.Fatal("saved without a topology")
	}
}

func TestLoadHistoryRejectsGarbage(t *testing.T) {
	if _, err := LoadHistory(strings.NewReader("not a history file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadHistory(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}

	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.RunUntil(20)
	topo, _ := r.col.TopologyCtx(context.Background())
	k := keyFor(t, topo, "timberline", "whiteface")

	// Non-finite samples and times are garbage too: a history file goes
	// through the same constructor as a feed payload.
	for name, poison := range map[string]stats.Sample{
		"NaN value":  {Time: 1e6, Value: math.NaN()},
		"-Inf value": {Time: 1e6, Value: math.Inf(-1)},
		"+Inf time":  {Time: math.Inf(1), Value: 1},
	} {
		p := r.col.st.Payload()
		p.Channels[k] = append(p.Channels[k], poison)
		file := appendStateFile(nil, historyMagic, historyVersion, func(b []byte) []byte { return AppendFeedPayload(b, p) })
		if _, err := LoadHistory(bytes.NewReader(file)); err == nil {
			t.Fatalf("history with a %s sample accepted", name)
		}
	}

	// A history file from before the header — a bare gob Full payload —
	// is refused with an error that names the format it wants.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(r.col.st.Payload()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory(&old); err == nil || !strings.Contains(err.Error(), "want a REMOS-HIST v1 header") {
		t.Fatalf("headerless gob history: err = %v, want one naming the REMOS-HIST format", err)
	}
}

// A Modeler over a Replay answers availability queries offline.
func TestModelerOverReplay(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	traffic.Blast(r.net, "m-6", "m-8", 60e6)
	r.clk.RunUntil(30)
	var buf bytes.Buffer
	if err := r.col.SaveHistory(&buf); err != nil {
		t.Fatal(err)
	}
	rp, err := LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The Replay implements Source; the core package can't be imported
	// here (cycle-free layering: collector below core), so just check
	// the Source contract directly.
	var src Source = rp
	topo, err := src.TopologyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(t, topo, "timberline", "whiteface")
	st, err := src.UtilizationCtx(context.Background(), k, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Median-60e6) > 1e4 {
		t.Fatalf("offline utilization = %v", st)
	}
}
