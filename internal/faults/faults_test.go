package faults

import (
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topology"
)

func newRig(t *testing.T) (*simclock.Clock, *snmp.Client, *Injector) {
	t.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, topology.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	att := snmp.Attach(n, snmp.DefaultCommunity)
	inj := New(att.Registry, clk, 1)
	return clk, snmp.NewClient(inj, snmp.DefaultCommunity), inj
}

func TestBlackholeWindow(t *testing.T) {
	clk, c, inj := newRig(t)
	addr := snmp.Addr("aspen")
	inj.Blackhole(addr, 5, 10)

	get := func() error {
		_, err := c.Get(addr, snmp.OIDSysName)
		return err
	}
	if err := get(); err != nil {
		t.Fatalf("before window: %v", err)
	}
	clk.Advance(5)
	if err := get(); !errors.Is(err, ErrInjected) {
		t.Fatalf("inside window: %v", err)
	}
	clk.Advance(4)
	if err := get(); !errors.Is(err, ErrInjected) {
		t.Fatalf("end of window: %v", err)
	}
	clk.Advance(1) // t=10: the window is half-open, [5, 10)
	if err := get(); err != nil {
		t.Fatalf("after window: %v", err)
	}
	ctr := inj.CountersFor(addr)
	if ctr.Blackholed != 2 || ctr.Delivered != 2 || ctr.Attempts != 4 {
		t.Fatalf("counters = %+v", ctr)
	}
	// Other agents are untouched.
	if _, err := c.Get(snmp.Addr("m-1"), snmp.OIDSysName); err != nil {
		t.Fatal(err)
	}
}

func TestFlapAndRestore(t *testing.T) {
	clk, c, inj := newRig(t)
	addr := snmp.Addr("m-2")
	inj.FlapAt(addr, 2, 3) // down in [2, 5)
	inj.Blackhole(addr, 20, 0)

	clk.Advance(3)
	if _, err := c.Get(addr, snmp.OIDSysName); !errors.Is(err, ErrInjected) {
		t.Fatal("flap window not applied")
	}
	clk.Advance(3)
	if _, err := c.Get(addr, snmp.OIDSysName); err != nil {
		t.Fatalf("between windows: %v", err)
	}
	clk.Advance(100)
	if _, err := c.Get(addr, snmp.OIDSysName); !errors.Is(err, ErrInjected) {
		t.Fatal("open-ended blackhole not applied")
	}
	inj.Restore(addr)
	if _, err := c.Get(addr, snmp.OIDSysName); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if got, want := inj.CountersFor(addr), (Counters{Attempts: 4, Delivered: 2, Blackholed: 2}); got != want {
		t.Fatalf("counters across Restore = %+v, want %+v", got, want)
	}
}

func TestProbabilisticLossIsSeededAndDeterministic(t *testing.T) {
	run := func() []bool {
		_, c, inj := newRig(t)
		addr := snmp.Addr("m-3")
		inj.Loss(addr, 0.4)
		out := make([]bool, 50)
		for i := range out {
			_, err := c.Get(addr, snmp.OIDSysName)
			out[i] = err == nil
		}
		return out
	}
	a, b := run(), run()
	lost := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at request %d", i)
		}
		if !a[i] {
			lost++
		}
	}
	if lost < 10 || lost > 35 {
		t.Fatalf("lost %d/50 at p=0.4", lost)
	}
}

func TestLatencyBeyondBudgetTimesOut(t *testing.T) {
	_, c, inj := newRig(t)
	addr := snmp.Addr("m-4")
	inj.Latency(addr, 0.1) // under the 0.5 s budget: invisible
	if _, err := c.Get(addr, snmp.OIDSysName); err != nil {
		t.Fatalf("sub-budget latency failed: %v", err)
	}
	inj.Latency(addr, 0.5)
	if _, err := c.Get(addr, snmp.OIDSysName); !errors.Is(err, ErrInjected) {
		t.Fatal("late response not failed")
	}
	inj.SetTimeout(1.0)
	if _, err := c.Get(addr, snmp.OIDSysName); err != nil {
		t.Fatalf("after raising budget: %v", err)
	}
	if ctr := inj.CountersFor(addr); ctr.TimedOut != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestCorruptionIsDeterministicAndDetected(t *testing.T) {
	// A flipped byte may land in payload (undetectable without checksums,
	// as in real SNMPv1) or in framing/IDs (rejected by the client). The
	// injector guarantees every response is touched and that the outcome
	// pattern replays exactly under the same seed.
	run := func() []bool {
		_, c, inj := newRig(t)
		addr := snmp.Addr("m-5")
		inj.Corrupt(addr, 1)
		out := make([]bool, 20)
		for i := range out {
			_, err := c.Get(addr, snmp.OIDSysName)
			out[i] = err != nil
		}
		if ctr := inj.CountersFor(addr); ctr.Corrupted != 20 {
			t.Fatalf("counters = %+v", ctr)
		}
		return out
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption outcome diverged at request %d", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no corrupted response was rejected")
	}
}
