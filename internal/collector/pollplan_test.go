package collector

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/snmp"
	"repro/internal/stats"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func (r *rig) requests() uint64 {
	var n uint64
	for _, a := range r.att.Agents {
		n += a.Requests()
	}
	return n
}

// roundRequests advances one poll period and returns how many SNMP
// requests the agents served in it.
func (r *rig) roundRequests() uint64 {
	before := r.requests()
	r.clk.Advance(2)
	return r.requests() - before
}

func planOf(c *Collector, id graph.NodeID) *pollPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.agents {
		if c.agents[i].id == id {
			return c.agents[i].plan
		}
	}
	return nil
}

// TestPollRoundOneRequestPerAgent: a steady-state round costs one GET
// per agent, whatever the agent's interface count; a collector restored
// from a checkpoint has no plans, so its first round walks and its
// second does not.
func TestPollRoundOneRequestPerAgent(t *testing.T) {
	hier, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"fig3": topology.Testbed(), "hier300": hier.Graph} {
		r := newRigOn(t, g, 2)
		if err := r.col.Start(); err != nil {
			t.Fatal(err)
		}
		agents := uint64(len(r.att.Agents))
		for round := 0; round < 3; round++ {
			if got := r.roundRequests(); got != agents {
				t.Fatalf("%s: round %d cost %d requests for %d agents", name, round, got, agents)
			}
		}
		if errs := r.col.PollErrors(); errs != 0 {
			t.Fatalf("%s: %d poll errors", name, errs)
		}

		var ckpt bytes.Buffer
		if err := r.col.SaveCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		r.col.Stop()
		warm := New(r.col.cfg)
		if _, err := warm.RestoreCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if err := warm.Start(); err != nil {
			t.Fatal(err)
		}
		if got := r.roundRequests(); got <= agents {
			t.Fatalf("%s: first round after restore cost %d requests: no walk", name, got)
		}
		if got := r.roundRequests(); got != agents {
			t.Fatalf("%s: second round after restore cost %d requests for %d agents", name, got, agents)
		}
		if got, want := warm.Polls(), r.col.Polls()+2; got != want {
			t.Fatalf("%s: restored collector at %d polls, want %d", name, got, want)
		}
		warm.Stop()
	}
}

// TestTransportFailureKeepsThePlan: a failure that says nothing about
// the interface table (here: the agent is unreachable) is one failed
// attempt and leaves the plan alone — the recovery probe is one GET.
func TestTransportFailureKeepsThePlan(t *testing.T) {
	r := newRig(t, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(4)
	plan := planOf(r.col, "aspen")
	r.att.Registry.Register(snmp.Addr("aspen"), nil) // RoundTrip: no agent
	r.clk.Advance(2)
	h, _ := r.col.HealthOf("aspen")
	if h.ConsecutiveFailures != 1 || h.State != Degraded {
		t.Fatalf("health after an unreachable round: %+v", h)
	}
	if planOf(r.col, "aspen") != plan {
		t.Fatal("a transport failure replaced or dropped the plan")
	}
	r.att.Registry.Register(snmp.Addr("aspen"), r.att.Agents["aspen"])
	before := r.att.Agents["aspen"].Requests()
	r.clk.Advance(2) // backoff is one poll period
	if got := r.att.Agents["aspen"].Requests() - before; got != 1 {
		t.Fatalf("recovery cost %d requests, want 1", got)
	}
	if h, _ := r.col.HealthOf("aspen"); h.State != Healthy {
		t.Fatalf("health after recovery: %+v", h)
	}
}

// twinRigs returns two collectors over one simulated network and clock:
// ref polls the attached agents directly, and the returned rig's
// collector polls through tr(registry). Both read the same counters at
// the same instants, so whatever either records must be bit-identical.
func twinRigs(t *testing.T, tr func(snmp.Transport) snmp.Transport) (r *rig, ref *Collector) {
	t.Helper()
	r = newRig(t, 2)
	traffic.Blast(r.net, "m-1", "m-7", 30e6)
	traffic.Blast(r.net, "m-6", "m-2", 55e6)
	r.net.SetHostLoad("m-5", 0.25)
	ref = r.col
	cfg := ref.cfg
	cfg.Client = snmp.NewClient(tr(r.att.Registry), snmp.DefaultCommunity)
	r.col = New(cfg)
	for _, c := range []*Collector{ref, r.col} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
	}
	return r, ref
}

// sameRecords asserts col holds, for every channel and host it knows,
// exactly the samples ref holds at the same timestamps: nothing was
// attributed to a wrong channel. col may hold fewer (rounds it missed).
func sameRecords(t *testing.T, col, ref *Collector) {
	t.Helper()
	col.mu.Lock()
	defer col.mu.Unlock()
	ref.mu.Lock()
	defer ref.mu.Unlock()
	made := func(ws []stats.Window) (n int) {
		for i := range ws {
			if ws[i].Made() {
				n++
			}
		}
		return n
	}
	if made(col.st.channels) != made(ref.st.channels) || made(col.st.loads) != made(ref.st.loads) {
		t.Fatalf("%d channels %d hosts, reference %d and %d",
			made(col.st.channels), made(col.st.loads), made(ref.st.channels), made(ref.st.loads))
	}
	byTime := func(w *stats.Window) map[float64]float64 {
		m := make(map[float64]float64)
		for _, s := range w.Samples() {
			m[s.Time] = s.Value
		}
		return m
	}
	for s := range col.st.channels {
		if w := &col.st.channels[s]; w.Made() {
			k := col.st.topo.chans[s]
			want := byTime(ref.st.channel(k))
			for tm, v := range byTime(w) {
				if wv, ok := want[tm]; !ok || wv != v {
					t.Fatalf("channel %v at t=%v: %v, reference %v (present %v)", k, tm, v, wv, ok)
				}
			}
		}
	}
	for s := range col.st.loads {
		if w := &col.st.loads[s]; w.Made() {
			id := col.st.topo.nodes[s]
			rs, _ := ref.st.topo.nodeSlotOf(id)
			want := byTime(&ref.st.loads[rs])
			for tm, v := range byTime(w) {
				if wv, ok := want[tm]; !ok || wv != v {
					t.Fatalf("host %v at t=%v: %v, reference %v (present %v)", id, tm, v, wv, ok)
				}
			}
		}
	}
}

// TestRemovedInterfaceRewalksWithinTheRound: an interface that vanishes
// from an agent's table between discoveries makes the plan's GET answer
// NoSuchName; the same round re-walks the agent and polls the new plan.
// The agent stays Healthy, and no sample lands on a wrong channel.
func TestRemovedInterfaceRewalksWithinTheRound(t *testing.T) {
	r, ref := twinRigs(t, func(tr snmp.Transport) snmp.Transport {
		// A registry of its own, so the reference keeps the full agent.
		reg := snmp.NewInProcRegistry()
		return &lazyRegistry{reg: reg, fallback: tr}
	})
	reg := r.col.cfg.Client.Transport.(*lazyRegistry).reg
	r.clk.Advance(6)

	// timberline without its last interface: every other entry passes
	// through to the live agent.
	full := r.att.Agents["timberline"]
	oldPlan := planOf(r.col, "timberline")
	last := uint32(len(oldPlan.keys) / 2)
	all, err := snmp.NewClient(r.att.Registry, snmp.DefaultCommunity).Walk(snmp.Addr("timberline"), snmp.OID{1})
	if err != nil {
		t.Fatal(err)
	}
	cut := snmp.NewAgent("timberline", snmp.DefaultCommunity)
	for _, vb := range all {
		perIface := vb.OID.HasPrefix(snmp.MustOID("1.3.6.1.2.1.2.2.1")) || vb.OID.HasPrefix(snmp.OIDRemosNeighbor) || vb.OID.HasPrefix(snmp.OIDRemosLinkID)
		if perIface && vb.OID[len(vb.OID)-1] == last {
			continue
		}
		oid := vb.OID
		cut.MIB.SetFunc(oid, func() snmp.Value { v, _ := full.MIB.Get(oid); return v })
	}
	reg.Register(snmp.Addr("timberline"), cut)

	errsBefore := r.col.PollErrors()
	r.clk.Advance(2)
	newPlan := planOf(r.col, "timberline")
	if newPlan == nil || newPlan == oldPlan || len(newPlan.keys) != len(oldPlan.keys)-2 {
		t.Fatalf("plan after the interface went away: %+v (was %d keys)", newPlan, len(oldPlan.keys))
	}
	if got := cut.Requests(); got < 3 {
		t.Fatalf("the round asked the changed agent %d times: no walk", got)
	}
	h, _ := r.col.HealthOf("timberline")
	if h.State != Healthy || h.ConsecutiveFailures != 0 || r.col.PollErrors() != errsBefore {
		t.Fatalf("a successful re-walk was recorded as a failure: %+v, %d poll errors", h, r.col.PollErrors()-errsBefore)
	}
	before := cut.Requests()
	r.clk.Advance(2)
	if got := cut.Requests() - before; got != 1 {
		t.Fatalf("the round after the re-walk cost %d requests, want 1", got)
	}
	// The far end of the removed interface still reports its channels.
	sameRecords(t, r.col, ref)
	refTopo, _ := ref.TopologyCtx(context.Background())
	for _, l := range refTopo.Graph.Links() {
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			want, _ := ref.SamplesCtx(context.Background(), refTopo.Key(l, d))
			got, _ := r.col.SamplesCtx(context.Background(), refTopo.Key(l, d))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("link %s--%s %v: %d samples, reference %d", l.A, l.B, d, len(got), len(want))
			}
		}
	}
}

// lazyRegistry serves the agents registered on reg and falls back to
// another transport for the rest.
type lazyRegistry struct {
	reg      *snmp.InProcRegistry
	fallback snmp.Transport
}

func (l *lazyRegistry) RoundTrip(addr string, req []byte) ([]byte, error) {
	if resp, err := l.reg.RoundTrip(addr, req); err == nil {
		return resp, nil
	}
	return l.fallback.RoundTrip(addr, req)
}

// getRewriter rewrites the responses to one agent's GET requests while
// armed: an agent that misbehaves, or a datagram that was corrupted and
// still decodes.
type getRewriter struct {
	inner  snmp.Transport
	target string

	mu      sync.Mutex
	rewrite func(resp *snmp.Message)
}

func (g *getRewriter) arm(fn func(*snmp.Message)) {
	g.mu.Lock()
	g.rewrite = fn
	g.mu.Unlock()
}

func (g *getRewriter) RoundTrip(addr string, req []byte) ([]byte, error) {
	raw, err := g.inner.RoundTrip(addr, req)
	g.mu.Lock()
	rewrite := g.rewrite
	g.mu.Unlock()
	if err != nil || rewrite == nil || addr != g.target {
		return raw, err
	}
	if m, derr := snmp.Decode(req); derr != nil || m.Type != snmp.PDUGet {
		return raw, err
	}
	resp, err := snmp.Decode(raw)
	if err != nil {
		return nil, err
	}
	rewrite(resp)
	return snmp.Encode(resp)
}

// TestMisshapenGetResponsesAreFailedAttempts: a GET answer with too few
// or too many varbinds, the right ones in another order, another OID, or
// another value type is one failed attempt for that agent — never a
// panic, never a sample on a wrong channel. A misshapen answer drops the
// plan (the walk in the same round fails the same way here, so the
// agent is walked again once it behaves); a wrong value type keeps it.
func TestMisshapenGetResponsesAreFailedAttempts(t *testing.T) {
	cases := []struct {
		name      string
		rewrite   func(*snmp.Message)
		keepsPlan bool
	}{
		{"short", func(m *snmp.Message) { m.VarBinds = m.VarBinds[:len(m.VarBinds)-1] }, false},
		{"empty", func(m *snmp.Message) { m.VarBinds = nil }, false},
		{"long", func(m *snmp.Message) { m.VarBinds = append(m.VarBinds, m.VarBinds[0]) }, false},
		{"reordered", func(m *snmp.Message) { m.VarBinds[0], m.VarBinds[1] = m.VarBinds[1], m.VarBinds[0] }, false},
		{"wrong OID", func(m *snmp.Message) { m.VarBinds[0].OID = snmp.OIDSysUpTime }, false},
		{"wrong type", func(m *snmp.Message) { m.VarBinds[0].Value = snmp.Integer(7) }, true},
	}
	for _, tc := range cases {
		var rw *getRewriter
		r, ref := twinRigs(t, func(tr snmp.Transport) snmp.Transport {
			rw = &getRewriter{inner: tr, target: snmp.Addr("aspen")}
			return rw
		})
		r.clk.Advance(6)
		plan := planOf(r.col, "aspen")

		rw.arm(tc.rewrite)
		r.clk.Advance(2)
		rw.arm(nil)
		h, _ := r.col.HealthOf("aspen")
		if h.ConsecutiveFailures != 1 || h.State != Degraded {
			t.Fatalf("%s: health after the bad round: %+v", tc.name, h)
		}
		if got := planOf(r.col, "aspen"); tc.keepsPlan != (got == plan) || (!tc.keepsPlan && got != nil) {
			t.Fatalf("%s: plan after the bad round: %p (was %p)", tc.name, got, plan)
		}
		sameRecords(t, r.col, ref)

		r.clk.Advance(6)
		if h, _ := r.col.HealthOf("aspen"); h.State != Healthy {
			t.Fatalf("%s: health after the agent behaved again: %+v", tc.name, h)
		}
		if planOf(r.col, "aspen") == nil {
			t.Fatalf("%s: no plan after recovery", tc.name)
		}
		sameRecords(t, r.col, ref)
		// aspen's links were covered by their far ends during the bad
		// round: no channel missed a sample.
		refTopo, _ := ref.TopologyCtx(context.Background())
		for _, l := range refTopo.Graph.Links() {
			k := refTopo.Key(l, graph.AtoB)
			want, _ := ref.SamplesCtx(context.Background(), k)
			if got, _ := r.col.SamplesCtx(context.Background(), k); len(got) != len(want) {
				t.Fatalf("%s: link %s--%s has %d samples, reference %d", tc.name, l.A, l.B, len(got), len(want))
			}
		}
	}
}

// TestPlanLargerThanOneMessage: an agent with more counters than one
// SNMP message carries (600 interfaces, 1,200 OIDs against 1,024) is
// polled with two GETs a round, stays Healthy, and every counter lands
// on its own channel on both sides of the split.
func TestPlanLargerThanOneMessage(t *testing.T) {
	const hosts = 600
	host := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("h-%03d", i)) }
	g := graph.New()
	g.AddRouter("a-hub", 0) // sorts first: its readings are the ones kept
	for i := 0; i < hosts; i++ {
		g.AddNode(graph.Node{ID: host(i), Kind: graph.Compute, ComputePower: 1})
		g.AddLink(host(i), "a-hub", 100*topology.Mbps, topology.PerHopLatency)
	}
	r := newRigOn(t, g, 2)
	// One flow whose uplink counter is in the hub's second GET and whose
	// downlink counter is in the first.
	traffic.Blast(r.net, host(hosts-1), host(3), 40e6)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.col.Stop()
	if n := len(planOf(r.col, "a-hub").oids); n != 2*hosts {
		t.Fatalf("hub plan has %d OIDs, want %d", n, 2*hosts)
	}
	hub := r.att.Agents["a-hub"]
	for round := 0; round < 5; round++ {
		before := hub.Requests()
		r.clk.Advance(2)
		if got := hub.Requests() - before; got != 2 {
			t.Fatalf("round %d asked the hub %d times, want 2", round, got)
		}
	}
	if h, _ := r.col.HealthOf("a-hub"); h.State != Healthy || r.col.PollErrors() != 0 {
		t.Fatalf("hub health %+v, %d poll errors", h, r.col.PollErrors())
	}
	topo, _ := r.col.TopologyCtx(context.Background())
	busy := map[ChannelKey]bool{
		keyFor(t, topo, host(hosts-1), "a-hub"): true,
		keyFor(t, topo, "a-hub", host(3)):       true,
	}
	for _, l := range topo.Graph.Links() {
		for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
			k := topo.Key(l, d)
			st, err := r.col.UtilizationCtx(context.Background(), k, 8)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			if busy[k] {
				want = 40e6
			}
			if math.Abs(st.Median-want) > 1e4 {
				t.Fatalf("channel %v reads %v, want %v", k, st.Median, want)
			}
		}
	}
}

// TestPollRoundAllocBudget: a steady-state hier-300 round allocates per
// agent, not per OID: 7,070 allocations a round when each GET was
// encoded, decoded and answered OID by OID; the agents' encoded answers
// (one per agent) are most of what is left.
func TestPollRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled agent scratch on purpose")
	}
	hier, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRigOn(t, hier.Graph, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.col.Stop()
	r.clk.Advance(20) // windows and round buffers past their first growth
	allocs := testing.AllocsPerRun(20, func() { r.clk.Advance(2) })
	const want = 365 // 1.2 x the 302 measured
	if allocs > want {
		t.Fatalf("a hier-300 poll round took %.0f allocations, want <= %d", allocs, want)
	}
}

// checkedTransport passes every GET through and checks its answer
// against the request on the wire: same ID, the OIDs asked in the order
// asked, and the value the agent's MIB held before the polls began (the
// clock does not move while they run).
type checkedTransport struct {
	inner    snmp.Transport
	want     map[string]snmp.Value // addr + " " + OID
	checked  atomic.Int64
	mismatch atomic.Int64
}

func (ct *checkedTransport) RoundTrip(addr string, req []byte) ([]byte, error) {
	raw, err := ct.inner.RoundTrip(addr, req)
	if err != nil {
		return raw, err
	}
	q, qerr := snmp.Decode(req)
	a, aerr := snmp.Decode(raw)
	if qerr != nil || aerr != nil || q.Type != snmp.PDUGet {
		return raw, err
	}
	ct.checked.Add(1)
	ok := a.RequestID == q.RequestID && len(a.VarBinds) == len(q.VarBinds)
	for i := 0; ok && i < len(q.VarBinds); i++ {
		want, known := ct.want[addr+" "+q.VarBinds[i].OID.String()]
		ok = a.VarBinds[i].OID.Cmp(q.VarBinds[i].OID) == 0 && (!known || a.VarBinds[i].Value.Equal(want))
	}
	if !ok {
		ct.mismatch.Add(1)
	}
	return raw, err
}

// TestAgentConcurrentGets: two collectors sharing one client poll the
// same in-process agents at once, and two goroutines send one prepared
// GET to a UDP-served agent at once. Every answer matches its request:
// the agents' pooled decode scratch, the client's request IDs, each
// collector's round buffers and the shared prepared request are never
// crossed. Run it under -race.
func TestAgentConcurrentGets(t *testing.T) {
	r := newRig(t, 2)
	// Agents read the simulator; like the daemon, serialise them.
	var simMu sync.Mutex
	for _, a := range r.att.Agents {
		a.Serialize = func(fn func()) {
			simMu.Lock()
			defer simMu.Unlock()
			fn()
		}
	}
	traffic.Blast(r.net, "m-2", "m-4", 40e6)
	ct := &checkedTransport{inner: r.att.Registry, want: map[string]snmp.Value{}}
	r.col.cfg.Client.Transport = ct
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.col.Stop()
	r.clk.Advance(6)
	other := New(r.col.cfg)
	if _, err := other.Discover(); err != nil {
		t.Fatal(err)
	}
	for id, a := range r.att.Agents {
		for _, o := range planOf(r.col, id).oids {
			v, ok := a.MIB.Get(o)
			if !ok {
				t.Fatalf("%s has no %v", id, o)
			}
			ct.want[snmp.Addr(id)+" "+o.String()] = v
		}
	}

	const rounds = 20
	var wg sync.WaitGroup
	for _, c := range []*Collector{r.col, other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.PollOnce()
			}
		}()
	}
	wg.Wait()
	for _, c := range []*Collector{r.col, other} {
		if c.PollErrors() != 0 {
			t.Fatalf("%d poll errors", c.PollErrors())
		}
		for id := range r.att.Agents {
			if h, _ := c.HealthOf(id); h.State != Healthy {
				t.Fatalf("%s: %+v", id, h)
			}
		}
	}
	if n := ct.checked.Load(); n < 2*rounds*int64(len(r.att.Agents)) {
		t.Fatalf("%d answers checked, want at least %d", n, 2*rounds*len(r.att.Agents))
	}
	if n := ct.mismatch.Load(); n != 0 {
		t.Fatalf("%d of %d answers do not match their request", n, ct.checked.Load())
	}

	// One UDP-served agent, one prepared GET, two goroutines.
	const udpAgent = "aspen"
	srv, err := snmp.ServeUDP(r.att.Agents[udpAgent], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	oids := planOf(r.col, udpAgent).oids
	cl := snmp.NewClient(snmp.NewUDPTransport(), snmp.DefaultCommunity)
	get, err := cl.PrepareGet(oids...)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			var wire []byte
			vals := make([]snmp.Value, get.Len())
			for i := 0; i < rounds; i++ {
				if err := cl.Do(srv.Addr(), get, &wire, vals); err != nil {
					errs <- err
					return
				}
				for j, o := range oids {
					if want := ct.want[snmp.Addr(udpAgent)+" "+o.String()]; !vals[j].Equal(want) {
						errs <- fmt.Errorf("%v reads %v over UDP, want %v", o, vals[j], want)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
