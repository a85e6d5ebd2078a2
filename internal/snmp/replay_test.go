package snmp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// attachLoaded attaches agents to g with a few CBR flows running for
// seven virtual seconds, so the octet counters read non-zero.
func attachLoaded(tb testing.TB, g *graph.Graph) *AttachedAgents {
	tb.Helper()
	clk := simclock.New()
	n, err := netsim.New(clk, g)
	if err != nil {
		tb.Fatal(err)
	}
	var hosts []graph.NodeID
	for _, id := range g.Nodes() {
		if g.Node(id).Kind == graph.Compute {
			hosts = append(hosts, id)
		}
	}
	for i := 0; i < 3; i++ {
		n.StartFlow(netsim.FlowSpec{Src: hosts[i], Dst: hosts[len(hosts)-1-i], RateCap: float64(10+i) * 1e6})
	}
	clk.Advance(7)
	return Attach(n, DefaultCommunity)
}

func hier300(tb testing.TB) *graph.Graph {
	tb.Helper()
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return tp.Graph
}

// planGet encodes the GET a poll plan sends a: every interface's out
// and in octet counters, then the CPU load where a has one.
func planGet(tb testing.TB, a *Agent, id uint32) []byte {
	tb.Helper()
	ifs, ok := a.MIB.Get(OIDIfNumber)
	if !ok {
		tb.Fatalf("agent %s has no ifNumber", a.Name)
	}
	var vbs []VarBind
	for i := uint32(1); i <= uint32(ifs.Int); i++ {
		vbs = append(vbs, VarBind{OID: OIDIfOutOctets.Append(i), Value: Null()},
			VarBind{OID: OIDIfInOctets.Append(i), Value: Null()})
	}
	if _, ok := a.MIB.Get(OIDHrProcessorLoad); ok {
		vbs = append(vbs, VarBind{OID: OIDHrProcessorLoad, Value: Null()})
	}
	return encodeOrFail(tb, &Message{Community: a.Community, Type: PDUGet, RequestID: id, VarBinds: vbs})
}

func encodeOrFail(tb testing.TB, m *Message) []byte {
	tb.Helper()
	raw, err := Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// fullPath answers req as an agent with a's MIB and settings that has
// prepared nothing: the full decode, resolve and encode path.
func fullPath(a *Agent, req []byte) []byte {
	fresh := &Agent{Name: a.Name, Community: a.Community, MIB: a.MIB, Serialize: a.Serialize}
	return fresh.HandleBytes(req)
}

// checkAnswer sends req to a, which must replay it from its prepared
// answer exactly when hit, and holds the answer to the full path's.
func checkAnswer(t *testing.T, what string, a *Agent, req []byte, hit bool) {
	t.Helper()
	if p, _ := a.match(req); (p != nil) != hit {
		t.Fatalf("%s: replayed %v, want %v", what, p != nil, hit)
	}
	before := a.Requests()
	got, want := a.HandleBytes(req), fullPath(a, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: agent %s answered\n  %x\nthe full path answers\n  %x", what, a.Name, got, want)
	}
	if counted := a.Requests() - before; want != nil && counted != 1 {
		t.Fatalf("%s: %d requests counted, want 1", what, counted)
	}
}

// TestReplayedGetMatchesFullPath: an agent's answer from its prepared
// GET is byte for byte the full path's, for every agent of fig3 and
// hier-300 at one virtual instant, and every request that differs from
// the prepared one in any way the match checks takes the full path.
func TestReplayedGetMatchesFullPath(t *testing.T) {
	for _, fixture := range []struct {
		name string
		g    *graph.Graph
	}{{"fig3", topology.Testbed()}, {"hier300", hier300(t)}} {
		t.Run(fixture.name, func(t *testing.T) {
			att := attachLoaded(t, fixture.g)
			for _, a := range att.Agents {
				req := planGet(t, a, 41)
				checkAnswer(t, "first", a, req, false)
				checkAnswer(t, "second", a, req, true)
				if p := a.prep.Load(); p == nil || len(p.gets) != len(p.at) {
					t.Fatalf("agent %s prepared %+v", a.Name, p)
				}
			}
		})
	}

	a := attachLoaded(t, topology.Testbed()).Agents["timberline"]
	req := planGet(t, a, 9)
	prime := func() {
		a.HandleBytes(req)
		if p, _ := a.match(req); p == nil {
			t.Fatal("plan GET not prepared")
		}
	}
	prime()
	other := bytes.Clone(req)
	other[idOffset+len(a.Community)] ^= 0xFF // the request ID's high byte
	checkAnswer(t, "another request ID", a, other, true)

	a.MIB.SetFunc(OIDIfInOctets.Append(1), func() Value { return Counter32(42) })
	checkAnswer(t, "after SetFunc", a, req, false)
	checkAnswer(t, "after SetFunc, again", a, req, true)

	prep := a.prep.Load()
	unprepared := func(what string, req []byte) {
		t.Helper()
		checkAnswer(t, what, a, req, false)
		if a.prep.Load() != prep {
			t.Fatalf("%s: the prepared GET was replaced", what)
		}
	}
	private := planGet(t, &Agent{Name: a.Name, Community: "privat", MIB: a.MIB}, 9)
	unprepared("another community", private)
	for _, typ := range []PDUType{PDUGetNext, PDUGetBulk, PDUResponse} {
		other := bytes.Clone(req)
		other[4+len(a.Community)] = byte(typ)
		unprepared(fmt.Sprintf("PDU type %d with the same body", typ), other)
	}
	last := bytes.Clone(req)
	last[len(last)-2]++ // the last OID's last component: no such name
	unprepared("one body byte changed", last)
	short := bytes.Clone(req)
	short[headerLen+len(a.Community)-1]-- // one varbind fewer than the body holds
	unprepared("a varbind count one short", short)
	if got := a.HandleBytes(short); got != nil {
		t.Fatalf("a count mismatch answered %x", got)
	}
	noSuch := encodeOrFail(t, &Message{Community: a.Community, Type: PDUGet, RequestID: 3,
		VarBinds: []VarBind{{OID: OIDSysName, Value: Null()}, {OID: MustOID("9.9"), Value: Null()}}})
	unprepared("a NoSuchName GET", noSuch)
	unprepared("a NoSuchName GET, again", noSuch)

	// A body change that asks other OIDs prepares them instead.
	sys := encodeOrFail(t, &Message{Community: a.Community, Type: PDUGet, RequestID: 4,
		VarBinds: []VarBind{{OID: OIDSysName, Value: Null()}, {OID: OIDSysUpTime, Value: Null()}}})
	checkAnswer(t, "another GET", a, sys, false)
	checkAnswer(t, "another GET, again", a, sys, true)
	checkAnswer(t, "the plan GET after another", a, req, false)

	// A getter whose value stops encoding drops the request on both paths.
	long := false
	a.MIB.SetFunc(OIDSysDescr, func() Value {
		if long {
			return OctetString(strings.Repeat("x", maxOctets+1))
		}
		return OctetString("short")
	})
	descr := encodeOrFail(t, &Message{Community: a.Community, Type: PDUGet, RequestID: 5,
		VarBinds: []VarBind{{OID: OIDSysDescr, Value: Null()}}})
	checkAnswer(t, "a short octet string", a, descr, false)
	long = true
	checkAnswer(t, "an oversized octet string", a, descr, true)
	if got := a.HandleBytes(descr); got != nil {
		t.Fatalf("an oversized octet string answered %d bytes", len(got))
	}

	// Serialize wraps the replayed getters as it wraps the full path.
	var serialized int
	a.Serialize = func(fn func()) { serialized++; fn() }
	prime()
	serialized = 0
	checkAnswer(t, "serialized", a, req, true)
	if serialized != 2 { // the replay, then fullPath's agent
		t.Fatalf("Serialize ran %d times, want 2", serialized)
	}
}

// TestReplayedGetAllocatesOnlyTheAnswer: a replayed GET's one
// allocation is the encoded answer the caller owns.
func TestReplayedGetAllocatesOnlyTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled agent scratch on purpose")
	}
	a := attachLoaded(t, topology.Testbed()).Agents["timberline"]
	req := planGet(t, a, 1)
	a.HandleBytes(req)
	if allocs := testing.AllocsPerRun(100, func() { a.HandleBytes(req) }); allocs != 1 {
		t.Fatalf("a replayed GET took %v allocations, want 1", allocs)
	}
}

// FuzzAgentReplay: an agent primed with a poll plan's GET answers any
// request, twice over (the first may prepare it, the second replay it),
// exactly as an agent that has prepared nothing does.
func FuzzAgentReplay(f *testing.F) {
	mib := newTestAgent().MIB
	mib.Set(OIDSysDescr, OctetString("remos-sim router"))
	primer := &Agent{Name: "aspen", Community: "public", MIB: mib}
	plan := encodeOrFail(f, &Message{Community: "public", Type: PDUGet, RequestID: 1, VarBinds: []VarBind{
		{OID: OIDIfInOctets.Append(1), Value: Null()},
		{OID: OIDIfInOctets.Append(2), Value: Null()},
		{OID: OIDSysName, Value: Null()},
	}})
	f.Add(plan)
	for _, at := range []int{3, 4 + len("public"), 5 + len("public"), headerLen + len("public") - 1, len(plan) - 2} {
		b := bytes.Clone(plan)
		b[at] ^= 0x01
		f.Add(b)
	}
	f.Add(plan[:len(plan)-1])
	f.Add(append(bytes.Clone(plan), 0))
	f.Add(encodeOrFail(f, &Message{Community: "public", Type: PDUGet, RequestID: 2,
		VarBinds: []VarBind{{OID: OIDSysDescr, Value: Integer(3)}}}))
	f.Fuzz(func(t *testing.T, req []byte) {
		a := &Agent{Name: primer.Name, Community: primer.Community, MIB: mib}
		a.HandleBytes(plan)
		for try := 0; try < 2; try++ {
			if got, want := a.HandleBytes(req), fullPath(a, req); !bytes.Equal(got, want) {
				t.Fatalf("try %d: answered\n  %x\nthe full path answers\n  %x", try, got, want)
			}
		}
	})
}

// BenchmarkAgentHandleGet measures one agent answering a hier-300
// router's poll-plan GET: replayed from its prepared answer, and full,
// where the prepared answer is dropped before every call, so each call
// decodes, resolves and encodes the GET and then prepares it again.
func BenchmarkAgentHandleGet(b *testing.B) {
	att := attachLoaded(b, hier300(b))
	var a *Agent
	for _, cand := range att.Agents { // the router with the most interfaces
		if a == nil || cand.MIB.Len() > a.MIB.Len() {
			a = cand
		}
	}
	req := planGet(b, a, 1)
	for _, mode := range []string{"full", "replayed"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "full" {
					a.prep.Store(nil)
				}
				if a.HandleBytes(req) == nil {
					b.Fatal("request dropped")
				}
			}
		})
	}
}
