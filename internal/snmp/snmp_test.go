package snmp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseOID(t *testing.T) {
	oid, err := ParseOID("1.3.6.1.2.1.2.2.1.10.3")
	if err != nil {
		t.Fatal(err)
	}
	if oid.String() != "1.3.6.1.2.1.2.2.1.10.3" {
		t.Fatalf("roundtrip = %q", oid.String())
	}
	if _, err := ParseOID(""); err == nil {
		t.Fatal("empty OID accepted")
	}
	if _, err := ParseOID("1.x.3"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseOID(".1.3"); err != nil {
		t.Fatal("leading dot rejected")
	}
}

func TestOIDCmpPrefix(t *testing.T) {
	a := MustOID("1.3.6")
	b := MustOID("1.3.6.1")
	c := MustOID("1.3.7")
	if a.Cmp(b) >= 0 || b.Cmp(a) <= 0 {
		t.Fatal("prefix ordering wrong")
	}
	if b.Cmp(c) >= 0 {
		t.Fatal("sibling ordering wrong")
	}
	if a.Cmp(a.Clone()) != 0 {
		t.Fatal("equal ordering wrong")
	}
	if !b.HasPrefix(a) || a.HasPrefix(b) {
		t.Fatal("HasPrefix wrong")
	}
	d := a.Append(9, 9)
	if d.String() != "1.3.6.9.9" {
		t.Fatalf("Append = %v", d)
	}
	if len(a) != 3 {
		t.Fatal("Append mutated receiver")
	}
}

func TestValueConstructors(t *testing.T) {
	if Counter32(1<<32+5).Uint != 5 {
		t.Fatal("Counter32 does not wrap")
	}
	if Gauge32(1<<33).Uint != 0xFFFFFFFF {
		t.Fatal("Gauge32 does not saturate")
	}
	if Integer(-7).String() != "-7" {
		t.Fatal("Integer string")
	}
	if OctetString("hi").String() != "hi" {
		t.Fatal("OctetString string")
	}
	if !Null().Equal(Null()) || Null().Equal(Integer(0)) {
		t.Fatal("Equal wrong")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := &Message{
		Community: "public",
		Type:      PDUGet,
		RequestID: 12345,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.2.1.1.5.0"), Value: OctetString("aspen")},
			{OID: MustOID("1.3.6.1.2.1.2.2.1.10.3"), Value: Counter32(4000000000)},
			{OID: MustOID("1.3"), Value: Integer(-99)},
			{OID: MustOID("1.4"), Value: Gauge32(100000000)},
			{OID: MustOID("1.5"), Value: TimeTicks(4242)},
			{OID: MustOID("1.6"), Value: Null()},
		},
	}
	raw, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Community != m.Community || got.Type != m.Type || got.RequestID != m.RequestID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.VarBinds) != len(m.VarBinds) {
		t.Fatalf("varbinds = %d", len(got.VarBinds))
	}
	for i := range m.VarBinds {
		if got.VarBinds[i].OID.Cmp(m.VarBinds[i].OID) != 0 {
			t.Fatalf("OID %d mismatch", i)
		}
		if !got.VarBinds[i].Value.Equal(m.VarBinds[i].Value) {
			t.Fatalf("value %d mismatch: %v vs %v", i, got.VarBinds[i].Value, m.VarBinds[i].Value)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0xFF, 0xFF, 1, 0},        // bad magic
		{0x52, 0x4D, 9, 0},        // bad version
		{0x52, 0x4D, 1, 200, 'a'}, // community length beyond buffer
		append([]byte{0x52, 0x4D, 1, 0}, make([]byte, 3)...), // truncated header
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Trailing bytes rejected.
	m := &Message{Community: "c", Type: PDUGet, RequestID: 1}
	raw, _ := Encode(m)
	if _, err := Decode(append(raw, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: random valid messages survive a round trip.
func TestQuickCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		rng.Seed(seed)
		m := &Message{
			Community: string(rune('a' + rng.Intn(26))),
			Type:      PDUType(rng.Intn(3)),
			RequestID: rng.Uint32(),
			Error:     ErrorStatus(rng.Intn(4)),
		}
		for i := 0; i < rng.Intn(6); i++ {
			oid := OID{}
			for j := 0; j < 1+rng.Intn(10); j++ {
				oid = append(oid, rng.Uint32()%1000)
			}
			var v Value
			switch rng.Intn(5) {
			case 0:
				v = Integer(rng.Int63() - 1<<62)
			case 1:
				v = Counter32(uint64(rng.Uint32()))
			case 2:
				v = Gauge32(uint64(rng.Uint32()))
			case 3:
				v = OctetString(string(rune('A' + rng.Intn(26))))
			case 4:
				v = Null()
			}
			m.VarBinds = append(m.VarBinds, VarBind{OID: oid, Value: v})
		}
		raw, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		if got.Community != m.Community || got.RequestID != m.RequestID || len(got.VarBinds) != len(m.VarBinds) {
			return false
		}
		for i := range m.VarBinds {
			if got.VarBinds[i].OID.Cmp(m.VarBinds[i].OID) != 0 || !got.VarBinds[i].Value.Equal(m.VarBinds[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on random bytes.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMIBGetNext(t *testing.T) {
	m := NewMIB()
	m.Set(MustOID("1.2.3"), Integer(1))
	m.Set(MustOID("1.2.4"), Integer(2))
	m.Set(MustOID("1.2.3.1"), Integer(3))
	oid, v, ok := m.Next(MustOID("1.2.3"))
	if !ok || oid.String() != "1.2.3.1" || v.Int != 3 {
		t.Fatalf("Next = %v %v %v", oid, v, ok)
	}
	oid, _, ok = m.Next(MustOID("1.2.3.1"))
	if !ok || oid.String() != "1.2.4" {
		t.Fatalf("Next = %v", oid)
	}
	if _, _, ok := m.Next(MustOID("1.2.4")); ok {
		t.Fatal("Next past end succeeded")
	}
	// Next from before everything returns the first entry.
	oid, _, ok = m.Next(MustOID("1"))
	if !ok || oid.String() != "1.2.3" {
		t.Fatalf("Next from root = %v", oid)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMIBDynamicValue(t *testing.T) {
	m := NewMIB()
	n := 0
	m.SetFunc(MustOID("1.1"), func() Value { n++; return Integer(int64(n)) })
	v, _ := m.Get(MustOID("1.1"))
	v2, _ := m.Get(MustOID("1.1"))
	if v.Int != 1 || v2.Int != 2 {
		t.Fatalf("dynamic values = %v, %v", v, v2)
	}
	// Overwriting keeps a single sorted entry.
	m.Set(MustOID("1.1"), Integer(9))
	if m.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
}

func newTestAgent() *Agent {
	a := NewAgent("aspen", "public")
	a.MIB.Set(OIDSysName, OctetString("aspen"))
	a.MIB.Set(OIDIfNumber, Integer(2))
	a.MIB.Set(OIDIfInOctets.Append(1), Counter32(100))
	a.MIB.Set(OIDIfInOctets.Append(2), Counter32(200))
	return a
}

func TestAgentGet(t *testing.T) {
	a := newTestAgent()
	resp := a.Handle(&Message{Community: "public", Type: PDUGet, RequestID: 7,
		VarBinds: []VarBind{{OID: OIDSysName}}})
	if resp.Error != NoError || resp.RequestID != 7 {
		t.Fatalf("resp = %+v", resp)
	}
	if string(resp.VarBinds[0].Value.Bytes) != "aspen" {
		t.Fatalf("value = %v", resp.VarBinds[0].Value)
	}
	// Missing OID.
	resp = a.Handle(&Message{Community: "public", Type: PDUGet,
		VarBinds: []VarBind{{OID: MustOID("9.9.9")}}})
	if resp.Error != NoSuchName || resp.ErrorIndex != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	// Wrong community.
	resp = a.Handle(&Message{Community: "private", Type: PDUGet})
	if resp.Error != BadCommunity {
		t.Fatalf("resp = %+v", resp)
	}
	if a.Requests() != 3 {
		t.Fatalf("requests = %d", a.Requests())
	}
}

func TestAgentHandleBytesDropsGarbage(t *testing.T) {
	a := newTestAgent()
	if a.HandleBytes([]byte{1, 2, 3}) != nil {
		t.Fatal("garbage answered")
	}
}

func TestClientInProc(t *testing.T) {
	a := newTestAgent()
	reg := NewInProcRegistry()
	reg.Register("snmp://aspen", a)
	c := NewClient(reg, "public")
	vbs, err := c.Get("snmp://aspen", OIDSysName, OIDIfNumber)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbs) != 2 || vbs[1].Value.Int != 2 {
		t.Fatalf("vbs = %v", vbs)
	}
	if _, err := c.Get("snmp://missing", OIDSysName); err == nil {
		t.Fatal("missing agent succeeded")
	}
	if _, err := c.Get("snmp://aspen", MustOID("9.9")); err == nil {
		t.Fatal("missing OID succeeded")
	}
}

func TestClientWalk(t *testing.T) {
	a := newTestAgent()
	reg := NewInProcRegistry()
	reg.Register("a", a)
	c := NewClient(reg, "public")
	vbs, err := c.Walk("a", OIDIfInOctets)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbs) != 2 {
		t.Fatalf("walk = %v", vbs)
	}
	if vbs[0].Value.Uint != 100 || vbs[1].Value.Uint != 200 {
		t.Fatalf("walk values = %v", vbs)
	}
	// Walk of absent subtree is empty, not an error.
	vbs, err = c.Walk("a", MustOID("5.5"))
	if err != nil || len(vbs) != 0 {
		t.Fatalf("walk absent = %v, %v", vbs, err)
	}
}

func TestClientWrongCommunity(t *testing.T) {
	a := newTestAgent()
	reg := NewInProcRegistry()
	reg.Register("a", a)
	c := NewClient(reg, "wrong")
	if _, err := c.Get("a", OIDSysName); err == nil {
		t.Fatal("wrong community succeeded")
	}
	if _, err := c.GetNext("a", OIDSysName); err == nil || errors.Is(err, ErrNoSuchName) {
		t.Fatal("wrong community GetNext mis-handled")
	}
}

func TestUDPTransport(t *testing.T) {
	a := newTestAgent()
	srv, err := ServeUDP(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(NewUDPTransport(), "public")
	vbs, err := c.Get(srv.Addr(), OIDSysName)
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "aspen" {
		t.Fatalf("value = %v", vbs[0].Value)
	}
	// Walk over UDP too.
	walked, err := c.Walk(srv.Addr(), OIDIfInOctets)
	if err != nil || len(walked) != 2 {
		t.Fatalf("walk = %v, %v", walked, err)
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	m := &Message{
		Community: "public", Type: PDUGet, RequestID: 1,
		VarBinds: []VarBind{
			{OID: OIDIfInOctets.Append(1), Value: Counter32(12345678)},
			{OID: OIDIfOutOctets.Append(1), Value: Counter32(87654321)},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMIBKeepsOrderUnderAnyInsertOrder: entries installed in any order
// (and re-installed) walk in OID order, and prefixes sort before their
// extensions — the binary-search lookup must agree with Cmp.
func TestMIBKeepsOrderUnderAnyInsertOrder(t *testing.T) {
	want := []string{"1.2", "1.2.0", "1.2.0.7", "1.2.1", "1.3", "1.10", "2"}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 2, 5, 1, 4}} {
		m := NewMIB()
		for n, i := range order {
			m.Set(MustOID(want[i]), Integer(int64(n)))
		}
		m.Set(MustOID(want[3]), Integer(99)) // replace, not duplicate
		if m.Len() != len(want) {
			t.Fatalf("Len = %d", m.Len())
		}
		cur := MustOID("0")
		for _, w := range want {
			next, _, ok := m.Next(cur)
			if !ok || next.String() != w {
				t.Fatalf("order %v: after %v came %v, want %s", order, cur, next, w)
			}
			if _, ok := m.Get(next); !ok {
				t.Fatalf("Get(%v) missed an entry Next returned", next)
			}
			cur = next
		}
		if v, _ := m.Get(MustOID(want[3])); v.Int != 99 {
			t.Fatalf("replaced value = %v", v)
		}
		if _, ok := m.Get(MustOID("1.2.0.6")); ok {
			t.Fatal("Get hit an OID that was never set")
		}
	}
}

// rewriteTransport answers through a real agent, then lets the test
// rewrite the response: an agent that misbehaves, or a datagram that
// was corrupted and still decodes.
type rewriteTransport struct {
	agent   *Agent
	rewrite func(resp *Message)
}

func (r *rewriteTransport) RoundTrip(_ string, req []byte) ([]byte, error) {
	m, err := Decode(req)
	if err != nil {
		return nil, err
	}
	resp := r.agent.Handle(m)
	r.rewrite(resp)
	return Encode(resp)
}

// TestGetVerifiesResponseShape: Get answers by request position, so a
// NoError response with fewer or more varbinds, the right ones in
// another order, or another OID at some position is ErrBadResponse — and
// never a varbind slice a caller could index out of range.
func TestGetVerifiesResponseShape(t *testing.T) {
	oids := []OID{OIDSysName, OIDIfInOctets.Append(1), OIDIfInOctets.Append(2)}
	cases := map[string]func(*Message){
		"short":     func(m *Message) { m.VarBinds = m.VarBinds[:1] },
		"empty":     func(m *Message) { m.VarBinds = nil },
		"long":      func(m *Message) { m.VarBinds = append(m.VarBinds, m.VarBinds[0]) },
		"reordered": func(m *Message) { m.VarBinds[1], m.VarBinds[2] = m.VarBinds[2], m.VarBinds[1] },
		"wrong OID": func(m *Message) { m.VarBinds[2].OID = OIDIfOutOctets.Append(2) },
	}
	for name, rewrite := range cases {
		c := NewClient(&rewriteTransport{agent: newTestAgent(), rewrite: rewrite}, "public")
		vbs, err := c.Get("a", oids...)
		if !errors.Is(err, ErrBadResponse) || vbs != nil {
			t.Errorf("%s response: vbs=%v err=%v, want ErrBadResponse", name, vbs, err)
		}
	}
	c := NewClient(&rewriteTransport{agent: newTestAgent(), rewrite: func(*Message) {}}, "public")
	if vbs, err := c.Get("a", oids...); err != nil || len(vbs) != 3 || vbs[2].Value.Uint != 200 {
		t.Fatalf("untouched response: %v, %v", vbs, err)
	}
	if _, err := c.Get("a", OIDSysName, MustOID("9.9")); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("missing OID: err=%v, want ErrNoSuchName", err)
	}
}
