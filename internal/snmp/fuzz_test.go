package snmp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the wire decoder. Malformed
// input must be rejected with an error — never a panic or an unbounded
// allocation — and anything that does decode must re-encode and decode
// again to a stable wire form.
func FuzzDecode(f *testing.F) {
	seeds := []*Message{
		{Community: "public", Type: PDUGet, RequestID: 1,
			VarBinds: []VarBind{{OID: OID{1, 3, 6, 1, 2, 1}, Value: Null()}}},
		{Community: "c", Type: PDUResponse, RequestID: 42, Error: NoSuchName, ErrorIndex: 1,
			VarBinds: []VarBind{
				{OID: OID{1, 2}, Value: Integer(-5)},
				{OID: OID{1, 3}, Value: Value{Kind: KindCounter32, Uint: 7}},
				{OID: OID{1, 4}, Value: Value{Kind: KindGauge32, Uint: 100e6}},
				{OID: OID{1, 5}, Value: Value{Kind: KindTimeTicks, Uint: 12345}},
				{OID: OID{1, 6}, Value: Value{Kind: KindOctetString, Bytes: []byte("eth0")}},
			}},
		{Community: "", Type: PDUGetBulk, RequestID: 0, ErrorIndex: 16},
	}
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x4D})       // magic only
	f.Add([]byte{0x52, 0x4D, 0x02}) // wrong version
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected: that is the contract for garbage
		}
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
		m2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		b2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("wire form not stable:\n  %x\n  %x", b, b2)
		}
	})
}

// referenceGet is Get's answer check as it was before the one-pass
// decoder: the whole response decoded into a Message, then the ID,
// PDU type, error status, varbind count and OIDs checked in turn.
func referenceGet(resp []byte, id uint32, oids []OID) ([]Value, error) {
	m, err := Decode(resp)
	if err != nil {
		return nil, err
	}
	if m.RequestID != id {
		return nil, fmt.Errorf("snmp: response ID %d != request ID %d", m.RequestID, id)
	}
	if m.Type != PDUResponse {
		return nil, fmt.Errorf("snmp: unexpected PDU type %v", m.Type)
	}
	switch m.Error {
	case NoError:
	case NoSuchName:
		return nil, fmt.Errorf("%w at index %d", ErrNoSuchName, m.ErrorIndex)
	default:
		return nil, fmt.Errorf("snmp: %v at index %d", m.Error, m.ErrorIndex)
	}
	if len(m.VarBinds) != len(oids) {
		return nil, fmt.Errorf("%w: %d varbinds for %d OIDs", ErrBadResponse, len(m.VarBinds), len(oids))
	}
	vals := make([]Value, len(oids))
	for i, o := range oids {
		if m.VarBinds[i].OID.Cmp(o) != 0 {
			return nil, fmt.Errorf("%w: %v at position %d, asked %v", ErrBadResponse, m.VarBinds[i].OID, i+1, o)
		}
		vals[i] = m.VarBinds[i].Value
	}
	return vals, nil
}

// errClass names the kind of a Get error, the part callers branch on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNoSuchName):
		return "ErrNoSuchName"
	case errors.Is(err, ErrBadResponse):
		return "ErrBadResponse"
	default:
		return "other"
	}
}

// FuzzGetResponse holds the one-pass GET answer check to the reference
// above: for any response bytes to a three-OID GET, the two agree on the
// error class and, on success, on every value.
func FuzzGetResponse(f *testing.F) {
	const id = 7
	oids := []OID{OIDSysName, OIDIfInOctets.Append(1), OIDIfNumber}
	a := newTestAgent()
	answer := func(community string, oids ...OID) []byte {
		vbs := make([]VarBind, len(oids))
		for i, o := range oids {
			vbs[i] = VarBind{OID: o, Value: Null()}
		}
		raw, err := Encode(&Message{Community: community, Type: PDUGet, RequestID: id, VarBinds: vbs})
		if err != nil {
			f.Fatal(err)
		}
		return a.HandleBytes(raw)
	}
	good := answer("public", oids...)
	f.Add(good)
	f.Add(answer("public", oids[0], oids[1]))                 // one varbind short
	f.Add(answer("public", oids[0], MustOID("9.9"), oids[2])) // NoSuchName
	f.Add(answer("public", oids[0], MustOID("9.9")))          // NoSuchName, and short
	f.Add(answer("private", oids...))                         // badCommunity, no varbinds
	f.Add(answer("public", oids[0], oids[2], oids[1]))        // reordered
	f.Add(good[:len(good)-3])                                 // truncated
	f.Add(append(bytes.Clone(good[:20]), 0xFF))               // cut inside a varbind
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)

	c := NewClient(nil, "public")
	r, err := c.PrepareGet(oids...)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, resp []byte) {
		vals := make([]Value, len(oids))
		err := r.answer(resp, id, vals)
		want, werr := referenceGet(resp, id, oids)
		if errClass(err) != errClass(werr) {
			t.Fatalf("one-pass check says %v, reference says %v", err, werr)
		}
		if err != nil {
			return
		}
		for i := range want {
			if !vals[i].Equal(want[i]) {
				t.Fatalf("value %d: one-pass %v, reference %v", i, vals[i], want[i])
			}
		}
	})
}
