package snmp

import (
	"encoding/binary"
	"fmt"
)

// Wire format (all multi-byte integers big-endian):
//
//	magic   uint16  0x524D ("RM")
//	version uint8   1
//	community: len uint8, bytes
//	type    uint8
//	reqid   uint32
//	error   uint8
//	erridx  uint32
//	nbinds  uint16
//	per varbind:
//	  oidlen uint8, oid components uint32 each
//	  kind   uint8
//	  payload:
//	    Integer:      int64 (two's complement, 8 bytes)
//	    Counter32/Gauge32/TimeTicks: uint32
//	    OctetString:  len uint16, bytes
//	    Null:         nothing
//
// Limits below bound decoding work on hostile input.
const (
	wireMagic   = 0x524D
	wireVersion = 1

	maxCommunity = 255
	maxVarBinds  = 1024
	maxOIDLen    = 128
	maxOctets    = 4096
)

// MaxVarBinds is the most varbinds one message carries; a caller with
// more OIDs to read issues several Gets.
const MaxVarBinds = maxVarBinds

// Encode serializes a message into a buffer of exactly its encoded
// size.
func Encode(m *Message) ([]byte, error) {
	if len(m.Community) > maxCommunity {
		return nil, fmt.Errorf("snmp: community too long (%d)", len(m.Community))
	}
	if len(m.VarBinds) > maxVarBinds {
		return nil, fmt.Errorf("snmp: too many varbinds (%d)", len(m.VarBinds))
	}
	size := headerLen + len(m.Community)
	for _, vb := range m.VarBinds {
		if len(vb.OID) > maxOIDLen {
			return nil, fmt.Errorf("snmp: OID too long (%d)", len(vb.OID))
		}
		n, err := valueSize(vb.Value)
		if err != nil {
			return nil, err
		}
		size += 1 + 4*len(vb.OID) + n
	}
	buf := appendHeader(make([]byte, 0, size), m.Community, m.Type, m.RequestID, m.Error, m.ErrorIndex, len(m.VarBinds))
	for _, vb := range m.VarBinds {
		buf = append(buf, byte(len(vb.OID)))
		for _, c := range vb.OID {
			buf = binary.BigEndian.AppendUint32(buf, c)
		}
		buf = appendValue(buf, vb.Value)
	}
	return buf, nil
}

// appendHeader writes a message's fixed fields and community; the
// caller has checked the community's length and the varbind count n.
func appendHeader(buf []byte, community string, typ PDUType, id uint32, status ErrorStatus, index uint32, n int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion, byte(len(community)))
	buf = append(buf, community...)
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint32(buf, id)
	buf = append(buf, byte(status))
	buf = binary.BigEndian.AppendUint32(buf, index)
	return binary.BigEndian.AppendUint16(buf, uint16(n))
}

// valueSize is the encoded size of v, its kind byte and payload, or
// the reason v cannot be encoded.
func valueSize(v Value) (int, error) {
	switch v.Kind {
	case KindNull:
		return 1, nil
	case KindInteger:
		return 1 + 8, nil
	case KindCounter32, KindGauge32, KindTimeTicks:
		return 1 + 4, nil
	case KindOctetString:
		if len(v.Bytes) > maxOctets {
			return 0, fmt.Errorf("snmp: octet string too long (%d)", len(v.Bytes))
		}
		return 1 + 2 + len(v.Bytes), nil
	default:
		return 0, fmt.Errorf("snmp: cannot encode value kind %v", v.Kind)
	}
}

// appendValue writes v's kind byte and payload; valueSize has accepted
// v.
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindInteger:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	case KindCounter32, KindGauge32, KindTimeTicks:
		buf = binary.BigEndian.AppendUint32(buf, v.Uint)
	case KindOctetString:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.Bytes)))
		buf = append(buf, v.Bytes...)
	}
	return buf
}

// headerLen is the encoded size of a message's fixed fields, community
// bytes aside; idOffset is where the request ID sits after them.
const (
	headerLen = 16
	idOffset  = 5
)

// decoder is a bounds-checked cursor.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("snmp: truncated message (need %d at %d of %d)", n, d.off, len(d.buf))
	}
	return nil
}

func (d *decoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v, nil
}

// header is a message's fixed fields, everything before its varbinds.
type header struct {
	community []byte // a window of the decoded buffer
	typ       PDUType
	id        uint32
	status    ErrorStatus
	index     uint32
	count     int // varbinds that follow, at most maxVarBinds
}

// header reads and range-checks the fixed fields.
func (d *decoder) header() (h header, err error) {
	magic, err := d.u16()
	if err != nil {
		return h, err
	}
	if magic != wireMagic {
		return h, fmt.Errorf("snmp: bad magic %#x", magic)
	}
	ver, err := d.u8()
	if err != nil {
		return h, err
	}
	if ver != wireVersion {
		return h, fmt.Errorf("snmp: unsupported version %d", ver)
	}
	clen, err := d.u8()
	if err != nil {
		return h, err
	}
	if h.community, err = d.bytes(int(clen)); err != nil {
		return h, err
	}
	pt, err := d.u8()
	if err != nil {
		return h, err
	}
	if pt > uint8(PDUGetBulk) {
		return h, fmt.Errorf("snmp: bad PDU type %d", pt)
	}
	h.typ = PDUType(pt)
	if h.id, err = d.u32(); err != nil {
		return h, err
	}
	es, err := d.u8()
	if err != nil {
		return h, err
	}
	if es > uint8(GenErr) {
		return h, fmt.Errorf("snmp: bad error status %d", es)
	}
	h.status = ErrorStatus(es)
	if h.index, err = d.u32(); err != nil {
		return h, err
	}
	nb, err := d.u16()
	if err != nil {
		return h, err
	}
	if int(nb) > maxVarBinds {
		return h, fmt.Errorf("snmp: too many varbinds (%d)", nb)
	}
	h.count = int(nb)
	return h, nil
}

// oid skips one varbind's OID and returns its component count; its
// wire bytes are d.buf[at:d.off] for the at before the call.
func (d *decoder) oid() (int, error) {
	olen, err := d.u8()
	if err != nil {
		return 0, err
	}
	if int(olen) > maxOIDLen {
		return 0, fmt.Errorf("snmp: OID too long (%d)", olen)
	}
	if err := d.need(4 * int(olen)); err != nil {
		return 0, err
	}
	d.off += 4 * int(olen)
	return int(olen), nil
}

// value reads one varbind's kind and payload. An octet string is
// copied out of the buffer.
func (d *decoder) value() (Value, error) {
	kind, err := d.u8()
	if err != nil {
		return Value{}, err
	}
	switch ValueKind(kind) {
	case KindNull:
		return Null(), nil
	case KindInteger:
		u, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		return Integer(int64(u)), nil
	case KindCounter32, KindGauge32, KindTimeTicks:
		u, err := d.u32()
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: ValueKind(kind), Uint: u}, nil
	case KindOctetString:
		slen, err := d.u16()
		if err != nil {
			return Value{}, err
		}
		if int(slen) > maxOctets {
			return Value{}, fmt.Errorf("snmp: octet string too long (%d)", slen)
		}
		b, err := d.bytes(int(slen))
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindOctetString, Bytes: append([]byte(nil), b...)}, nil
	default:
		return Value{}, fmt.Errorf("snmp: bad value kind %d", kind)
	}
}

// Decode parses a message, rejecting malformed or oversized input.
func Decode(buf []byte) (*Message, error) {
	m := new(Message)
	if _, err := m.decode(buf, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// decode parses buf into m, reusing m's varbind list. Every OID of the
// message is a capacity-capped window of one component slab (slab's
// array when it is large enough), sized at one component per four
// bytes of the packet, so a hostile message cannot out-allocate its own
// length. decode returns the slab for the next call.
func (m *Message) decode(buf []byte, slab []uint32) ([]uint32, error) {
	d := decoder{buf: buf}
	h, err := d.header()
	if err != nil {
		return slab, err
	}
	if m.Community != string(h.community) {
		m.Community = string(h.community)
	}
	m.Type, m.RequestID, m.Error, m.ErrorIndex = h.typ, h.id, h.status, h.index
	m.VarBinds = m.VarBinds[:0]
	// Size the list once: a varbind is at least two bytes, so a hostile
	// count cannot out-allocate its packet either.
	if n := min(h.count, (len(buf)-d.off)/2); cap(m.VarBinds) < n {
		m.VarBinds = make([]VarBind, 0, n)
	}
	if most := (len(buf) - d.off) / 4; h.count > 0 && cap(slab) < most {
		slab = make([]uint32, 0, most)
	}
	slab = slab[:0]
	for i := 0; i < h.count; i++ {
		at := d.off
		olen, err := d.oid()
		if err != nil {
			return slab, err
		}
		k := len(slab)
		slab = slab[:k+olen]
		oid := OID(slab[k : k+olen : k+olen])
		for j := range oid {
			oid[j] = binary.BigEndian.Uint32(buf[at+1+4*j:])
		}
		v, err := d.value()
		if err != nil {
			return slab, err
		}
		m.VarBinds = append(m.VarBinds, VarBind{OID: oid, Value: v})
	}
	if d.off != len(buf) {
		return slab, fmt.Errorf("snmp: %d trailing bytes", len(buf)-d.off)
	}
	return slab, nil
}
