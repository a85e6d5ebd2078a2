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

// Encode serializes a message.
func Encode(m *Message) ([]byte, error) {
	if len(m.Community) > maxCommunity {
		return nil, fmt.Errorf("snmp: community too long (%d)", len(m.Community))
	}
	if len(m.VarBinds) > maxVarBinds {
		return nil, fmt.Errorf("snmp: too many varbinds (%d)", len(m.VarBinds))
	}
	buf := make([]byte, 0, 64+32*len(m.VarBinds))
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion)
	buf = append(buf, byte(len(m.Community)))
	buf = append(buf, m.Community...)
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint32(buf, m.RequestID)
	buf = append(buf, byte(m.Error))
	buf = binary.BigEndian.AppendUint32(buf, m.ErrorIndex)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.VarBinds)))
	for _, vb := range m.VarBinds {
		if len(vb.OID) > maxOIDLen {
			return nil, fmt.Errorf("snmp: OID too long (%d)", len(vb.OID))
		}
		buf = append(buf, byte(len(vb.OID)))
		for _, c := range vb.OID {
			buf = binary.BigEndian.AppendUint32(buf, c)
		}
		buf = append(buf, byte(vb.Value.Kind))
		switch vb.Value.Kind {
		case KindNull:
		case KindInteger:
			buf = binary.BigEndian.AppendUint64(buf, uint64(vb.Value.Int))
		case KindCounter32, KindGauge32, KindTimeTicks:
			buf = binary.BigEndian.AppendUint32(buf, vb.Value.Uint)
		case KindOctetString:
			if len(vb.Value.Bytes) > maxOctets {
				return nil, fmt.Errorf("snmp: octet string too long (%d)", len(vb.Value.Bytes))
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(vb.Value.Bytes)))
			buf = append(buf, vb.Value.Bytes...)
		default:
			return nil, fmt.Errorf("snmp: cannot encode value kind %v", vb.Value.Kind)
		}
	}
	return buf, nil
}

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

// Decode parses a message, rejecting malformed or oversized input.
func Decode(buf []byte) (*Message, error) {
	d := &decoder{buf: buf}
	magic, err := d.u16()
	if err != nil {
		return nil, err
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("snmp: bad magic %#x", magic)
	}
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("snmp: unsupported version %d", ver)
	}
	clen, err := d.u8()
	if err != nil {
		return nil, err
	}
	comm, err := d.bytes(int(clen))
	if err != nil {
		return nil, err
	}
	m := &Message{Community: string(comm)}
	pt, err := d.u8()
	if err != nil {
		return nil, err
	}
	if pt > uint8(PDUGetBulk) {
		return nil, fmt.Errorf("snmp: bad PDU type %d", pt)
	}
	m.Type = PDUType(pt)
	if m.RequestID, err = d.u32(); err != nil {
		return nil, err
	}
	es, err := d.u8()
	if err != nil {
		return nil, err
	}
	if es > uint8(GenErr) {
		return nil, fmt.Errorf("snmp: bad error status %d", es)
	}
	m.Error = ErrorStatus(es)
	if m.ErrorIndex, err = d.u32(); err != nil {
		return nil, err
	}
	nb, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(nb) > maxVarBinds {
		return nil, fmt.Errorf("snmp: too many varbinds (%d)", nb)
	}
	// Size the list once: the count is bounded above, and a varbind is at
	// least two bytes, so a hostile count cannot out-allocate its packet.
	if n := int(nb); n > 0 {
		if most := (len(buf) - d.off) / 2; n > most {
			n = most
		}
		m.VarBinds = make([]VarBind, 0, n)
	}
	for i := 0; i < int(nb); i++ {
		olen, err := d.u8()
		if err != nil {
			return nil, err
		}
		if int(olen) > maxOIDLen {
			return nil, fmt.Errorf("snmp: OID too long (%d)", olen)
		}
		oid := make(OID, olen)
		for j := range oid {
			if oid[j], err = d.u32(); err != nil {
				return nil, err
			}
		}
		kind, err := d.u8()
		if err != nil {
			return nil, err
		}
		var v Value
		switch ValueKind(kind) {
		case KindNull:
			v = Null()
		case KindInteger:
			u, err := d.u64()
			if err != nil {
				return nil, err
			}
			v = Integer(int64(u))
		case KindCounter32, KindGauge32, KindTimeTicks:
			u, err := d.u32()
			if err != nil {
				return nil, err
			}
			v = Value{Kind: ValueKind(kind), Uint: u}
		case KindOctetString:
			slen, err := d.u16()
			if err != nil {
				return nil, err
			}
			if int(slen) > maxOctets {
				return nil, fmt.Errorf("snmp: octet string too long (%d)", slen)
			}
			b, err := d.bytes(int(slen))
			if err != nil {
				return nil, err
			}
			v = Value{Kind: KindOctetString, Bytes: append([]byte(nil), b...)}
		default:
			return nil, fmt.Errorf("snmp: bad value kind %d", kind)
		}
		m.VarBinds = append(m.VarBinds, VarBind{OID: oid, Value: v})
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("snmp: %d trailing bytes", len(buf)-d.off)
	}
	return m, nil
}
