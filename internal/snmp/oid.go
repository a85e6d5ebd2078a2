// Package snmp implements the management-protocol substrate the Remos
// Collector polls: a compact SNMP-v2c-like protocol with OID-addressed
// values, GET/GETNEXT/WALK semantics, agents attached to simulated
// routers and hosts, and two interchangeable transports (in-process for
// virtual-time experiments, UDP for daemon mode and integration tests).
//
// Substitution note (see DESIGN.md): the paper's collector speaks real
// SNMP (RFC 1905) to router firmware. Here the wire encoding is a
// simpler TLV format — BER adds parsing complexity without changing any
// measured behaviour — but the data model (MIB-II interfaces table with
// 32-bit wrapping octet counters, ifSpeed gauges, sysUpTime) and the poll
// semantics are faithful, so the Collector's logic is the same as against
// real agents.
package snmp

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// OID is an object identifier: a dotted sequence of nonnegative integers.
type OID []uint32

// ParseOID parses "1.3.6.1.2.1.2.2.1.10.3" into an OID.
func ParseOID(s string) (OID, error) {
	s = strings.TrimPrefix(s, ".")
	if s == "" {
		return nil, fmt.Errorf("snmp: empty OID")
	}
	parts := strings.Split(s, ".")
	oid := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID component %q: %v", p, err)
		}
		oid[i] = uint32(v)
	}
	return oid, nil
}

// MustOID is ParseOID for static tables; panics on error.
func MustOID(s string) OID {
	oid, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return oid
}

func (o OID) String() string {
	var b strings.Builder
	for i, v := range o {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	return b.String()
}

// Cmp compares OIDs in lexicographic order, the ordering GETNEXT walks.
func (o OID) Cmp(other OID) int {
	n := min(len(o), len(other))
	a, b := o[:n], other[:n]
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(o), len(other))
}

// HasPrefix reports whether o lies under the given prefix.
func (o OID) HasPrefix(prefix OID) bool {
	if len(o) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if o[i] != v {
			return false
		}
	}
	return true
}

// Append returns a new OID with extra components appended.
func (o OID) Append(parts ...uint32) OID {
	out := make(OID, 0, len(o)+len(parts))
	out = append(out, o...)
	out = append(out, parts...)
	return out
}

// Clone returns a copy.
func (o OID) Clone() OID { return append(OID(nil), o...) }

// Well-known OIDs (MIB-II and the private Remos enterprise subtree).
var (
	// System group.
	OIDSysDescr  = MustOID("1.3.6.1.2.1.1.1.0")
	OIDSysUpTime = MustOID("1.3.6.1.2.1.1.3.0")
	OIDSysName   = MustOID("1.3.6.1.2.1.1.5.0")

	// Interfaces group.
	OIDIfNumber    = MustOID("1.3.6.1.2.1.2.1.0")
	OIDIfIndex     = MustOID("1.3.6.1.2.1.2.2.1.1")
	OIDIfDescr     = MustOID("1.3.6.1.2.1.2.2.1.2")
	OIDIfSpeed     = MustOID("1.3.6.1.2.1.2.2.1.5")
	OIDIfInOctets  = MustOID("1.3.6.1.2.1.2.2.1.10")
	OIDIfOutOctets = MustOID("1.3.6.1.2.1.2.2.1.16")

	// Host resources: 1-minute CPU load percentage and physical memory
	// size (KBytes, as in HOST-RESOURCES-MIB).
	OIDHrProcessorLoad = MustOID("1.3.6.1.2.1.25.3.3.1.2.1")
	OIDHrMemorySize    = MustOID("1.3.6.1.2.1.25.2.2.0")

	// Private enterprise subtree standing in for topology discovery
	// (real deployments would use ipRouteTable or CDP; the collector
	// only needs "which node is on the other end of interface i").
	OIDRemosNeighbor   = MustOID("1.3.6.1.4.1.53270.1.1") // .i = neighbor sysName
	OIDRemosLinkID     = MustOID("1.3.6.1.4.1.53270.1.2") // .i = graph link ID
	OIDRemosNodeKind   = MustOID("1.3.6.1.4.1.53270.1.3.0")
	OIDRemosInternalBW = MustOID("1.3.6.1.4.1.53270.1.4.0")
)
