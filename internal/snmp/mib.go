package snmp

import (
	"sync"
	"sync/atomic"
)

// MIB is an OID-addressed store. Entries may be static values or dynamic
// getters evaluated at query time (counters read from the simulator).
// MIB is safe for concurrent use: the UDP transport serves from its own
// goroutine.
type MIB struct {
	mu sync.RWMutex
	// entries is kept in lexicographic OID order by SetFunc, so Get and
	// Next are one binary search under the read lock, with no per-lookup
	// key to build.
	entries []mibEntry
	// gen changes on every SetFunc, so an agent's prepared answer
	// (Agent.HandleBytes) knows when its resolved getters went stale. It
	// is drawn from mibGens, so no two MIBs share a generation: an agent
	// whose MIB is swapped for another misses too.
	gen atomic.Uint64
}

// mibGens issues MIB generations.
var mibGens atomic.Uint64

type mibEntry struct {
	oid OID
	get func() Value
}

// NewMIB returns an empty MIB.
func NewMIB() *MIB { return &MIB{} }

// Set installs a static value at an OID.
func (m *MIB) Set(oid OID, v Value) {
	m.SetFunc(oid, func() Value { return v })
}

// SetFunc installs a dynamic value. The getter runs on every query.
func (m *MIB) SetFunc(oid OID, get func() Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen.Store(mibGens.Add(1))
	i, found := m.search(oid)
	if found {
		m.entries[i].get = get
		return
	}
	m.entries = append(m.entries, mibEntry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = mibEntry{oid: oid.Clone(), get: get}
}

// search returns the index of the first entry whose OID is >= oid and
// whether that entry is oid itself. Callers hold m.mu.
func (m *MIB) search(oid OID) (int, bool) {
	lo, hi := 0, len(m.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.entries[mid].oid.Cmp(oid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.entries) && m.entries[lo].oid.Cmp(oid) == 0
}

// Get returns the value at exactly oid.
func (m *MIB) Get(oid OID) (Value, bool) {
	m.mu.RLock()
	i, found := m.search(oid)
	var get func() Value
	if found {
		get = m.entries[i].get
	}
	m.mu.RUnlock()
	if !found {
		return Null(), false
	}
	return get(), true
}

// getters resolves every OID of a GET under one read lock, appending
// each one's getter to out, nil where the MIB has no entry, and returns
// the generation they were resolved at. As with Get, the caller runs
// the getters after the lock is released.
func (m *MIB) getters(vbs []VarBind, out []func() Value) ([]func() Value, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, vb := range vbs {
		var get func() Value
		if i, found := m.search(vb.OID); found {
			get = m.entries[i].get
		}
		out = append(out, get)
	}
	return out, m.gen.Load()
}

// Next returns the first entry strictly after oid in lexicographic
// order — GETNEXT semantics, which Walk builds on.
func (m *MIB) Next(oid OID) (OID, Value, bool) {
	m.mu.RLock()
	i, found := m.search(oid)
	if found {
		i++
	}
	if i == len(m.entries) {
		m.mu.RUnlock()
		return nil, Null(), false
	}
	e := m.entries[i]
	m.mu.RUnlock()
	return e.oid.Clone(), e.get(), true
}

// Len returns the number of entries.
func (m *MIB) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}
