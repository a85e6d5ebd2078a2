package collector

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The wire layout, version wireVersion: a hand-written binary encoding
// of the muxFrame envelope (mux.go) and everything that hangs off it,
// including the three state bodies — feed payload, region summary and
// telemetry snapshot — of which checkpoint and history files write the
// feed behind a file header (checkpoint.go). This file is the whole
// format; frame.go adds the length prefix and the version byte in front.
//
// Primitives
//
//	uvarint, varint  encoding/binary's variable-length integers
//	f64              math.Float64bits, 8 bytes big-endian, so NaN
//	                 payloads, -0 and ±Inf arrive bit for bit
//	f64r             math.Float64bits byte-reversed, as a uvarint (gob's
//	                 float rule): every bit, and a round poll time or
//	                 rate takes 2–4 bytes
//	string           uvarint length, then the bytes
//	list             uvarint count, then the elements
//	map              uvarint 0 for a nil map, else 1+count, then the
//	                 entries, key first, in strictly ascending key
//	                 order (a channel key by Global, then Dir; a
//	                 string bytewise): a repeated key, or one below
//	                 its predecessor, is an error
//	flags            one byte; a bit this version does not define is
//	                 an error
//
// Every field below is always present and in this order; "?" marks a
// body that is present only when its flag bit is set.
//
//	muxFrame  uvarint Stream, varint Kind, flags{Req,Resp,Update},
//	          ?request, ?response, ?update
//	request   string Op, f64 BudgetMS, string TraceID,
//	          flags{Watch,Matrix,Read}, ?watch, ?matrixreq, ?readreq
//	key       varint Global, varint Dir
//	watch     string Kind, key Key, string Node, f64 Span, f64 Threshold
//	matrixreq list<string> Srcs, list<string> Dsts, varint TFKind,
//	          f64 Span, f64 Horizon
//	readreq   uvarint HaveInstance, uvarint HaveVersion, f64 Span,
//	          kind Of, flags{Discovered}, list<key> Keys,
//	          list<string> Hosts, uvarint MissingKeys (≤ Keys),
//	          uvarint MissingHosts (≤ Hosts)
//	kind      one byte: 0 summary, 1 window, 2 age (ReadKind)
//	response  flags{Leader,Topo,Telemetry,Matrix,Read}, varint Code,
//	          string Err, f64 RetryAfterMS, string LeaderHint,
//	          uvarint Term, health Health, ?topo, ?telemetry, ?matrix,
//	          ?readans
//	stat      f64 Min, Q1, Median, Q3, Max, Accuracy, varint Samples,
//	          f64 Age
//	sample    f64r Time, f64r Value
//	health    map<string id, varint State, varint ConsecutiveFailures,
//	          f64 LastSuccess, LastAttempt, NextAttempt, uvarint Skipped>
//	topo      list<node>, list<link>, f64 DiscoveredAt
//	node      string ID, varint Kind, f64 InternalBW, ComputePower,
//	          MemoryBytes
//	link      string A, string B, f64 Capacity, f64 Latency,
//	          varint Global
//	matrix    rows Bandwidth (f64), rows Latency (f64), rows Valid (one
//	          byte per cell, 0 or 1), uvarint Epoch, uvarint Term
//	rows      uvarint row count, then per row: uvarint length, cells
//	readans   uvarint Instance, uvarint Version, f64 DiscoveredAt,
//	          flags{NotModified}, kind Of, uvarint KeyCount, list<entry>
//	entry     one byte, 1 when the entry's read failed and else 0; an
//	          answered entry then carries, for a host and a channel of
//	          kind summary, stat; of kind window, list<sample> Window and
//	          f64 Age; of kind age, f64 Age. The first KeyCount entries
//	          are the channels, the rest the hosts
//	update    flags{Overflowed,Resync,Final,TopoChanged,Feed,Summary},
//	          uvarint Seq, uvarint Epoch, uvarint Term, stat Stat,
//	          string Err, ?feed, ?summary
//
// The state bodies:
//
//	feed      uvarint Epoch, flags{Full,Topo}, f64 Now, HalfLife,
//	          varint WindowLen, f64 WindowAge, PollPeriod, uvarint Term,
//	          ?topo, map<key, f64> Capacity, map<key, list<sample>>
//	          Channels, map<string, list<sample>> Loads, health Health
//	          (each held in a FeedPayload as a slice of entries in
//	          key order, which decodes to nil when empty)
//	summary   string Region, uvarint Epoch, Term, f64 GeneratedAt,
//	          MaxDataAge, list<string ID, f64 Power, MemoryBytes,
//	          AccessBps, AvailableBps> Hosts, list<string ID,
//	          f64 InteriorBps> Borders, list<string Peer, varint Links,
//	          f64 CapacityBps, AvailableBps, varint HopCount,
//	          f64 LatencySec> Pairs
//	telemetry map<string, uvarint> Counters, map<string, f64> Gauges,
//	          map<string, stat Stat, uvarint Count, varint Window>
//	          Quantiles, list<span> Spans, uvarint SpansStarted,
//	          SpansFinished
//	span      string Trace, Name, varint Start's Unix seconds, uvarint
//	          its nanoseconds (< 1e9), varint Duration, map<string,
//	          string> Attrs
//
// Decoding reproduces what the gob format it replaced produced: an
// empty string, list or row decodes to the zero value (nil), a nil map
// stays nil and an empty one stays empty, an unset body stays a nil
// pointer. Unlike gob it keeps a -0 field's sign, and a span's Start
// comes back without its monotonic reading or zone (time.Unix).
//
// Allocation rule: a count is checked against the bytes left in the
// frame (at the element's minimum encoded size) before anything is
// allocated for it, so a frame of n bytes allocates at most a small
// constant times n — the worst case is a list of empty strings, one
// byte on the wire and a 16-byte header in memory. Bytes left over
// after a complete frame are an error.

// ---- encoding ----

func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// flagBits packs up to eight booleans, first argument in bit 0.
func flagBits(bits ...bool) byte {
	var f byte
	for i, on := range bits {
		f |= boolByte(on) << i
	}
	return f
}

func appendMuxFrame(b []byte, f *muxFrame) ([]byte, error) {
	b = binary.AppendUvarint(b, f.Stream)
	b = appendInt(b, f.Kind)
	b = append(b, flagBits(f.Req != nil, f.Resp != nil, f.Update != nil))
	if f.Req != nil {
		b = appendRequest(b, f.Req)
	}
	if f.Resp != nil {
		var err error
		if b, err = appendResponse(b, f.Resp); err != nil {
			return b, err
		}
	}
	if f.Update != nil {
		b = appendUpdate(b, f.Update)
	}
	return b, nil
}

func appendKey(b []byte, k ChannelKey) []byte {
	return appendInt(appendInt(b, k.Global), int(k.Dir))
}

func appendRequest(b []byte, r *request) []byte {
	b = appendString(b, r.Op)
	b = appendF64(b, r.BudgetMS)
	b = appendString(b, r.TraceID)
	b = append(b, flagBits(r.Watch != nil, r.Matrix != nil, r.Read != nil))
	if w := r.Watch; w != nil {
		b = appendString(b, w.Kind)
		b = appendKey(b, w.Key)
		b = appendString(b, w.Node)
		b = appendF64(b, w.Span)
		b = appendF64(b, w.Threshold)
	}
	if m := r.Matrix; m != nil {
		b = appendNodeIDs(b, m.Srcs)
		b = appendNodeIDs(b, m.Dsts)
		b = appendInt(b, m.TFKind)
		b = appendF64(b, m.Span)
		b = appendF64(b, m.Horizon)
	}
	if rr := r.Read; rr != nil {
		b = binary.AppendUvarint(b, rr.HaveInstance)
		b = binary.AppendUvarint(b, rr.HaveVersion)
		b = appendF64(b, rr.Span)
		b = append(b, byte(rr.Of), flagBits(rr.Discovered))
		b = binary.AppendUvarint(b, uint64(len(rr.Keys)))
		for _, k := range rr.Keys {
			b = appendKey(b, k)
		}
		b = appendNodeIDs(b, rr.Hosts)
		b = binary.AppendUvarint(b, uint64(rr.MissingKeys))
		b = binary.AppendUvarint(b, uint64(rr.MissingHosts))
	}
	return b
}

func appendNodeIDs(b []byte, ids []graph.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendString(b, string(id))
	}
	return b
}

func appendStat(b []byte, st *stats.Stat) []byte {
	b = appendF64(b, st.Min)
	b = appendF64(b, st.Q1)
	b = appendF64(b, st.Median)
	b = appendF64(b, st.Q3)
	b = appendF64(b, st.Max)
	b = appendF64(b, st.Accuracy)
	b = appendInt(b, st.Samples)
	return appendF64(b, st.Age)
}

func appendResponse(b []byte, r *response) ([]byte, error) {
	b = append(b, flagBits(r.Leader, r.Topo != nil, r.Telemetry != nil, r.Matrix != nil, r.Read != nil))
	b = appendInt(b, r.Code)
	b = appendString(b, r.Err)
	b = appendF64(b, r.RetryAfterMS)
	b = appendString(b, r.LeaderHint)
	b = binary.AppendUvarint(b, r.Term)
	b = appendHealth(b, r.Health)
	if r.Topo != nil {
		b = appendTopo(b, r.Topo)
	}
	if r.Telemetry != nil {
		b = appendTelemetry(b, r.Telemetry)
	}
	if m := r.Matrix; m != nil {
		b = appendF64Rows(b, m.Bandwidth)
		b = appendF64Rows(b, m.Latency)
		b = binary.AppendUvarint(b, uint64(len(m.Valid)))
		for _, row := range m.Valid {
			b = binary.AppendUvarint(b, uint64(len(row)))
			for _, v := range row {
				b = append(b, boolByte(v))
			}
		}
		b = binary.AppendUvarint(b, m.Epoch)
		b = binary.AppendUvarint(b, m.Term)
	}
	if ra := r.Read; ra != nil {
		if ra.Of >= readKinds || ra.KeyCount < 0 || ra.KeyCount > len(ra.Entries) {
			return b, fmt.Errorf("collector: read answer of kind %d names %d of its %d entries channels",
				ra.Of, ra.KeyCount, len(ra.Entries))
		}
		b = binary.AppendUvarint(b, ra.Instance)
		b = binary.AppendUvarint(b, ra.Version)
		b = appendF64(b, ra.DiscoveredAt)
		b = append(b, flagBits(ra.NotModified), byte(ra.Of))
		b = binary.AppendUvarint(b, uint64(ra.KeyCount))
		b = binary.AppendUvarint(b, uint64(len(ra.Entries)))
		for i := range ra.Entries {
			e := &ra.Entries[i]
			of := ReadSummary // a host's entry is a summary
			if i < ra.KeyCount {
				of = ra.Of
			}
			b = append(b, boolByte(e.Failed))
			switch {
			case e.Failed:
			case of == ReadSummary:
				b = appendStat(b, &e.Stat)
			case of == ReadWindow:
				b = appendSamples(b, e.Window)
				b = appendF64(b, e.Age)
			default:
				b = appendF64(b, e.Age)
			}
		}
	}
	return b, nil
}

func appendF64Rows(b []byte, rows [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = appendF64(b, v)
		}
	}
	return b
}

func appendUpdate(b []byte, u *WatchUpdate) []byte {
	b = append(b, flagBits(u.Overflowed, u.Resync, u.Final, u.TopoChanged, u.Feed != nil, u.Summary != nil))
	b = binary.AppendUvarint(b, u.Seq)
	b = binary.AppendUvarint(b, u.Epoch)
	b = binary.AppendUvarint(b, u.Term)
	b = appendStat(b, &u.Stat)
	b = appendString(b, u.Err)
	if u.Feed != nil {
		b = AppendFeedPayload(b, u.Feed)
	}
	if u.Summary != nil {
		b = appendSummary(b, u.Summary)
	}
	return b
}

// appendList writes a list, each element by elem.
func appendList[T any](b []byte, list []T, elem func([]byte, *T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	for i := range list {
		b = elem(b, &list[i])
	}
	return b
}

func appendF64s(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

// appendMap writes m under the map rule, each entry by entry, in
// ascending key order.
func appendMap[K cmp.Ordered, V any](b []byte, m map[K]V, entry func([]byte, K, V) []byte) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = entry(b, k, m[k])
	}
	return b
}

// appendEntries writes a map held as a slice of entries under the map
// rule: nil is 0, anything else 1+count and the entries in the slice's
// order, which its producer keeps ascending.
func appendEntries[T any](b []byte, list []T, entry func([]byte, *T) []byte) []byte {
	if list == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(list))+1)
	for i := range list {
		b = entry(b, &list[i])
	}
	return b
}

func appendHealth(b []byte, m map[string]AgentHealth) []byte {
	return appendMap(b, m, func(b []byte, id string, h AgentHealth) []byte {
		return appendAgentHealth(appendString(b, id), &h)
	})
}

func appendAgentHealth(b []byte, h *AgentHealth) []byte {
	b = appendInt(appendInt(b, int(h.State)), h.ConsecutiveFailures)
	return binary.AppendUvarint(appendF64s(b, h.LastSuccess, h.LastAttempt, h.NextAttempt), h.Skipped)
}

func appendTopo(b []byte, t *WireTopo) []byte {
	b = appendList(b, t.Nodes, func(b []byte, n *WireNode) []byte {
		return appendF64s(appendInt(appendString(b, n.ID), n.Kind), n.InternalBW, n.ComputePower, n.MemoryBytes)
	})
	b = appendList(b, t.Links, func(b []byte, l *WireLink) []byte {
		return appendInt(appendF64s(appendString(appendString(b, l.A), l.B), l.Capacity, l.Latency), l.Global)
	})
	return appendF64(b, t.DiscoveredAt)
}

// AppendFeedPayload appends p's body in the wire layout ("feed" above):
// the form a feed update, a checkpoint and a history file carry it in.
func AppendFeedPayload(b []byte, p *FeedPayload) []byte {
	b = append(binary.AppendUvarint(b, p.Epoch), flagBits(p.Full, p.Topo != nil))
	b = appendInt(appendF64s(b, p.Now, p.HalfLife), p.WindowLen)
	b = binary.AppendUvarint(appendF64s(b, p.WindowAge, p.PollPeriod), p.Term)
	if p.Topo != nil {
		b = appendTopo(b, p.Topo)
	}
	b = appendEntries(b, p.Capacity, func(b []byte, e *ChannelCapacity) []byte { return appendF64(appendKey(b, e.Key), e.Bps) })
	b = appendEntries(b, p.Channels, func(b []byte, e *ChannelSamples) []byte {
		return appendSamples(appendKey(b, e.Key), e.Samples)
	})
	b = appendEntries(b, p.Loads, func(b []byte, e *NodeSamples) []byte {
		return appendSamples(appendString(b, string(e.Node)), e.Samples)
	})
	return appendEntries(b, p.Health, func(b []byte, e *NodeHealth) []byte {
		return appendAgentHealth(appendString(b, string(e.Node)), &e.Health)
	})
}

func appendF64r(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

func appendSamples(b []byte, samples []stats.Sample) []byte {
	b = binary.AppendUvarint(b, uint64(len(samples)))
	for _, s := range samples {
		b = appendF64r(appendF64r(b, s.Time), s.Value)
	}
	return b
}

func appendSummary(b []byte, s *RegionSummary) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(appendString(b, s.Region), s.Epoch), s.Term)
	b = appendF64s(b, s.GeneratedAt, s.MaxDataAge)
	b = appendList(b, s.Hosts, func(b []byte, h *RegionHost) []byte {
		return appendF64s(appendString(b, h.ID), h.Power, h.MemoryBytes, h.AccessBps, h.AvailableBps)
	})
	b = appendList(b, s.Borders, func(b []byte, br *RegionBorder) []byte {
		return appendF64(appendString(b, br.ID), br.InteriorBps)
	})
	return appendList(b, s.Pairs, func(b []byte, p *RegionPair) []byte {
		b = appendF64s(appendInt(appendString(b, p.Peer), p.Links), p.CapacityBps, p.AvailableBps)
		return appendF64(appendInt(b, p.HopCount), p.LatencySec)
	})
}

func appendTelemetry(b []byte, s *telemetry.Snapshot) []byte {
	b = appendMap(b, s.Counters, func(b []byte, name string, v uint64) []byte {
		return binary.AppendUvarint(appendString(b, name), v)
	})
	b = appendMap(b, s.Gauges, func(b []byte, name string, v float64) []byte {
		return appendF64(appendString(b, name), v)
	})
	b = appendMap(b, s.Quantiles, func(b []byte, name string, q telemetry.QuantileSnapshot) []byte {
		b = appendStat(appendString(b, name), &q.Stat)
		return appendInt(binary.AppendUvarint(b, q.Count), q.Window)
	})
	b = appendList(b, s.Spans, func(b []byte, sp *telemetry.SpanRecord) []byte {
		b = binary.AppendVarint(appendString(appendString(b, sp.Trace), sp.Name), sp.Start.Unix())
		b = binary.AppendVarint(binary.AppendUvarint(b, uint64(sp.Start.Nanosecond())), int64(sp.Duration))
		return appendMap(b, sp.Attrs, func(b []byte, k, v string) []byte { return appendString(appendString(b, k), v) })
	})
	b = binary.AppendUvarint(b, s.SpansStarted)
	return binary.AppendUvarint(b, s.SpansFinished)
}

// ---- decoding ----

// wireDec is a cursor over one frame's payload. The first failure
// sticks: every later read returns a zero value and a zero count, so
// decode functions read straight through and check err once.
type wireDec struct {
	b   []byte
	err error
	// left is how many entries of the section being read are still to
	// go, this one included (0 outside one); slab is where samples
	// carves sample lists from.
	left int
	slab []stats.Sample
}

func (d *wireDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformedFrame, what)
		d.b = nil
	}
}

// take returns the next n bytes without copying them.
func (d *wireDec) take(n int) []byte {
	if n > len(d.b) {
		d.fail("truncated field")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDec) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("varint overflows int")
		return 0
	}
	return int(v)
}

func (d *wireDec) f64() float64 {
	if p := d.take(8); p != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(p))
	}
	return 0
}

func (d *wireDec) f64r() float64 { return math.Float64frombits(bits.ReverseBytes64(d.uvarint())) }

// flags reads a flag byte and rejects bits beyond the defined ones.
func (d *wireDec) flags(defined int) byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	if p[0]>>defined != 0 {
		d.fail("undefined flag bit")
		return 0
	}
	return p[0]
}

// count reads a list length and checks it against the bytes that
// remain, each element taking at least minSize of them, before the
// caller allocates for it.
func (d *wireDec) count(minSize int) int { return d.bounded(d.uvarint(), minSize) }

func (d *wireDec) bounded(n uint64, minSize int) int {
	if n > uint64(len(d.b)/minSize) {
		d.fail("count exceeds the bytes remaining")
		return 0
	}
	return int(n)
}

func (d *wireDec) str() string { return string(d.take(d.count(1))) }

// wireNames are the values of the fields that name() reads: the op
// names and the watch kinds.
var wireNames = append(opNames(), opWatch, WatchVersion, WatchUtil, WatchLoad, WatchFeed, WatchRegionSummary)

// name is str for the fields whose values come from a small fixed set
// (op names, watch kinds): those decode without allocating.
func (d *wireDec) name() string {
	p := d.take(d.count(1))
	for _, s := range wireNames {
		if string(p) == s {
			return s
		}
	}
	return string(p)
}

func decodeMuxFrame(payload []byte, f *muxFrame) error {
	d := wireDec{b: payload}
	f.Stream = d.uvarint()
	f.Kind = d.int()
	has := d.flags(3)
	if has&1 != 0 {
		f.Req = d.request()
	}
	if has&2 != 0 {
		f.Resp = d.response()
	}
	if has&4 != 0 {
		f.Update = d.update()
	}
	return d.done("frame")
}

// done fails a decode that left bytes over after its what, and returns
// the decode's error.
func (d *wireDec) done(what string) error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("bytes left over after the " + what)
	}
	return d.err
}

func (d *wireDec) key() ChannelKey {
	return ChannelKey{Global: d.int(), Dir: graph.Dir(d.int())}
}

// readRequestFrame is a read request's envelope, body and first channel
// in one allocation, as readResponse is for the answer.
type readRequestFrame struct {
	req request
	rr  ReadRequest
	key [1]ChannelKey
}

func (d *wireDec) request() *request {
	op, budget, trace := d.name(), d.f64(), d.str()
	has := d.flags(3)
	var r *request
	var rf *readRequestFrame
	if has&4 != 0 {
		rf = new(readRequestFrame)
		r = &rf.req
	} else {
		r = new(request)
	}
	r.Op, r.BudgetMS, r.TraceID = op, budget, trace
	if has&1 != 0 {
		r.Watch = &WatchRequest{
			Kind:      d.name(),
			Key:       d.key(),
			Node:      d.str(),
			Span:      d.f64(),
			Threshold: d.f64(),
		}
	}
	if has&2 != 0 {
		r.Matrix = &MatrixRequest{
			Srcs:    d.nodeIDs(),
			Dsts:    d.nodeIDs(),
			TFKind:  d.int(),
			Span:    d.f64(),
			Horizon: d.f64(),
		}
	}
	if rf != nil {
		rr := &rf.rr
		rr.HaveInstance, rr.HaveVersion, rr.Span = d.uvarint(), d.uvarint(), d.f64()
		rr.Of = d.kind()
		rr.Discovered = d.flags(1) != 0
		switch n := d.count(keyWireSize); {
		case n == 1:
			rr.Keys = rf.key[:]
		case n > 1:
			rr.Keys = make([]ChannelKey, n)
		}
		for i := range rr.Keys {
			rr.Keys[i] = d.key()
		}
		rr.Hosts = d.nodeIDs()
		if mk, mh := d.uvarint(), d.uvarint(); mk > uint64(len(rr.Keys)) || mh > uint64(len(rr.Hosts)) {
			d.fail("more missing entries than listed")
		} else {
			rr.MissingKeys, rr.MissingHosts = int(mk), int(mh)
		}
		r.Read = rr
	}
	return r
}

// kind reads a ReadKind byte and rejects values this version does not
// define.
func (d *wireDec) kind() ReadKind {
	p := d.take(1)
	if p == nil {
		return 0
	}
	if p[0] >= readKinds {
		d.fail("undefined read kind")
		return 0
	}
	return ReadKind(p[0])
}

func (d *wireDec) nodeIDs() []graph.NodeID {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(d.str())
	}
	return ids
}

func (d *wireDec) stat() stats.Stat {
	return stats.Stat{
		Min:      d.f64(),
		Q1:       d.f64(),
		Median:   d.f64(),
		Q3:       d.f64(),
		Max:      d.f64(),
		Accuracy: d.f64(),
		Samples:  d.int(),
		Age:      d.f64(),
	}
}

// Minimum encoded sizes of the list elements, for count.
const (
	keyWireSize   = 2              // two varints
	sampleWireMin = 2              // two f64r
	statWireSize  = 7*8 + 1        // seven f64, varint
	healthWireMin = 1 + 2 + 24 + 1 // id length, two varints, three f64, uvarint
	nodeWireMin   = 1 + 1 + 24     // id length, varint, three f64
	linkWireMin   = 2 + 16 + 1     // two lengths, two f64, varint
	spanWireMin   = 2 + 3 + 1      // two lengths, three varints, a nil map
)

func (d *wireDec) response() *response {
	has := d.flags(5)
	var r *response
	var ra *ReadAnswer
	if has&16 != 0 {
		r, ra = newReadResponse(1)
	} else {
		r = new(response)
	}
	r.Leader = has&1 != 0
	r.Code, r.Err, r.RetryAfterMS, r.LeaderHint, r.Term = d.int(), d.str(), d.f64(), d.str(), d.uvarint()
	r.Health = d.health()
	if has&2 != 0 {
		r.Topo = d.topo()
	}
	if has&4 != 0 {
		r.Telemetry = d.telemetry()
	}
	if has&8 != 0 {
		r.Matrix = &MatrixAnswer{
			Bandwidth: d.f64Rows(),
			Latency:   d.f64Rows(),
			Valid:     d.boolRows(),
			Epoch:     d.uvarint(),
			Term:      d.uvarint(),
		}
	}
	if ra != nil {
		ra.Instance, ra.Version, ra.DiscoveredAt = d.uvarint(), d.uvarint(), d.f64()
		ra.NotModified = d.flags(1) != 0
		ra.Of = d.kind()
		keys := d.uvarint()
		// A failed entry is its flag byte alone.
		switch n := d.count(1); {
		case keys > uint64(n):
			d.fail("read answer names more channels than it has entries")
			ra.Entries = nil
		case n == 0:
			ra.Entries = nil
		case n == 1:
			ra.Entries = ra.Entries[:1]
		default:
			ra.Entries = make([]ReadEntry, n)
		}
		ra.KeyCount = int(min(keys, uint64(len(ra.Entries))))
		for i := range ra.Entries {
			if !d.entry(&ra.Entries[i], i < ra.KeyCount, ra.Of) {
				break
			}
		}
		r.Read = ra
	}
	return r
}

// entry decodes one read entry of a channel (key) or a host.
func (d *wireDec) entry(e *ReadEntry, key bool, of ReadKind) bool {
	failed := d.take(1)
	switch {
	case failed == nil:
		return false
	case failed[0] > 1:
		d.fail("read entry failure flag is neither 0 nor 1")
		return false
	case failed[0] == 1:
		e.Failed = true
	case !key || of == ReadSummary:
		e.Stat = d.stat()
	case of == ReadWindow:
		e.Window = d.samples()
		e.Age = d.f64()
	default:
		e.Age = d.f64()
	}
	return d.err == nil
}

// rowsShape reads a rows body's row count, then looks ahead over the
// rows without decoding their cells and reports the cell total, so the
// caller can back every row with one slab. The look-ahead checks each
// row length against the bytes that remain; the cursor stays at the
// first row.
func (d *wireDec) rowsShape(cellSize int) (rows, cells int) {
	rows = d.count(1)
	ahead := *d
	for i := 0; i < rows; i++ {
		n := ahead.count(cellSize)
		ahead.take(n * cellSize)
		cells += n
	}
	if ahead.err != nil {
		d.b, d.err = nil, ahead.err
		return 0, 0
	}
	return rows, cells
}

func (d *wireDec) f64Rows() [][]float64 {
	rows, cells := d.rowsShape(8)
	if rows == 0 {
		return nil
	}
	out := make([][]float64, rows)
	slab := make([]float64, cells)
	for i := range out {
		n := d.count(8)
		if n == 0 {
			continue
		}
		p := d.take(8 * n)
		out[i], slab = slab[:n:n], slab[n:]
		for j := range out[i] {
			out[i][j] = math.Float64frombits(binary.BigEndian.Uint64(p[8*j:]))
		}
	}
	return out
}

func (d *wireDec) boolRows() [][]bool {
	rows, cells := d.rowsShape(1)
	if rows == 0 {
		return nil
	}
	out := make([][]bool, rows)
	slab := make([]bool, cells)
	for i := range out {
		n := d.count(1)
		if n == 0 {
			continue
		}
		p := d.take(n)
		out[i], slab = slab[:n:n], slab[n:]
		for j, c := range p {
			if c > 1 {
				d.fail("matrix validity cell is neither 0 nor 1")
				return nil
			}
			out[i][j] = c == 1
		}
	}
	return out
}

func (d *wireDec) update() *WatchUpdate {
	has := d.flags(6)
	u := &WatchUpdate{
		Overflowed:  has&1 != 0,
		Resync:      has&2 != 0,
		Final:       has&4 != 0,
		TopoChanged: has&8 != 0,
		Seq:         d.uvarint(),
		Epoch:       d.uvarint(),
		Term:        d.uvarint(),
		Stat:        d.stat(),
		Err:         d.str(),
	}
	if has&16 != 0 {
		u.Feed = d.feed()
	}
	if has&32 != 0 {
		u.Summary = d.summary()
	}
	return u
}

// readMap decodes a map under the map rule, each entry, of at least
// minSize bytes, by entry.
func readMap[K cmp.Ordered, V any](d *wireDec, minSize int, entry func() (K, V)) map[K]V {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	count := d.bounded(n-1, minSize)
	m := make(map[K]V, count)
	var prev K
	for i := 0; i < count && d.err == nil; i++ {
		k, v := entry()
		if i > 0 {
			d.ascending(cmp.Compare(prev, k))
		}
		m[k], prev = v, k
	}
	return m
}

// ascending fails the decode unless c, the comparison of a map entry's
// key with the next one's, puts them in strictly ascending order.
func (d *wireDec) ascending(c int) {
	switch {
	case c == 0:
		d.fail("repeated map key")
	case c > 0:
		d.fail("map keys out of ascending order")
	}
}

// readEntries decodes a map held as a slice of entries (appendEntries),
// each entry, of at least minSize bytes, by entry; compare orders two
// decoded entries by key. No entries decode to nil, as an empty list
// does.
func readEntries[T any](d *wireDec, minSize int, entry func(*T), compare func(*T, *T) int) []T {
	out := entriesFor[T](d, minSize)
	for i := range out {
		if d.left = len(out) - i; d.err != nil {
			break
		}
		entry(&out[i])
		if i > 0 && d.err == nil {
			d.ascending(compare(&out[i-1], &out[i]))
		}
	}
	d.left = 0
	return out
}

// entriesFor reads the count of a map held as a slice of entries and
// returns the slice to decode them into: nil for none.
func entriesFor[T any](d *wireDec, minSize int) []T {
	n := d.uvarint()
	if n <= 1 {
		return nil
	}
	if count := d.bounded(n-1, minSize); count > 0 {
		return make([]T, count)
	}
	return nil
}

// nodeEntries is readEntries for entries keyed by node ID (the name,
// first), setting each entry's name by setNode. The names of one section
// share one string: the section's bytes, copied once.
func nodeEntries[T any](d *wireDec, minSize int, setNode func(*T, graph.NodeID), body func(*T)) []T {
	out := entriesFor[T](d, minSize)
	if out == nil {
		return nil
	}
	section := d.b
	spans := make([][2]int, len(out))
	var prev []byte
	for i := range out {
		if d.left = len(out) - i; d.err != nil {
			break
		}
		name := d.take(d.count(1))
		spans[i][0] = len(section) - len(d.b) - len(name)
		spans[i][1] = spans[i][0] + len(name)
		if i > 0 && d.err == nil {
			d.ascending(bytes.Compare(prev, name))
		}
		prev = name
		body(&out[i])
	}
	d.left = 0
	if d.err != nil {
		return out
	}
	names := string(section[:len(section)-len(d.b)])
	for i := range out {
		setNode(&out[i], graph.NodeID(names[spans[i][0]:spans[i][1]]))
	}
	return out
}

// readList decodes a list, each element, of at least minSize bytes, by
// elem.
func readList[T any](d *wireDec, minSize int, elem func() T) []T {
	n := d.count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (d *wireDec) health() map[string]AgentHealth {
	return readMap(d, healthWireMin, func() (string, AgentHealth) { return d.str(), d.agentHealth() })
}

func (d *wireDec) agentHealth() AgentHealth {
	return AgentHealth{State: HealthState(d.int()), ConsecutiveFailures: d.int(),
		LastSuccess: d.f64(), LastAttempt: d.f64(), NextAttempt: d.f64(), Skipped: d.uvarint()}
}

func (d *wireDec) topo() *WireTopo {
	return &WireTopo{
		Nodes: readList(d, nodeWireMin, func() WireNode {
			return WireNode{ID: d.str(), Kind: d.int(), InternalBW: d.f64(), ComputePower: d.f64(), MemoryBytes: d.f64()}
		}),
		Links: readList(d, linkWireMin, func() WireLink {
			return WireLink{A: d.str(), B: d.str(), Capacity: d.f64(), Latency: d.f64(), Global: d.int()}
		}),
		DiscoveredAt: d.f64(),
	}
}

// DecodeFeedPayload decodes one body AppendFeedPayload wrote, all of b
// and nothing else.
func DecodeFeedPayload(b []byte) (*FeedPayload, error) {
	d := wireDec{b: b}
	p := d.feed()
	return p, d.done("feed payload")
}

func (d *wireDec) feed() *FeedPayload {
	p := &FeedPayload{Epoch: d.uvarint()}
	has := d.flags(2)
	p.Full = has&1 != 0
	p.Now, p.HalfLife, p.WindowLen = d.f64(), d.f64(), d.int()
	p.WindowAge, p.PollPeriod, p.Term = d.f64(), d.f64(), d.uvarint()
	if has&2 != 0 {
		p.Topo = d.topo()
	}
	p.Capacity = readEntries(d, keyWireSize+8, func(e *ChannelCapacity) { e.Key, e.Bps = d.key(), d.f64() },
		func(a, b *ChannelCapacity) int { return compareKeys(a.Key, b.Key) })
	p.Channels = readEntries(d, keyWireSize+1, func(e *ChannelSamples) { e.Key, e.Samples = d.key(), d.samples() },
		func(a, b *ChannelSamples) int { return compareKeys(a.Key, b.Key) })
	p.Loads = nodeEntries(d, 2, func(e *NodeSamples, id graph.NodeID) { e.Node = id },
		func(e *NodeSamples) { e.Samples = d.samples() })
	p.Health = nodeEntries(d, healthWireMin, func(e *NodeHealth, id graph.NodeID) { e.Node = id },
		func(e *NodeHealth) { e.Health = d.agentHealth() })
	return p
}

// samples decodes a list of samples (the "sample" row above). Inside a
// section (d.left entries to go, this one included) the lists are
// carved from one slab, sized as if every entry left were this one's
// length, but never for more samples than the bytes left could hold: a
// delta's one sample per window costs one allocation per section.
func (d *wireDec) samples() []stats.Sample {
	n := d.count(sampleWireMin)
	if n == 0 {
		return nil
	}
	if cap(d.slab)-len(d.slab) < n {
		d.slab = make([]stats.Sample, 0, max(n, min(n*d.left, len(d.b)/(2*sampleWireMin))))
	}
	from := len(d.slab)
	for i := 0; i < n; i++ {
		d.slab = append(d.slab, stats.Sample{Time: d.f64r(), Value: d.f64r()})
	}
	return d.slab[from:len(d.slab):len(d.slab)]
}

func (d *wireDec) summary() *RegionSummary {
	return &RegionSummary{Region: d.str(), Epoch: d.uvarint(), Term: d.uvarint(),
		GeneratedAt: d.f64(), MaxDataAge: d.f64(),
		Hosts: readList(d, 1+32, func() RegionHost {
			return RegionHost{ID: d.str(), Power: d.f64(), MemoryBytes: d.f64(), AccessBps: d.f64(), AvailableBps: d.f64()}
		}),
		Borders: readList(d, 1+8, func() RegionBorder { return RegionBorder{ID: d.str(), InteriorBps: d.f64()} }),
		Pairs: readList(d, 1+1+16+1+8, func() RegionPair {
			return RegionPair{Peer: d.str(), Links: d.int(), CapacityBps: d.f64(), AvailableBps: d.f64(),
				HopCount: d.int(), LatencySec: d.f64()}
		}),
	}
}

func (d *wireDec) telemetry() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Counters: readMap(d, 2, func() (string, uint64) { return d.str(), d.uvarint() }),
		Gauges:   readMap(d, 1+8, func() (string, float64) { return d.str(), d.f64() }),
		Quantiles: readMap(d, 1+statWireSize+2, func() (string, telemetry.QuantileSnapshot) {
			return d.str(), telemetry.QuantileSnapshot{Stat: d.stat(), Count: d.uvarint(), Window: d.int()}
		}),
		Spans:         readList(d, spanWireMin, d.span),
		SpansStarted:  d.uvarint(),
		SpansFinished: d.uvarint(),
	}
}

func (d *wireDec) span() telemetry.SpanRecord {
	trace, name, sec, nsec := d.str(), d.str(), d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail("span start nanoseconds out of range")
	}
	return telemetry.SpanRecord{Trace: trace, Name: name, Start: time.Unix(sec, int64(nsec)),
		Duration: time.Duration(d.varint()), Attrs: readMap(d, 2, func() (string, string) { return d.str(), d.str() })}
}
