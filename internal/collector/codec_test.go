package collector

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// diffWire reports where a and b differ, or "" when they are the same
// wire value. Floats compare by their bits, so a NaN equals the same
// NaN; with gobZero set, -0 also equals +0, because gob omits a struct
// field that compares equal to zero and so turns -0 into +0. Nil and
// empty are different, as in reflect.DeepEqual. Unexported fields do
// not cross the wire and are not compared.
func diffWire(a, b reflect.Value, gobZero bool, path string) string {
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: types %s and %s", path, a.Type(), b.Type())
	}
	if t, ok := a.Interface().(time.Time); ok {
		if !t.Equal(b.Interface().(time.Time)) {
			return fmt.Sprintf("%s: %v != %v", path, a, b)
		}
		return ""
	}
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Float64bits(x) != math.Float64bits(y) && !(gobZero && x == y) {
			return fmt.Sprintf("%s: %#x != %#x", path, math.Float64bits(x), math.Float64bits(y))
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil %v != nil %v", path, a.IsNil(), b.IsNil())
		}
		if !a.IsNil() {
			return diffWire(a.Elem(), b.Elem(), gobZero, path)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Type().Field(i).IsExported() {
				continue // not on the wire
			}
			if d := diffWire(a.Field(i), b.Field(i), gobZero, path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: nil %v len %d != nil %v len %d", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffWire(a.Index(i), b.Index(i), gobZero, fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: nil %v len %d != nil %v len %d", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := diffWire(a.MapIndex(k), bv, gobZero, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v != %v", path, a, b)
		}
	}
	return ""
}

// frameDiff compares two frames bit for bit.
func frameDiff(a, b *muxFrame) string {
	return diffWire(reflect.ValueOf(a), reflect.ValueOf(b), false, "frame")
}

// viaCodec and viaGob send one frame through the wire codec and
// through the gob stream it replaced.
func viaCodec(f *muxFrame) (*muxFrame, error) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, f, 0); err != nil {
		return nil, err
	}
	out := new(muxFrame)
	return out, readFrame(&buf, out, 0)
}

func viaGob(f *muxFrame) (*muxFrame, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, err
	}
	out := new(muxFrame)
	return out, gob.NewDecoder(&buf).Decode(out)
}

// frameGen draws frames of every shape the wire carries.
type frameGen struct{ *rand.Rand }

var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42e6, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8_0000_dead_beef), // a NaN with a payload
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

func (g frameGen) f64() float64 {
	if g.Intn(3) == 0 {
		return oddFloats[g.Intn(len(oddFloats))]
	}
	return g.NormFloat64() * 1e6
}

func (g frameGen) str() string {
	return []string{"", "m-1", "timberline", "collector: unknown channel glink7/fwd", "héllo\x00"}[g.Intn(5)]
}

func (g frameGen) key() ChannelKey {
	return ChannelKey{Global: g.Intn(100) - 3, Dir: graph.Dir(g.Intn(3))}
}

func (g frameGen) stat() stats.Stat {
	if g.Intn(4) == 0 {
		return stats.Stat{}
	}
	return stats.Stat{Min: g.f64(), Q1: g.f64(), Median: g.f64(), Q3: g.f64(), Max: g.f64(),
		Accuracy: g.f64(), Samples: g.Intn(200) - 1, Age: g.f64()}
}

func (g frameGen) samples() []stats.Sample {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []stats.Sample{}
	}
	s := make([]stats.Sample, 1+g.Intn(150))
	for i := range s {
		s[i] = stats.Sample{Time: g.f64(), Value: g.f64()}
	}
	return s
}

func (g frameGen) nodes(n int) []graph.NodeID {
	if n == 0 {
		return [][]graph.NodeID{nil, {}}[g.Intn(2)]
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("edge%d-h%d", i/8, i%8))
	}
	ids[g.Intn(n)] = ""
	return ids
}

func (g frameGen) topo(nodes, links int) *WireTopo {
	t := &WireTopo{DiscoveredAt: g.f64()}
	for i := 0; i < nodes; i++ {
		t.Nodes = append(t.Nodes, WireNode{ID: fmt.Sprintf("n%d", i), Kind: g.Intn(3),
			InternalBW: g.f64(), ComputePower: g.f64(), MemoryBytes: g.f64()})
	}
	for i := 0; i < links; i++ {
		t.Links = append(t.Links, WireLink{A: fmt.Sprintf("n%d", g.Intn(nodes+1)), B: g.str(),
			Capacity: g.f64(), Latency: g.f64(), Global: g.Intn(1 << 20)})
	}
	if nodes == 0 && g.Intn(2) == 0 {
		t.Nodes, t.Links = []WireNode{}, []WireLink{}
	}
	return t
}

func (g frameGen) health() map[string]AgentHealth {
	switch g.Intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]AgentHealth{}
	}
	h := make(map[string]AgentHealth)
	for i := g.Intn(9); i >= 0; i-- {
		h[fmt.Sprintf("agent-%d", i)] = AgentHealth{State: HealthState(g.Intn(3)), ConsecutiveFailures: g.Intn(9),
			LastSuccess: g.f64(), LastAttempt: g.f64(), NextAttempt: g.f64(), Skipped: g.Uint64()}
	}
	h[""] = AgentHealth{LastSuccess: -1}
	return h
}

// matrix draws an answer of the given shape; ragged perturbs one row,
// which no handler should produce but the wire must carry to
// checkMatrixShape intact.
func (g frameGen) matrix(rows, cols int, ragged bool) *MatrixAnswer {
	m := &MatrixAnswer{Epoch: g.Uint64(), Term: uint64(g.Intn(4))}
	if rows == 0 && g.Intn(2) == 0 {
		m.Bandwidth, m.Latency, m.Valid = [][]float64{}, [][]float64{}, [][]bool{}
	}
	for i := 0; i < rows; i++ {
		bw, lat, ok := make([]float64, cols), make([]float64, cols), make([]bool, cols)
		for j := 0; j < cols; j++ {
			bw[j], lat[j], ok[j] = g.f64(), g.f64(), g.Intn(4) != 0
		}
		m.Bandwidth, m.Latency, m.Valid = append(m.Bandwidth, bw), append(m.Latency, lat), append(m.Valid, ok)
	}
	if ragged && rows > 0 {
		i := g.Intn(rows)
		m.Bandwidth[i] = append(m.Bandwidth[i], 1, 2)
		m.Valid[i] = nil
		m.Latency = m.Latency[:rows-1]
	}
	return m
}

func (g frameGen) keys(n int) []ChannelKey {
	if n == 0 {
		return [][]ChannelKey{nil, {}}[g.Intn(2)]
	}
	ks := make([]ChannelKey, n)
	for i := range ks {
		ks[i] = g.key()
	}
	return ks
}

// readAnswer draws a read answer of n entries of any kind (n 0: not
// modified, or an answer to an empty list).
func (g frameGen) readAnswer(n int) *ReadAnswer {
	return g.readAnswerOf(ReadKind(g.Intn(readKinds)), n)
}

func (g frameGen) readAnswerOf(of ReadKind, n int) *ReadAnswer {
	ra := &ReadAnswer{Instance: g.Uint64(), Version: uint64(g.Intn(1000)), DiscoveredAt: g.f64(),
		NotModified: n == 0 && g.Intn(2) == 0, Of: of, KeyCount: g.Intn(n + 1)}
	if n == 0 && g.Intn(2) == 0 {
		ra.Entries = []ReadEntry{}
	}
	for i := 0; i < n; i++ {
		var e ReadEntry
		switch {
		case g.Intn(5) == 0:
			e.Failed = true
		case i >= ra.KeyCount || of == ReadSummary:
			e.Stat = g.stat()
		case of == ReadWindow:
			e.Window, e.Age = g.samples(), g.f64()
		default:
			e.Age = g.f64()
		}
		ra.Entries = append(ra.Entries, e)
	}
	return ra
}

func (g frameGen) request() *request {
	ops := []string{"topo", "health", "stats", "ping", "watch", "matrix", "read", "", "util", "no-such-op"}
	r := &request{Op: ops[g.Intn(len(ops))], BudgetMS: g.f64(), TraceID: g.str()}
	if r.Op == "watch" || g.Intn(8) == 0 {
		kinds := []string{WatchVersion, WatchUtil, WatchLoad, WatchFeed, WatchRegionSummary, "", "bogus"}
		r.Watch = &WatchRequest{Kind: kinds[g.Intn(len(kinds))], Key: g.key(), Node: g.str(),
			Span: g.f64(), Threshold: g.f64()}
		if g.Intn(4) == 0 {
			r.Watch = &WatchRequest{}
		}
	}
	if r.Op == "matrix" || g.Intn(8) == 0 {
		r.Matrix = &MatrixRequest{Srcs: g.nodes(g.Intn(3) * g.Intn(33)), Dsts: g.nodes(g.Intn(3) * g.Intn(33)),
			TFKind: g.Intn(6) - 1, Span: g.f64(), Horizon: g.f64()}
	}
	if r.Op == "read" || g.Intn(8) == 0 {
		r.Read = &ReadRequest{HaveInstance: g.Uint64() >> uint(g.Intn(64)), HaveVersion: uint64(g.Intn(1000)),
			Span: g.f64(), Of: ReadKind(g.Intn(readKinds)), Discovered: g.Intn(2) == 0,
			Keys: g.keys(g.Intn(3) * g.Intn(33)), Hosts: g.nodes(g.Intn(3) * g.Intn(9))}
		r.Read.MissingKeys, r.Read.MissingHosts = g.Intn(len(r.Read.Keys)+1), g.Intn(len(r.Read.Hosts)+1)
		if g.Intn(4) == 0 {
			r.Read = &ReadRequest{}
		}
	}
	return r
}

func (g frameGen) response() *response {
	r := &response{Term: uint64(g.Intn(3)), Leader: g.Intn(2) == 0}
	switch g.Intn(9) {
	case 0: // typed refusal
		r.Code = g.Intn(codeMatrixUnsup+4) - 1
		r.Err, r.RetryAfterMS, r.LeaderHint = g.str(), g.f64(), g.str()
	case 1:
		r.Err = g.str()
	case 3:
		r.Topo = g.topo(g.Intn(2)*g.Intn(40), g.Intn(60))
	case 4:
		r.Health = g.health()
	case 5:
		snap := telemetry.Snapshot{Counters: map[string]uint64{"server.op.util": g.Uint64()},
			Gauges:       map[string]float64{"g": g.NormFloat64()},
			Spans:        []telemetry.SpanRecord{{Trace: "t", Name: "rpc.util", Start: time.Unix(g.Int63n(1e9), 0), Duration: 5, Attrs: map[string]string{"verdict": "admitted"}}},
			SpansStarted: 1}
		if g.Intn(3) == 0 {
			snap = telemetry.Snapshot{}
		}
		r.Telemetry = &snap
	case 6:
		shapes := [][2]int{{0, 0}, {1, 0}, {3, 0}, {1, 1}, {1, 64}, {64, 1}, {5, 7}, {64, 64}}
		s := shapes[g.Intn(len(shapes))]
		r.Matrix = g.matrix(s[0], s[1], g.Intn(5) == 0)
	default:
		r.Read = g.readAnswer(g.Intn(3) * g.Intn(33))
	}
	return r
}

func (g frameGen) update() *WatchUpdate {
	u := &WatchUpdate{Seq: g.Uint64() >> uint(g.Intn(64)), Epoch: uint64(g.Intn(1000)),
		Overflowed: g.Intn(4) == 0, Resync: g.Intn(4) == 0, Final: g.Intn(8) == 0, TopoChanged: g.Intn(4) == 0,
		Term: uint64(g.Intn(3))}
	switch g.Intn(5) {
	case 0:
		u.Stat = g.stat()
	case 1:
		u.Err = g.str()
	case 2:
		u.Feed = &FeedPayload{Epoch: u.Epoch, Full: g.Intn(2) == 0, Now: g.NormFloat64(), WindowLen: 150,
			Topo:     g.topo(g.Intn(5), g.Intn(5)),
			Capacity: []ChannelCapacity{{Key: g.key(), Bps: 1e8}},
			Channels: []ChannelSamples{{Key: g.key(), Samples: []stats.Sample{{Time: 1, Value: 2}}}},
			Loads:    []NodeSamples{{Node: "m-1", Samples: []stats.Sample{{Time: 1, Value: 0.5}}}},
			Health:   []NodeHealth{{Node: "m-1", Health: AgentHealth{LastSuccess: 4}}}}
		if g.Intn(3) == 0 {
			u.Feed = &FeedPayload{}
		}
	case 3:
		u.Summary = &RegionSummary{Region: "r0", Epoch: u.Epoch, GeneratedAt: g.NormFloat64(),
			Hosts:   []RegionHost{{ID: "h", Power: 1, AccessBps: 1e8}},
			Borders: []RegionBorder{{ID: "b", InteriorBps: 1e9}},
			Pairs:   []RegionPair{{Peer: "r1", Links: 2, CapacityBps: 1e9, HopCount: 3}}}
	}
	return u
}

func (g frameGen) frame() *muxFrame {
	f := &muxFrame{Stream: g.Uint64() >> uint(g.Intn(64))}
	switch g.Intn(12) {
	case 0:
		f.Kind = mfCancel
	case 1: // envelopes no well-behaved peer sends
		f.Kind = g.Intn(20) - 10
		if g.Intn(2) == 0 {
			f.Req, f.Resp, f.Update = g.request(), g.response(), g.update()
		}
	case 2, 3, 4:
		f.Kind, f.Req = mfRequest, g.request()
	case 5, 6:
		f.Kind, f.Update = mfUpdate, g.update()
	default:
		f.Kind, f.Resp = mfResponse, g.response()
	}
	return f
}

// hierRig is a collector over the benchmark's hier-300 network
// (topogen hier N=300 Seed=11, 264 hosts) carrying its twelve on/off
// flows, polled every 2 s for the given number of rounds.
func hierRig(t testing.TB, rounds int) *rig {
	t.Helper()
	tp, err := topogen.Generate(topogen.Spec{Kind: topogen.KindHier, N: 300, Seed: 11, Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRigOn(t, tp.Graph, 2)
	if err := r.col.Start(); err != nil {
		t.Fatal(err)
	}
	var hosts []graph.NodeID
	for _, id := range tp.Graph.Nodes() {
		if tp.Graph.Node(id).Kind == graph.Compute {
			hosts = append(hosts, id)
		}
	}
	for i, n := 0, len(hosts); i < 12; i++ {
		traffic.OnOff(r.net, hosts[(i*5)%n], hosts[(i*5+n/2)%n], traffic.OnOffConfig{
			Rate: float64(20+10*(i%3)) * 1e6, MeanOn: 6, MeanOff: 4, Seed: int64(100 + i)})
	}
	r.clk.Advance(float64(2 * rounds))
	return r
}

// feedPair returns a rig's Full payload and the delta one more poll
// round adds to it.
func feedPair(t testing.TB, r *rig) (full, delta *FeedPayload) {
	t.Helper()
	cur := &FeedCursor{}
	full, err := r.col.FeedSince(cur)
	if err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2)
	if delta, err = r.col.FeedSince(cur); err != nil || delta == nil || delta.Full {
		t.Fatalf("feed delta = %+v, %v", delta, err)
	}
	return full, delta
}

func feedFrame(p *FeedPayload) *muxFrame {
	return &muxFrame{Stream: 3, Kind: mfUpdate, Update: &WatchUpdate{Seq: 9, Epoch: p.Epoch, Feed: p}}
}

// liveSnapshot is a real registry's snapshot: counters, a gauge, a
// quantile, and finished spans with and without attributes.
func liveSnapshot() *telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Counter("server.op.read").Add(41)
	reg.Gauge("server.conns").Set(3)
	for i := 0; i < 20; i++ {
		reg.Quantile("server.handler_ms", 0).Observe(float64(i) / 7)
	}
	sp := reg.StartSpan("t-1", "rpc.read")
	sp.SetAttr("verdict", "admitted")
	sp.SetAttr("queue_wait_us", "12")
	sp.Finish()
	reg.StartSpan("t-2", "rpc.topo").Finish()
	snap := reg.Snapshot()
	return &snap
}

// TestCodecMatchesGob is the differential test of the wire codec: for
// seeded frames of every shape, real fig3 and hier-300 feed payloads
// (Full and delta) and a real telemetry snapshot, what the codec
// decodes must be what a gob stream of the same frame decoded to —
// including gob's nil-for-empty normalisation of lists, which callers
// rely on. (A federation region summary is checked the same way in
// internal/federation, which this package cannot import.) The known
// differences, which diffWire forgives:
//   - -0: gob sends a zero struct field as nothing, so a -0 field
//     arrives as +0 (a -0 map value keeps its sign); the codec keeps
//     every sign (gobZero).
//   - span Start: gob goes through time.MarshalBinary, the codec
//     through Unix seconds and nanoseconds, so the two decode to the
//     same instant in different zones, both without a monotonic
//     reading; times compare with Equal.
//   - nil vs empty map: none for these types. Both keep a nil map nil
//     and an empty one empty; gob would turn a nil map that is itself a
//     map value or list element into an empty one, and no type here
//     has such a map. A feed payload's sections are lists of entries,
//     and both decode an empty one to nil.
func TestCodecMatchesGob(t *testing.T) {
	g := frameGen{rand.New(rand.NewSource(12))}
	fig3Full, fig3Delta := feedPair(t, feedRig(t))
	hierFull, hierDelta := feedPair(t, hierRig(t, 20))
	frames := []*muxFrame{
		{}, {Kind: mfRequest, Req: &request{}}, {Kind: mfResponse, Resp: &response{}},
		{Kind: mfUpdate, Update: &WatchUpdate{}},
		respFrame(&response{Topo: &WireTopo{}, Matrix: &MatrixAnswer{}, Telemetry: &telemetry.Snapshot{}, Read: &ReadAnswer{}}),
		reqFrame(&request{Op: "read", Watch: &WatchRequest{}, Matrix: &MatrixRequest{}, Read: &ReadRequest{}}),
		// The biggest topology a default frame carries.
		respFrame(&response{Topo: g.topo(40000, 50000)}),
		feedFrame(fig3Full), feedFrame(fig3Delta), feedFrame(hierFull), feedFrame(hierDelta),
		feedFrame(&FeedPayload{Topo: &WireTopo{}, Capacity: []ChannelCapacity{{Key: ChannelKey{Global: 1}, Bps: math.Copysign(0, -1)}},
			Channels: []ChannelSamples{{Key: ChannelKey{Global: 1}, Samples: []stats.Sample{}}, {Key: ChannelKey{Global: 2}}},
			Loads:    []NodeSamples{}, Health: []NodeHealth{}}),
		respFrame(&response{Telemetry: liveSnapshot()}),
	}
	for i := 0; i < 3000; i++ {
		frames = append(frames, g.frame())
	}
	for i, f := range frames {
		got, err := viaCodec(f)
		if err != nil {
			t.Fatalf("frame %d: codec: %v\n%+v", i, err, f)
		}
		want, err := viaGob(f)
		if err != nil {
			t.Fatalf("frame %d: gob: %v\n%+v", i, err, f)
		}
		if d := diffWire(reflect.ValueOf(got), reflect.ValueOf(want), true, "frame"); d != "" {
			t.Fatalf("frame %d: codec and gob disagree at %s\nsent %+v", i, d, f)
		}
	}
}

// TestFullFeedFitsFrame: a hier-300 Full payload with full 512-sample
// windows, the biggest feed update the benchmark's network sends,
// encodes to no more bytes than gob makes of it and fits a default
// frame. It guards the f64r sample rule: with 8-byte floats the same
// payload is 7.6 MB, 2.6 times gob's 2.9 MB, and does not fit.
func TestFullFeedFitsFrame(t *testing.T) {
	full, err := hierRig(t, 512).col.FeedSince(&FeedCursor{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range full.Channels {
		if len(e.Samples) != 512 {
			t.Fatalf("channel %v holds %d samples, want a full window of 512", e.Key, len(e.Samples))
		}
	}
	var wire, gobbed bytes.Buffer
	if err := writeFrame(&wire, feedFrame(full), 0); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&gobbed).Encode(full); err != nil {
		t.Fatal(err)
	}
	if wire.Len() > gobbed.Len() {
		t.Fatalf("the Full payload's frame is %d bytes, gob makes %d of it", wire.Len(), gobbed.Len())
	}
	t.Logf("Full hier-300 payload: frame %d bytes, gob %d bytes, frame cap %d", wire.Len(), gobbed.Len(), DefaultMaxFrame)
}

// TestStateBodyRejectsRepeatedKey: a map that names a key twice does
// not decode, where gob kept the last value.
func TestStateBodyRejectsRepeatedKey(t *testing.T) {
	entry := appendHealth(nil, map[string]AgentHealth{"m-1": {LastSuccess: 4}})[1:] // without its count
	body := AppendFeedPayload(nil, &FeedPayload{})
	body[len(body)-1] = 1 + 2 // the nil health map becomes two entries
	body = append(append(body, entry...), entry...)
	if _, err := DecodeFeedPayload(body); err == nil || !strings.Contains(err.Error(), "repeated map key") {
		t.Fatalf("a health map naming m-1 twice: err = %v", err)
	}
}

// TestCodecFloatsBitExact: every float on the wire arrives with the
// bits it was sent with — where gob turned a -0 field into +0.
func TestCodecFloatsBitExact(t *testing.T) {
	for _, v := range oddFloats {
		st := stats.Stat{Min: v, Q1: v, Median: v, Q3: v, Max: v, Accuracy: v, Age: v}
		frames := []*muxFrame{
			reqFrame(&request{Op: "read", BudgetMS: v,
				Watch:  &WatchRequest{Span: v, Threshold: v},
				Matrix: &MatrixRequest{Span: v, Horizon: v},
				Read:   &ReadRequest{Span: v}}),
			respFrame(&response{RetryAfterMS: v,
				Health: map[string]AgentHealth{"a": {LastSuccess: v, LastAttempt: v, NextAttempt: v}},
				Topo: &WireTopo{DiscoveredAt: v,
					Nodes: []WireNode{{ID: "n", InternalBW: v, ComputePower: v, MemoryBytes: v}},
					Links: []WireLink{{A: "a", B: "b", Capacity: v, Latency: v}}},
				Matrix: &MatrixAnswer{Bandwidth: [][]float64{{v}}, Latency: [][]float64{{v, v}}},
				Read:   &ReadAnswer{DiscoveredAt: v, Entries: []ReadEntry{{Stat: st}, {Failed: true}}}}),
			respFrame(&response{Read: &ReadAnswer{Of: ReadWindow, KeyCount: 1,
				Entries: []ReadEntry{{Window: []stats.Sample{{Time: v, Value: v}}, Age: v}, {Stat: st}}}}),
			{Kind: mfUpdate, Update: &WatchUpdate{Stat: st}},
		}
		for _, f := range frames {
			got, err := viaCodec(f)
			if err != nil {
				t.Fatal(err)
			}
			if d := frameDiff(f, got); d != "" {
				t.Errorf("%#x: %s", math.Float64bits(v), d)
			}
		}
	}
}

// TestMatrixAnswerDecodesIntoOneSlab: the rows of a decoded matrix are
// slices of one backing array, not an allocation each (the allocation
// count could not hold otherwise).
func TestMatrixAnswerDecodesIntoOneSlab(t *testing.T) {
	g := frameGen{rand.New(rand.NewSource(3))}
	got, err := viaCodec(respFrame(&response{Matrix: g.matrix(64, 64, false)}))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got.Resp.Matrix.Bandwidth {
		if cap(row) != 64 {
			t.Fatalf("row %d can grow into its neighbour: cap %d", i, cap(row))
		}
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, got, 0); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(frame)
		var out muxFrame
		if err := readFrame(r, &out, 0); err != nil {
			t.Fatal(err)
		}
	})
	// response, answer, a row-header slice plus a slab per plane, and the
	// read buffer whenever the pool has none to give (under -race it
	// drops some on purpose) — against 192 for a slice per row.
	if allocs > 12 {
		t.Fatalf("decoding a 64x64 answer took %.0f allocations, want <= 12", allocs)
	}
}

// TestPointQueryAllocBudget: the codec's share of one point query —
// encode and decode of a one-entry read request and of its response —
// stays within 8 allocations (it was 2,411 with a gob stream per frame).
func TestPointQueryAllocBudget(t *testing.T) {
	req := reqFrame(&request{Op: "read", BudgetMS: 1999.5,
		Read: &ReadRequest{Span: 10, Keys: []ChannelKey{{Global: 7, Dir: 1}}}})
	resp := respFrame(&response{Read: &ReadAnswer{Instance: 1 << 60, Version: 150, KeyCount: 1,
		Entries: []ReadEntry{{Stat: stats.Stat{Min: 1e6, Q1: 2e6, Median: 3e6, Q3: 4e6, Max: 5e6,
			Accuracy: 0.9, Samples: 150, Age: 1.5}}}}})
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range []*muxFrame{req, resp} {
			buf.Reset()
			if err := writeFrame(&buf, f, 0); err != nil {
				t.Fatal(err)
			}
			var out muxFrame
			if err := readFrame(&buf, &out, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 8 {
		t.Fatalf("a point request/response pair took %.0f allocations through the codec, want <= 8", allocs)
	}
}

// TestReadAnswerAllocBudget: a "not modified" answer, the whole response
// of a warm remote query, decodes into the response and the answer and
// nothing else; one carrying summaries adds its entry slice.
func TestReadAnswerAllocBudget(t *testing.T) {
	g := frameGen{rand.New(rand.NewSource(5))}
	for _, tc := range []struct {
		name  string
		frame *muxFrame
		max   float64
	}{
		{"not modified", respFrame(&response{Read: &ReadAnswer{Instance: 1 << 60, Version: 150, DiscoveredAt: 2, NotModified: true}}), 2},
		{"24 entries", respFrame(&response{Read: g.readAnswerOf(ReadSummary, 24)}), 4},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, tc.frame, 0); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		r := bytes.NewReader(wire)
		allocs := testing.AllocsPerRun(200, func() {
			r.Reset(wire)
			var out muxFrame
			if err := readFrame(r, &out, 0); err != nil {
				t.Fatal(err)
			}
		})
		// The read buffer comes from the pool, which under -race drops
		// some on purpose.
		if allocs > tc.max+1 {
			t.Errorf("%s: decoding took %.0f allocations, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestReadAnswerShapeChecked: an answer that names more of its entries
// channels than it has, or a kind the layout has no encoding for, does
// not encode: a decoder could not tell where its entries end.
func TestReadAnswerShapeChecked(t *testing.T) {
	for name, ra := range map[string]*ReadAnswer{
		"more channels than entries": {KeyCount: 2, Entries: []ReadEntry{{}}},
		"a kind with no encoding":    {Of: readKinds},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, respFrame(&response{Read: ra}), 0); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestWireVersionIsNotThePreviousOne: a peer still on a layout before
// this one checks a frame's first payload byte against 0x81, 0x82, 0x83
// or 0x84, so a frame from this end fails its version check
// (ErrWireVersion there), never its decoder.
func TestWireVersionIsNotThePreviousOne(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, reqFrame(&request{Op: "read", Read: &ReadRequest{Keys: []ChannelKey{{Global: 1}}}}), 0); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != wireVersion || v == 0x81 || v == 0x82 || v == 0x83 || v == 0x84 {
		t.Fatalf("frames start with version %#x; this end speaks %#x and the previous layouts were 0x81 to 0x84", v, wireVersion)
	}
}

// BenchmarkFrameCodec is the codec rung of the latency ladder: one
// writeFrame plus one readFrame of a representative frame, no socket.
func BenchmarkFrameCodec(b *testing.B) {
	r := feedRig(b)
	topo, err := r.col.TopologyCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	_, delta := feedPair(b, r)
	hier := hierRig(b, 512)
	hierFull, hierDelta := feedPair(b, hier)
	key := keyFor(b, topo, "m-6", "timberline")
	var point ReadAnswer
	if err := NewReader(r.col).Read(context.Background(), &ReadRequest{Span: 10, Keys: []ChannelKey{key}}, &point); err != nil {
		b.Fatal(err)
	}
	// Twenty-four full 512-sample windows, as a Future query reads them.
	var keys []ChannelKey
	for _, e := range hierFull.Channels {
		keys = append(keys, e.Key)
	}
	slices.SortFunc(keys, func(x, y ChannelKey) int {
		return cmp.Or(cmp.Compare(x.Global, y.Global), cmp.Compare(x.Dir, y.Dir))
	})
	keys = keys[:24]
	var windows ReadAnswer
	if err := NewReader(hier.col).Read(context.Background(), &ReadRequest{Of: ReadWindow, Keys: keys}, &windows); err != nil {
		b.Fatal(err)
	}
	g := frameGen{rand.New(rand.NewSource(1))}
	cases := []struct {
		name  string
		frame *muxFrame
	}{
		{"ping", reqFrame(&request{Op: "ping"})},
		{"util", respFrame(&response{Read: &point})},
		{"topo-fig3", respFrame(&response{Topo: topoToWire(topo)})},
		{"matrix64", respFrame(&response{Matrix: g.matrix(64, 64, false)})},
		{"read-notmodified", respFrame(&response{Read: &ReadAnswer{Instance: 1 << 60, Version: 150, DiscoveredAt: 2, NotModified: true}})},
		{"read-24", respFrame(&response{Read: g.readAnswerOf(ReadSummary, 24)})},
		{"read-window-24-hier300", respFrame(&response{Read: &windows})},
		{"update-version", &muxFrame{Stream: 3, Kind: mfUpdate, Update: &WatchUpdate{Seq: 9, Epoch: 150}}},
		{"update-feed-delta", feedFrame(delta)},
		{"update-feed-delta-hier300", feedFrame(hierDelta)},
		{"update-feed-full-hier300", feedFrame(hierFull)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := writeFrame(&buf, tc.frame, 0); err != nil {
				b.Fatal(err)
			}
			wire := buf.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := writeFrame(&buf, tc.frame, 0); err != nil {
					b.Fatal(err)
				}
				var out muxFrame
				if err := readFrame(&buf, &out, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}

// TestStateBodiesAreCanonical: a state body encodes to the same bytes
// every time. A hier-300 Full payload, a delta and a checkpoint body
// are each encoded twice, the checkpoint from two saves (whose bodies
// differ only in the save times they start with). Go's map iteration
// order made every one of them differ.
func TestStateBodiesAreCanonical(t *testing.T) {
	r := hierRig(t, 20)
	full, delta := feedPair(t, r)
	for _, tc := range []struct {
		name string
		p    *FeedPayload
	}{{"Full payload", full}, {"delta", delta}} {
		if a, b := AppendFeedPayload(nil, tc.p), AppendFeedPayload(nil, tc.p); !bytes.Equal(a, b) {
			t.Fatalf("a hier-300 %s encodes to two byte strings (%d and %d bytes)", tc.name, len(a), len(b))
		}
	}
	if len(r.col.Health()) == 0 || len(full.Capacity) == 0 || len(full.Loads) == 0 {
		t.Fatalf("the Full payload has empty sections: %d capacities, %d loads", len(full.Capacity), len(full.Loads))
	}
	body := func() []byte {
		var file bytes.Buffer
		if err := r.col.SaveCheckpoint(&file); err != nil {
			t.Fatal(err)
		}
		b, err := readStateFile(&file, "checkpoint", checkpointMagic, CheckpointVersion)
		if err != nil {
			t.Fatal(err)
		}
		d := wireDec{b: b}
		d.f64()    // SavedAt
		d.varint() // SavedAtWallNanos
		if d.err != nil {
			t.Fatal(d.err)
		}
		return d.b
	}
	a, b := body(), body()
	if !bytes.Equal(a, b) {
		t.Fatalf("two checkpoints of one state differ past their save times (%d and %d bytes)", len(a), len(b))
	}
	d := wireDec{b: a}
	d.uvarint() // Polls
	d.uvarint() // PollErrors
	d.uvarint() // Discoveries
	if n := d.uvarint(); n < 100 {
		t.Fatalf("the checkpoint carries %d counter baselines, want hier-300's", n)
	}
}
