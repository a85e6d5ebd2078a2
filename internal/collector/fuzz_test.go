package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// fuzzFrame is the body both frame fuzz targets share. Hostile input —
// a wrong version, lying counts, truncation, trailing bytes — must
// produce an error, never a panic. A frame the decoder accepts must
// re-encode, decode again to the same value, and must not have
// allocated more list elements than it had bytes to pay for.
func fuzzFrame(t *testing.T, data []byte) {
	const maxFrame = 1 << 16
	var mf muxFrame
	if err := readFrame(bytes.NewReader(data), &mf, maxFrame); err != nil {
		return
	}
	if n := frameElements(&mf); n > len(data) {
		t.Fatalf("a %d-byte frame decoded to %d list elements", len(data), n)
	}
	var out bytes.Buffer
	if err := writeFrame(&out, &mf, 0); err != nil {
		t.Fatalf("accepted frame does not re-encode: %v (%+v)", err, mf)
	}
	var again muxFrame
	if err := readFrame(&out, &again, 0); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v (%+v)", err, mf)
	}
	if d := frameDiff(&mf, &again); d != "" {
		t.Fatalf("frame changed across a re-encode at %s:\n%+v\n%+v", d, mf, again)
	}
}

// frameElements counts the list elements and map entries a decoded
// frame holds outside its state blobs.
func frameElements(mf *muxFrame) int {
	n := 0
	if r := mf.Req; r != nil && r.Matrix != nil {
		n += len(r.Matrix.Srcs) + len(r.Matrix.Dsts)
	}
	if r := mf.Req; r != nil && r.Read != nil {
		n += len(r.Read.Keys) + len(r.Read.Hosts)
	}
	if r := mf.Resp; r != nil && r.Read != nil {
		n += len(r.Read.Entries)
		for _, e := range r.Read.Entries {
			n += len(e.Window)
		}
	}
	if r := mf.Resp; r != nil {
		n += len(r.Health)
		if r.Topo != nil {
			n += len(r.Topo.Nodes) + len(r.Topo.Links)
		}
		if m := r.Matrix; m != nil {
			n += len(m.Bandwidth) + len(m.Latency) + len(m.Valid)
			for _, row := range m.Bandwidth {
				n += len(row)
			}
			for _, row := range m.Latency {
				n += len(row)
			}
			for _, row := range m.Valid {
				n += len(row)
			}
		}
	}
	return n
}

func addFrames(f *testing.F, frames ...*muxFrame) {
	for _, mf := range frames {
		var buf bytes.Buffer
		if err := writeFrame(&buf, mf, 0); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-2]) // truncated
	}
	hostile := make([]byte, 4)
	binary.BigEndian.PutUint32(hostile, 0xFFFF_FFFF)
	f.Add(hostile)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 1, 2})               // truncated payload
	f.Add(rawFrame(wireVersion+1, 1, 2, 0))       // wrong version
	f.Add(rawFrame(wireVersion, 1, 8, 0, 0))      // trailing byte after a cancel
	f.Add(rawFrame(0x40, 0xff, 0x81, 0x03, 0x01)) // what a gob stream starts like
	for _, frame := range hostileCounts() {
		f.Add(frame)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the wire-frame reader, seeded
// with request and response frames.
func FuzzReadFrame(f *testing.F) {
	addFrames(f,
		reqFrame(&request{Op: "read", BudgetMS: 12.5, Read: &ReadRequest{Span: 5, Of: ReadWindow, Keys: []ChannelKey{{Global: 3}}}}),
		reqFrame(&request{Op: "topo", TraceID: "t-1"}),
		respFrame(&response{Code: codeOK, Read: &ReadAnswer{Instance: 9, Version: 4, Of: ReadWindow, KeyCount: 1,
			Entries: []ReadEntry{{Window: []stats.Sample{{Time: 1, Value: 2e6}, {Time: 3, Value: 4e6}}, Age: 1.5}}}}),
		respFrame(&response{Err: "collector: load shed (retry after 50ms)", Code: codeShed, RetryAfterMS: 50}),
		respFrame(&response{Topo: topoToWire(fakeTopo()), Term: 3, Leader: true}),
		respFrame(&response{Matrix: &MatrixAnswer{
			Bandwidth: [][]float64{{1, 2}, {3, 4}},
			Latency:   [][]float64{{1, 2}, {3, 4}},
			Valid:     [][]bool{{true, false}, {true, true}},
			Epoch:     9,
		}}),
	)
	f.Fuzz(fuzzFrame)
}

// FuzzReadMuxFrame is FuzzReadFrame seeded with the envelope's other
// arms: watch requests, refusals, updates with and without a state
// blob, cancels, wild stream IDs and unknown kinds.
func FuzzReadMuxFrame(f *testing.F) {
	addFrames(f,
		&muxFrame{Stream: 2, Kind: mfRequest,
			Req: &request{Op: "watch", Watch: &WatchRequest{Kind: WatchUtil, Key: ChannelKey{Global: 1}, Span: 5, Threshold: 1e6}}},
		&muxFrame{Stream: 2, Kind: mfResponse,
			Resp: &response{Err: "collector: too many subscriptions", Code: codeWatchLimit}},
		&muxFrame{Stream: 2, Kind: mfUpdate,
			Update: &WatchUpdate{Seq: 7, Epoch: 41, Overflowed: true, Stat: stats.Exact(42e6)}},
		&muxFrame{Stream: 9, Kind: mfUpdate, Update: &WatchUpdate{Final: true}},
		&muxFrame{Stream: 3, Kind: mfUpdate, Update: &WatchUpdate{Seq: 1, Epoch: 2,
			Summary: &RegionSummary{Region: "r0", Epoch: 2, Hosts: []RegionHost{{ID: "h", Power: 1}}}}},
		&muxFrame{Stream: 2, Kind: mfCancel},
		&muxFrame{Stream: 1<<64 - 1, Kind: -7},
		reqFrame(&request{Op: "read", BudgetMS: 1999, Read: &ReadRequest{HaveInstance: 1<<63 + 5, HaveVersion: 150, Span: 10,
			Keys: []ChannelKey{{Global: 3}, {Global: 3, Dir: 1}, {Global: 7}}, Hosts: []graph.NodeID{"m-1", "m-6"}}}),
		respFrame(&response{Read: &ReadAnswer{Instance: 1<<63 + 5, Version: 150, DiscoveredAt: 2, NotModified: true}}),
		respFrame(&response{Term: 2, Leader: true, Read: &ReadAnswer{Instance: 1<<63 + 5, Version: 151, DiscoveredAt: 2,
			KeyCount: 1, Entries: []ReadEntry{{Stat: stats.Exact(42e6)}, {Failed: true}}}}),
	)
	f.Fuzz(fuzzFrame)
}

// stateBodyAllocPerByte bounds what a state body or file may allocate
// per input byte while it is read, beyond a fixed stateBodyAllocFloor.
// The costliest legal input is a map of empty entries: two or three
// bytes on the wire against a map slot of 40 bytes, rounded up to a
// power-of-two table.
const (
	stateBodyAllocPerByte = 64
	stateBodyAllocFloor   = 64 << 10
)

// allocated reports the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzStateBody decodes data as one state body. A body that decodes
// must re-encode and decode to the same value, bit for bit.
func fuzzStateBody[T any](t *testing.T, name string, data []byte, dec func(*wireDec) T, enc func([]byte, T) []byte) {
	var v T
	var err error
	alloc := allocated(func() {
		d := wireDec{b: data}
		v = dec(&d)
		err = d.done(name)
	})
	if limit := stateBodyAllocPerByte*uint64(len(data)) + stateBodyAllocFloor; alloc > limit {
		t.Fatalf("%s: a %d-byte body allocated %d bytes, over %d", name, len(data), alloc, limit)
	}
	if err != nil {
		return
	}
	d := wireDec{b: enc(nil, v)}
	again := dec(&d)
	if err := d.done(name); err != nil {
		t.Fatalf("%s: accepted body does not decode after a re-encode: %v", name, err)
	}
	if diff := diffWire(reflect.ValueOf(v), reflect.ValueOf(again), false, name); diff != "" {
		t.Fatalf("%s: body changed across a re-encode at %s", name, diff)
	}
}

// FuzzStateBody feeds arbitrary bytes to the state-body decoders (feed
// payload, region summary, telemetry snapshot, checkpoint dump) and to
// the checkpoint and history readers, the readers both as they come
// and behind a valid header and checksum so the fuzzer reaches their
// bodies. Nothing may panic or allocate more than a constant times its
// input; a body that decodes must survive a re-encode unchanged.
func FuzzStateBody(f *testing.F) {
	r := feedRig(f)
	full, delta := feedPair(f, r)
	for _, p := range []*FeedPayload{full, delta, {}} {
		f.Add(AppendFeedPayload(nil, p))
	}
	f.Add(appendSummary(nil, &RegionSummary{Region: "r0", Epoch: 2, Hosts: []RegionHost{{ID: "h", Power: 1}},
		Borders: []RegionBorder{{ID: "b", InteriorBps: 1e9}}, Pairs: []RegionPair{{Peer: "r1", Links: 2}}}))
	f.Add(appendTelemetry(nil, liveSnapshot()))
	f.Add(appendCheckpoint(nil, &checkpointDump{SavedAt: 40, Polls: 20, Counters: r.col.counters, State: *full}))
	var ckpt, hist bytes.Buffer
	if err := r.col.SaveCheckpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	if err := r.col.SaveHistory(&hist); err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt.Bytes())
	f.Add(hist.Bytes())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 3, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStateBody(t, "feed payload", data, (*wireDec).feed, AppendFeedPayload)
		fuzzStateBody(t, "region summary", data, (*wireDec).summary, appendSummary)
		fuzzStateBody(t, "telemetry snapshot", data, (*wireDec).telemetry, appendTelemetry)
		fuzzStateBody(t, "checkpoint", data, (*wireDec).checkpoint, appendCheckpoint)

		files := map[string][]byte{"raw": data}
		for magic, version := range map[string]uint64{checkpointMagic: CheckpointVersion, historyMagic: historyVersion} {
			files[magic] = appendStateFile(nil, magic, version, func(b []byte) []byte { return append(b, data...) })
		}
		for name, file := range files {
			alloc := allocated(func() {
				col := New(Config{Clock: simclock.New(), PollPeriod: 2})
				if _, err := col.RestoreCheckpoint(bytes.NewReader(file)); err != nil {
					if _, terr := col.TopologyCtx(context.Background()); terr == nil {
						t.Fatalf("%s: a refused checkpoint left a topology behind", name)
					}
				}
				LoadHistory(bytes.NewReader(file))
			})
			// Reading the file (a bufio buffer, a growing body) and
			// building the state from an accepted one come on top.
			if limit := 4*stateBodyAllocPerByte*uint64(len(file)) + 4*stateBodyAllocFloor; alloc > limit {
				t.Fatalf("%s: readers allocated %d bytes for a %d-byte file, over %d", name, alloc, len(file), limit)
			}
		}
	})
}
