package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"testing"
)

func reqFrame(r *request) *muxFrame {
	return &muxFrame{Stream: 1, Kind: mfRequest, Req: r}
}

func respFrame(r *response) *muxFrame {
	return &muxFrame{Stream: 1, Kind: mfResponse, Resp: r}
}

// TestFrameRoundTrip: request and response frames survive the wire.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{Op: "ping", BudgetMS: 43.5, TraceID: "t-7"}
	if err := writeFrame(&buf, reqFrame(&in), 0); err != nil {
		t.Fatal(err)
	}
	var out muxFrame
	if err := readFrame(&buf, &out, 0); err != nil {
		t.Fatal(err)
	}
	if out.Stream != 1 || out.Kind != mfRequest || out.Req == nil || *out.Req != in {
		t.Fatalf("round trip: got %+v (req %+v), want %+v", out, out.Req, in)
	}
}

// TestFrameIndependentStreams: each frame decodes from its own bytes
// alone, so a reader can start at any frame boundary — the property
// that makes reconnect-after-abort safe.
func TestFrameIndependentStreams(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&buf, reqFrame(&request{Op: "ping"}), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Skip the first frame entirely, then decode the second from the
	// boundary.
	var hdr [4]byte
	if _, err := io.ReadFull(&buf, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf.Next(int(n))
	var out muxFrame
	if err := readFrame(&buf, &out, 0); err != nil {
		t.Fatalf("decoding from a later frame boundary: %v", err)
	}
	if out.Req == nil || out.Req.Op != "ping" {
		t.Fatalf("got %+v", out)
	}
}

// TestFrameOversizedWriteRejected: an over-limit message is refused at
// encode time with the typed error.
func TestFrameOversizedWriteRejected(t *testing.T) {
	var buf bytes.Buffer
	big := response{Err: string(make([]byte, 4096))}
	err := writeFrame(&buf, respFrame(&big), 128)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame still wrote %d bytes", buf.Len())
	}
}

// TestFrameHostilePrefixRejected: a length prefix claiming a huge
// payload is rejected before any allocation or payload read.
func TestFrameHostilePrefixRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFF_FFFF) // claims ~4 GiB
	r := &countingReader{r: bytes.NewReader(hdr[:])}
	var out muxFrame
	err := readFrame(r, &out, DefaultMaxFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if r.n > 4 {
		t.Fatalf("read %d bytes past the rejected prefix", r.n)
	}
}

// TestFrameTruncatedPayload: a frame cut off mid-payload fails with an
// I/O error, not a hang or a panic.
func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, reqFrame(&request{Op: "topo"}), 0); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	var out muxFrame
	err := readFrame(bytes.NewReader(cut), &out, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: got %v, want ErrUnexpectedEOF", err)
	}
}

// rawFrame prefixes payload with its length.
func rawFrame(payload ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestFrameCorruptPayload: a well-sized payload that is not a frame of
// this version errors cleanly, with the error that names why.
func TestFrameCorruptPayload(t *testing.T) {
	var good bytes.Buffer
	if err := writeFrame(&good, reqFrame(&request{Op: "topo", TraceID: "trace-1"}), 0); err != nil {
		t.Fatal(err)
	}
	body := good.Bytes()[4:]

	var oldFormat bytes.Buffer
	if err := gob.NewEncoder(&oldFormat).Encode(reqFrame(&request{Op: "ping"})); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"garbage", []byte("\xff\xfe\xfdnot a frame"), ErrWireVersion},
		{"old gob frame", oldFormat.Bytes(), ErrWireVersion},
		{"next version", append([]byte{wireVersion + 1}, body[1:]...), ErrWireVersion},
		// The layout before the read op: a peer from the other side of
		// that flag day is told so, whichever end it is. Its frames are
		// refused here by their first byte, and ours there the same way
		// (TestWireVersionIsNotThePreviousOne).
		{"previous version", append([]byte{0x81}, body[1:]...), ErrWireVersion},
		// The layout that wrote map entries in map iteration order.
		{"map-order version", append([]byte{0x84}, body[1:]...), ErrWireVersion},
		{"empty", nil, ErrMalformedFrame},
		{"version only", []byte{wireVersion}, ErrMalformedFrame},
		{"trailing byte", append(append([]byte{}, body...), 0), ErrMalformedFrame},
		{"cut inside a field", body[:len(body)-5], ErrMalformedFrame},
		{"undefined envelope flag", []byte{wireVersion, 1, 2, 0x08}, ErrMalformedFrame},
		// Stream 1, kind request, Req set, op length 2^62.
		{"hostile string length", []byte{wireVersion, 1, 2, 1,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, ErrMalformedFrame},
	}
	for _, tc := range cases {
		var out muxFrame
		err := readFrame(bytes.NewReader(rawFrame(tc.payload...)), &out, 0)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// hostileCounts is one 128-byte frame per list in the layout, each
// claiming far more elements than the frame has bytes for.
func hostileCounts() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<40)
	pad := func(p []byte) []byte { return rawFrame(append(p, make([]byte, 128-4-len(p))...)...) }
	reqHead := []byte{wireVersion, 1, 2, 1} // stream 1, kind request, Req set
	// op "", budget, trace "", then the body flags.
	head := append(append(append([]byte{}, reqHead...), 0), make([]byte, 8)...)
	head = append(head, 0)
	matrixReq := append(append([]byte{}, head...), 2)
	readReq := append(append([]byte{}, head...), 4)
	// Have 0/0, span, kind and flags, up to the Keys count.
	readReq = append(readReq, 0, 0)
	readReq = append(readReq, make([]byte, 8)...)
	readReq = append(readReq, 0, 0)
	// Response up to the health count: flags, code, err, retry, hint,
	// term.
	respHead := func(flags byte) []byte {
		p := []byte{wireVersion, 1, 4, 2, flags, 0, 0}
		p = append(p, make([]byte, 8)...)
		return append(p, 0, 0)
	}
	// Health empty, then instance, version, discovery time, the answer's
	// flags and kind, and its channel count.
	readAns := func(of, keys byte) []byte {
		p := append(respHead(16), 0, 1, 1)
		p = append(p, make([]byte, 8)...)
		return append(p, 0, of, keys)
	}
	return map[string][]byte{
		"matrix srcs":  pad(append(matrixReq, huge...)),
		"health":       pad(append(respHead(0), huge...)),
		"topo nodes":   pad(append(append(respHead(2), 0), huge...)),
		"matrix rows":  pad(append(append(respHead(8), 0), huge...)),
		"matrix row":   pad(append(append(respHead(8), 0, 1), huge...)),
		"read keys":    pad(append(readReq, huge...)),
		"read hosts":   pad(append(append(readReq, 0), huge...)),
		"read entries": pad(append(readAns(0, 0), huge...)),
		// One answered window entry, up to its sample count.
		"read window": pad(append(append(readAns(1, 1), 1, 0), huge...)),
	}
}

// TestHostileCountsRejectedBeforeAllocation: a count that exceeds the
// bytes remaining in its frame is a typed error, and rejecting it costs
// a handful of small allocations (the error), never one sized by the
// count.
func TestHostileCountsRejectedBeforeAllocation(t *testing.T) {
	for name, frame := range hostileCounts() {
		if len(frame) != 128 {
			t.Fatalf("%s: fixture is %d bytes, want 128", name, len(frame))
		}
		var err error
		r := bytes.NewReader(frame)
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset(frame)
			var out muxFrame
			err = readFrame(r, &out, 0)
		})
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: got %v, want ErrMalformedFrame", name, err)
		}
		if allocs > 8 {
			t.Errorf("%s: rejecting a 128-byte hostile frame took %.0f allocations", name, allocs)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
