package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Bounded wire framing for the TCP query protocol. Each message is
//
//	[4-byte big-endian payload length][payload]
//	payload = [1-byte wire version][muxFrame envelope, codec.go]
//
// The explicit prefix exists so both ends can reject an oversized frame
// *before* allocating or decoding anything: a corrupt or hostile length
// must cost a bounded read and a typed error, never an unbounded
// allocation.
//
// Frames are stateless: every frame decodes on its own, from its own
// bytes, and neither end keeps codec state per connection. That buys
// three properties the protocol relies on:
//
//   - abort safety: a connection cut mid-frame — a failed write, a
//     killed replica — leaves nothing to resynchronize, so
//     reconnect-and-retry works from any frame boundary;
//   - bounded allocation: every count inside a frame is checked against
//     the bytes that remain in that frame before anything is allocated
//     (codec.go), so a peer cannot grow tables on the other side;
//   - no per-connection memory: a persistent gob encoder/decoder pair
//     was measured at 50 kB per connection end (+30 % live heap on the
//     benchmark's point-query workload), which this design does not pay.
//
// Version rule: the first payload byte names the layout of everything
// after it. There is no negotiation and no fallback: a frame with any
// other version — including a frame of the gob-stream format this
// replaced — fails with ErrWireVersion and the connection is dropped.
// Changing the layout means a new version byte and a flag day.

// wireVersion is the version byte of the layout in codec.go. The high
// bit is set on purpose: a gob stream starts with a message length,
// either a byte below 0x80 or a byte-count marker 0xF8–0xFF, so no
// frame of the old format can start with this byte. 0x81 was the layout
// before the "read" op (readwire.go) added a flag bit to the request and
// to the response; 0x82 the one that still carried the four scalar
// measurement ops (util, load, samples, age), which are reads now; 0x83
// the one that carried the feed payload, region summary and telemetry
// snapshot as length-prefixed gob blobs instead of codec.go bodies;
// 0x84 the one that wrote a map's entries in Go's map iteration order,
// where this one writes them in ascending key order and refuses any
// other.
const wireVersion = 0x85

// DefaultMaxFrame bounds one wire frame in bytes. Topology frames for
// very large domains are the biggest legitimate messages; 4 MiB covers
// tens of thousands of links with an order of magnitude to spare.
const DefaultMaxFrame = 4 << 20

// ErrFrameTooLarge is the typed rejection for a frame whose length
// prefix exceeds the configured cap — on read (corrupt or hostile
// prefix) or on write (a response that should never have grown so big).
var ErrFrameTooLarge = errors.New("collector: wire frame too large")

// ErrWireVersion is the typed rejection for a frame whose version byte
// is not wireVersion: a peer from the other side of a flag day.
var ErrWireVersion = errors.New("collector: unsupported wire version")

// ErrMalformedFrame is the typed rejection for a payload that does not
// decode: a count exceeding the bytes that remain, a truncated field,
// an out-of-range flag, or bytes left over after a complete frame.
var ErrMalformedFrame = errors.New("collector: malformed wire frame")

// maxPooledFrame caps what the buffer pool retains: a rare multi-
// megabyte topology frame must not pin its buffer for the life of the
// process. Typical measurement frames are well under a kilobyte.
const maxPooledFrame = 1 << 18

// frameBufPool recycles frame buffers in both directions. A written
// frame is dead the moment it hits the socket, a read one the moment it
// is decoded (the codec copies everything it keeps).
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		frameBufPool.Put(bp)
	}
}

// writeFrame encodes f as one length-prefixed frame on w, in a single
// Write.
func writeFrame(w io.Writer, f *muxFrame, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	bp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bp)
	b, err := appendMuxFrame(append((*bp)[:0], 0, 0, 0, 0, wireVersion), f)
	*bp = b
	if err != nil {
		return fmt.Errorf("collector: encoding frame: %w", err)
	}
	payload := len(b) - 4
	if payload > max {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, payload, max)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(payload))
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed frame from r into f, rejecting
// frames over max bytes without reading (or allocating) their payload.
// Nothing in f aliases the pooled read buffer after return.
func readFrame(r io.Reader, f *muxFrame, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	bp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bp)
	hdr := (*bp)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(max) {
		return fmt.Errorf("%w: prefix claims %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	payload := (*bp)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%w: empty payload", ErrMalformedFrame)
	}
	if payload[0] != wireVersion {
		return fmt.Errorf("%w: frame says %#x, this end speaks %#x", ErrWireVersion, payload[0], wireVersion)
	}
	return decodeMuxFrame(payload[1:], f)
}
