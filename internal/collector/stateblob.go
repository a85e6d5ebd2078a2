package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// The three cold state bodies — FeedPayload, RegionSummary and
// telemetry.Snapshot — ride inside the binary frame (codec.go) as a
// blob: a 4-byte big-endian length, then one self-contained gob stream.
// They are large, rare, and due to be replaced by the single versioned
// state encoding ROADMAP asks for, so they keep the encoding the
// checkpoint and history files share until then. Nothing else on the
// wire is gob, and a blob is only encoded when its pointer is set.

func appendStateBlob(b []byte, v any) ([]byte, error) {
	at := len(b)
	w := sliceWriter{append(b, 0, 0, 0, 0)}
	if err := gob.NewEncoder(&w).Encode(v); err != nil {
		return b, err
	}
	binary.BigEndian.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
	return w.b, nil
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// stateBlob decodes one blob into v. The gob decoder reads from the
// frame's own bytes, so what it can allocate is bounded by the blob's
// length the same way the rest of the frame is.
func (d *wireDec) stateBlob(v any) {
	hdr := d.take(4)
	if hdr == nil {
		return
	}
	r := bytes.NewReader(d.take(d.bounded(uint64(binary.BigEndian.Uint32(hdr)), 1)))
	if d.err != nil {
		return
	}
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		d.fail(fmt.Sprintf("state blob: %v", err))
	} else if r.Len() != 0 {
		d.fail("bytes left over after the state blob")
	}
}
