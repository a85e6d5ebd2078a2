package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Checkpoint/warm-restart: a collector can serialize its full state —
// topology, measurement windows, counter baselines, per-agent health,
// poll statistics — and a restarted collector can restore it and answer
// queries immediately, with honest data ages that include the downtime,
// instead of erroring through a cold discovery-and-poll warmup.
//
// A checkpoint, like a history file (history.go), is a state file: a
// magic string, a uvarint format version, the CRC-32 (IEEE) of the body
// as 4 bytes big-endian, and a body in codec.go's layout. The header and
// the checksum are checked before the body is decoded, and the body is
// decoded whole before anything is applied, so a corrupt, truncated or
// incompatible file is rejected loudly rather than half-applied. A
// checkpoint's body is
//
//	f64 SavedAt, varint SavedAtWallNanos, uvarint Polls, PollErrors,
//	Discoveries, list<key, f64 At, uvarint Octets, flags{Valid}>
//	Counters, feed State (a Full payload)

// checkpointMagic identifies a collector checkpoint.
const checkpointMagic = "REMOS-CKPT"

// CheckpointVersion is the current checkpoint format version. Restores
// reject any other version: state formats evolve and a silent
// misdecode is worse than a cold start. Versions 1 and 2 were gob;
// version 3 wrote the feed body of wire 0x84, its maps and counter table
// in map iteration order.
const CheckpointVersion = 4

// checkpointDump is the serialized collector: the measurement state as
// a Full feed payload, and around it what the feed does not carry.
type checkpointDump struct {
	// SavedAt is the virtual time of the save; SavedAtWallNanos is the
	// wall clock (UnixNano) at the same moment, letting a restarting
	// daemon translate real downtime into virtual seconds.
	SavedAt          float64
	SavedAtWallNanos int64

	Polls       uint64
	PollErrors  uint64
	Discoveries uint64

	// Counters are the valid counter baselines, in ascending key order.
	Counters []channelCounter
	State    FeedPayload
}

// channelCounter is one channel's counter baseline in a checkpoint.
type channelCounter struct {
	Key ChannelKey
	counterState
}

// appendStateFile appends a state file's header to b, then the body
// that body appends, and fills in the checksum.
func appendStateFile(b []byte, magic string, version uint64, body func([]byte) []byte) []byte {
	b = binary.AppendUvarint(append(b, magic...), version)
	at := len(b)
	b = body(append(b, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(b[at:], crc32.ChecksumIEEE(b[at+4:]))
	return b
}

// readStateFile reads a state file, checks its header, naming what is
// wrong as a "what", and returns the body once its checksum holds.
func readStateFile(r io.Reader, what, magic string, version uint64) ([]byte, error) {
	file, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("collector: reading %s: %w", what, err)
	}
	if !bytes.HasPrefix(file, []byte(magic)) {
		// A gob-era file spells the magic inside its first message.
		if bytes.Contains(file[:min(len(file), 256)], []byte(magic)) {
			return nil, fmt.Errorf("collector: unsupported %s version: a gob file from before version %d", what, version)
		}
		return nil, fmt.Errorf("collector: not a collector %s: want a %s v%d header, read %q",
			what, magic, version, file[:min(len(file), len(magic))])
	}
	d := wireDec{b: file[len(magic):]}
	v, sum := d.uvarint(), d.take(4)
	switch {
	case d.err != nil:
		return nil, fmt.Errorf("collector: reading %s header: %w", what, d.err)
	case v != version:
		return nil, fmt.Errorf("collector: unsupported %s version %d (want %d)", what, v, version)
	case crc32.ChecksumIEEE(d.b) != binary.BigEndian.Uint32(sum):
		return nil, fmt.Errorf("collector: corrupt %s: checksum mismatch", what)
	}
	return d.b, nil
}

func appendCheckpoint(b []byte, dump *checkpointDump) []byte {
	b = binary.AppendVarint(appendF64(b, dump.SavedAt), dump.SavedAtWallNanos)
	for _, n := range []uint64{dump.Polls, dump.PollErrors, dump.Discoveries, uint64(len(dump.Counters))} {
		b = binary.AppendUvarint(b, n)
	}
	for _, cs := range dump.Counters {
		b = appendF64(appendKey(b, cs.Key), cs.At)
		b = append(binary.AppendUvarint(b, uint64(cs.Octets)), flagBits(cs.Valid))
	}
	return AppendFeedPayload(b, &dump.State)
}

func (d *wireDec) checkpoint() *checkpointDump {
	dump := &checkpointDump{SavedAt: d.f64(), SavedAtWallNanos: d.varint(),
		Polls: d.uvarint(), PollErrors: d.uvarint(), Discoveries: d.uvarint()}
	if n := d.count(keyWireSize + 8 + 2); n > 0 {
		dump.Counters = make([]channelCounter, n)
	}
	for i := range dump.Counters {
		k, at, octets := d.key(), d.f64(), d.uvarint()
		if octets > math.MaxUint32 {
			d.fail("counter reading exceeds 32 bits")
		}
		dump.Counters[i] = channelCounter{k, counterState{At: at, Octets: uint32(octets), Valid: d.flags(1) != 0}}
		if d.err != nil {
			break
		}
		if i > 0 {
			d.ascending(compareKeys(dump.Counters[i-1].Key, k))
		}
	}
	dump.State = *d.feed()
	return dump
}

// baselinesLocked is the checkpoint's counter table: the valid
// baselines in slot order, which is ascending key order. Callers hold
// c.mu.
func (c *Collector) baselinesLocked() []channelCounter {
	var out []channelCounter
	for s, cs := range c.counters {
		if cs.Valid {
			out = append(out, channelCounter{c.st.topo.chans[s], cs})
		}
	}
	return out
}

// CheckpointInfo describes a restored checkpoint.
type CheckpointInfo struct {
	// SavedAt is the virtual time at which the checkpoint was taken.
	// The caller should advance its clock to at least SavedAt (plus the
	// virtual equivalent of the downtime) before starting the
	// collector, so restored samples stay in the past and reported data
	// ages are honest.
	SavedAt float64
	// SavedAtWall is the wall time of the save.
	SavedAtWall time.Time
	// Version is the format version read from the file.
	Version int
}

// SaveCheckpoint writes the collector's full state to w.
func (c *Collector) SaveCheckpoint(w io.Writer) error {
	wallStart := time.Now()
	defer func() {
		c.tel.Counter("collector.checkpoint.saves").Inc()
		c.tel.Quantile("collector.checkpoint.save_ms", 0).
			Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.topo == nil {
		return fmt.Errorf("collector: nothing to checkpoint before discovery")
	}
	dump := checkpointDump{
		SavedAt:          float64(c.cfg.Clock.Now()),
		SavedAtWallNanos: time.Now().UnixNano(),
		Polls:            c.polls,
		PollErrors:       c.pollErrors,
		Discoveries:      c.discoveries,
		Counters:         c.baselinesLocked(),
		State:            *c.st.Payload(),
	}
	if _, err := w.Write(appendStateFile(nil, checkpointMagic, CheckpointVersion, func(b []byte) []byte {
		return appendCheckpoint(b, &dump)
	})); err != nil {
		return fmt.Errorf("collector: writing checkpoint: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state saved by SaveCheckpoint into c,
// replacing any existing state. It validates the header first and
// decodes the whole dump before touching the collector, so a corrupt or
// truncated file leaves c unchanged.
func (c *Collector) RestoreCheckpoint(r io.Reader) (CheckpointInfo, error) {
	body, err := readStateFile(r, "checkpoint", checkpointMagic, CheckpointVersion)
	if err != nil {
		return CheckpointInfo{}, err
	}
	d := wireDec{b: body}
	dump := d.checkpoint()
	if err := d.done("checkpoint"); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint: %w", err)
	}
	// Rebuild outside the lock; install everything at once.
	st, err := StateFromPayload(&dump.State)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint: %w", err)
	}
	// Answers decay by this process's configured half-life, not the one
	// the saving process ran with: a restart may change the flag.
	st.halfLife = c.cfg.staleHalfLife()
	counters := make([]counterState, len(st.topo.chans))
	if err := inStep(st.topo.chans, dump.Counters, func(e *channelCounter) ChannelKey { return e.Key }, compareKeys,
		func(s int, e *channelCounter) error { counters[s] = e.counterState; return nil }); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: corrupt checkpoint counters: %w", err)
	}

	c.mu.Lock()
	c.st = st
	c.counters = counters
	c.polls = dump.Polls
	c.pollErrors = dump.PollErrors
	c.discoveries = dump.Discoveries
	// The restore replaced every window wholesale: feed subscriptions
	// must re-snapshot rather than delta against the old state.
	c.stateGen++
	c.mu.Unlock()
	c.dataVersion.Add(1)
	c.bell.Ring()
	c.tel.Counter("collector.checkpoint.restores").Inc()

	return CheckpointInfo{
		SavedAt:     dump.SavedAt,
		SavedAtWall: time.Unix(0, dump.SavedAtWallNanos),
		Version:     CheckpointVersion,
	}, nil
}
