package collector

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"
)

// Checkpoint/warm-restart: a collector can serialize its full state —
// topology, measurement windows, counter baselines, per-agent health,
// poll statistics — and a restarted collector can restore it and answer
// queries immediately, with honest data ages that include the downtime,
// instead of erroring through a cold discovery-and-poll warmup. The
// format is gob with a versioned magic header so a restore from a
// corrupt, truncated, or incompatible file is rejected loudly rather
// than half-applied.

// checkpointMagic identifies a collector checkpoint stream.
const checkpointMagic = "REMOS-CKPT"

// CheckpointVersion is the current checkpoint format version. Restores
// reject any other version: state formats evolve and a silent
// misdecode is worse than a cold start.
const CheckpointVersion = 2

// checkpointHeader precedes the dump. It is encoded as its own gob
// value so header validation happens before the (much larger) dump is
// even read.
type checkpointHeader struct {
	Magic   string
	Version int
}

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

	Counters map[ChannelKey]counterState
	State    FeedPayload
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
		Counters:         c.counters,
		State:            *c.st.Payload(),
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&checkpointHeader{Magic: checkpointMagic, Version: CheckpointVersion}); err != nil {
		return fmt.Errorf("collector: writing checkpoint header: %w", err)
	}
	if err := enc.Encode(&dump); err != nil {
		return fmt.Errorf("collector: writing checkpoint: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state saved by SaveCheckpoint into c,
// replacing any existing state. It validates the header first and
// decodes the whole dump before touching the collector, so a corrupt or
// truncated file leaves c unchanged.
func (c *Collector) RestoreCheckpoint(r io.Reader) (CheckpointInfo, error) {
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return CheckpointInfo{}, fmt.Errorf("collector: reading checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return CheckpointInfo{}, fmt.Errorf("collector: not a collector checkpoint (magic %q)", hdr.Magic)
	}
	if hdr.Version != CheckpointVersion {
		return CheckpointInfo{}, fmt.Errorf("collector: unsupported checkpoint version %d (want %d)",
			hdr.Version, CheckpointVersion)
	}
	var dump checkpointDump
	if err := dec.Decode(&dump); err != nil {
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
	if dump.Counters == nil { // gob leaves an empty map nil; PollOnce writes into it
		dump.Counters = make(map[ChannelKey]counterState)
	}

	c.mu.Lock()
	c.st = st
	c.counters = dump.Counters
	c.polls = dump.Polls
	c.pollErrors = dump.PollErrors
	c.discoveries = dump.Discoveries
	// The restore replaced every window wholesale: feed subscriptions
	// must re-snapshot rather than delta against the old state.
	c.stateGen++
	c.mu.Unlock()
	c.dataVersion.Add(1)
	c.notifyVersion()
	c.tel.Counter("collector.checkpoint.restores").Inc()

	return CheckpointInfo{
		SavedAt:     dump.SavedAt,
		SavedAtWall: time.Unix(0, dump.SavedAtWallNanos),
		Version:     hdr.Version,
	}, nil
}
