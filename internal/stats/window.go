package stats

import (
	"fmt"
	"math"
)

// Sample is one timestamped measurement. Time is virtual seconds (the
// collector's poll timestamps).
type Sample struct {
	Time  float64
	Value float64
}

// chunkLen is the number of samples per storage chunk: 32 × 16 B = 512 B,
// exactly a Go allocator size class, so chunked storage wastes nothing per
// chunk. It is a constant on purpose. Two flat layouts were measured on
// the hier-300 fixture and ruled out: capacity doubling read the live heap
// at +81 %, and a flat array with 1/16 slack at +13 % (544 samples leave
// the 8,192 B size class for 9,472 B). A full 512-sample window in chunks
// holds at most 17 of them (first and last partly used): +6 %.
const chunkLen = 32

type chunk [chunkLen]Sample

// Window is a bounded time-series of samples, oldest first. The collector
// keeps one per directed channel (utilization) and per host (CPU load);
// read replicas, HA standbys and Replay hold the same type.
//
// A Window is a persistent sequence: a view (head, count) over chunks
// that are only ever written beyond the end of every existing view. Add
// advances the handle it is called on and leaves every other handle of
// the same samples (a copy of the Window value) exactly as it was, so a
// reader holding an older view needs no lock and never observes the
// writer. Appending costs one slot write, plus one 512 B chunk every 32
// samples; nothing is copied when the window is full, and nothing is
// preallocated when it is short.
//
// Single writer: all handles copied from one window share a tip marker,
// so Add on any of them must be serialised by the caller (the collector
// holds c.mu, the replica appends from its one feed goroutine). The
// handle that is at the tip appends in place; any other handle (a view
// some successor has already appended past) first copies its partly
// filled last chunk, at most 512 B, and continues on its own.
//
// The zero value is unusable; call NewWindow or MakeWindow. A copy of
// a Window value is a second handle on the same samples, sharing all
// storage: a copy-on-write holder (a State, the read replica's store)
// copies a window and appends to the copy.
type Window struct {
	maxAge  float64 // samples older than newest-maxAge are dropped; 0 = keep all
	maxLen  int     // hard cap on retained samples
	chunks  []*chunk
	head    int // offset of the oldest retained sample in chunks[0]
	count   int
	dropped uint64
	// tip holds how many samples were ever appended along the chain that
	// owns the last chunk. A handle is at the tip when that equals its
	// own dropped+count; only then are the slots after its end unseen.
	tip *uint64
}

// NewWindow creates a window retaining at most maxLen samples no older
// than maxAge seconds relative to the most recent sample. maxLen must be
// positive.
func NewWindow(maxLen int, maxAge float64) *Window {
	w := MakeWindow(maxLen, maxAge)
	return &w
}

// MakeWindow is NewWindow by value, for a holder that keeps its windows
// in a slice.
func MakeWindow(maxLen int, maxAge float64) Window {
	if maxLen <= 0 {
		panic(fmt.Sprintf("stats: non-positive window length %d", maxLen))
	}
	return Window{maxAge: maxAge, maxLen: maxLen, tip: new(uint64)}
}

// Made reports whether w came from NewWindow or MakeWindow (or is a
// copy of one that did). The zero Window did not: it holds nothing and
// cannot be appended to.
func (w *Window) Made() bool { return w.tip != nil }

// Add appends a sample. Samples must arrive in nondecreasing time order;
// out-of-order samples are rejected with an error (a multi-collector merge
// bug, worth surfacing, not panicking over), and so is a NaN time, which
// no order can place.
func (w *Window) Add(t, v float64) error {
	return w.AddAll([]Sample{{Time: t, Value: v}})
}

// AddAll appends samples in order and stops at the first one out of
// order or with a NaN time; the ones before it stay appended. A window
// rebuilt from shipped samples (a replica resync, a checkpoint restore,
// Replay) is filled a chunk at a time, with one chunk index per batch.
func (w *Window) AddAll(samples []Sample) error {
	var err error
	prev := math.Inf(-1)
	if last, ok := w.Latest(); ok {
		prev = last.Time
	}
	n := 0
	for ; n < len(samples); n++ {
		t := samples[n].Time
		if math.IsNaN(t) {
			err = fmt.Errorf("stats: sample with NaN time")
			break
		}
		if t < prev {
			err = fmt.Errorf("stats: out-of-order sample t=%v after t=%v", t, prev)
			break
		}
		prev = t
	}
	// Evict before writing: eviction only moves this handle's head.
	for batch := samples[:n]; len(batch) > 0; {
		seg := batch[:min(len(batch), w.maxLen)]
		if over := w.count + len(seg) - w.maxLen; over > 0 {
			w.drop(over)
		}
		w.write(seg)
		batch = batch[len(seg):]
	}
	if w.maxAge > 0 && n > 0 {
		old := 0
		for old < w.count && w.at(old).Time < prev-w.maxAge {
			old++
		}
		w.drop(old)
	}
	return err
}

// write copies seg into the slots after the view's end; the caller has
// made room under maxLen. Slots are written only beyond the end of every
// existing view, and a chunk index is never written once built (a new
// one, exactly as long as its chunks, is made when chunks are added), so
// predecessors share both freely. Off the tip, where a successor already
// wrote the slots after this view's end, the partly filled last chunk is
// copied first and the handle carries on with a tip of its own.
func (w *Window) write(seg []Sample) {
	end := w.head + w.count
	atTip := *w.tip == w.dropped+uint64(w.count)
	if need := (end + len(seg) + chunkLen - 1) / chunkLen; need > len(w.chunks) || !atTip {
		chunks := make([]*chunk, need)
		fresh := copy(chunks, w.chunks)
		if ci, off := end/chunkLen, end%chunkLen; !atTip && ci < fresh {
			c := new(chunk)
			copy(c[:off], w.chunks[ci][:off])
			chunks[ci] = c
		}
		for ; fresh < need; fresh++ {
			chunks[fresh] = new(chunk)
		}
		w.chunks = chunks
	}
	if !atTip {
		w.tip = new(uint64)
	}
	for len(seg) > 0 {
		n := copy(w.chunks[end/chunkLen][end%chunkLen:], seg)
		seg, end = seg[n:], end+n
	}
	w.count = end - w.head
	*w.tip = w.dropped + uint64(w.count)
}

// drop evicts the n oldest samples.
func (w *Window) drop(n int) {
	w.head += n
	w.count -= n
	w.dropped += uint64(n)
	w.chunks = w.chunks[w.head/chunkLen:]
	w.head %= chunkLen
}

func (w *Window) at(i int) Sample {
	j := w.head + i
	return w.chunks[j/chunkLen][j%chunkLen]
}

// firstFrom returns the index of the oldest sample with Time >= t
// (Time > t when strict), scanning back from the newest: samples are in
// time order, so the scan costs the length of the answer, not of the
// window.
func (w *Window) firstFrom(t float64, strict bool) int {
	i := w.count
	for i > 0 {
		if st := w.at(i - 1).Time; !(st > t || (!strict && st == t)) {
			break
		}
		i--
	}
	return i
}

// appendFrom appends samples [from, count) to dst, chunk by chunk.
func (w *Window) appendFrom(dst []Sample, from int) []Sample {
	for j, end := w.head+from, w.head+w.count; j < end; {
		c, off := w.chunks[j/chunkLen], j%chunkLen
		n := chunkLen - off
		if n > end-j {
			n = end - j
		}
		dst = append(dst, c[off:off+n]...)
		j += n
	}
	return dst
}

// Latest returns the most recent sample and whether one exists.
func (w *Window) Latest() (Sample, bool) {
	if w.count == 0 {
		return Sample{}, false
	}
	return w.at(w.count - 1), true
}

// Since returns the values of samples with Time >= t, oldest first.
func (w *Window) Since(t float64) []float64 {
	from := w.firstFrom(t, false)
	if from == w.count {
		return nil
	}
	out := make([]float64, w.count-from)
	for i := range out {
		out[i] = w.at(from + i).Value
	}
	return out
}

// Samples returns a copy of all retained samples, oldest first.
func (w *Window) Samples() []Sample {
	return w.appendFrom(make([]Sample, 0, w.count), 0)
}

// AppendSince appends copies of the samples with Time strictly after t
// to dst, oldest first, so a caller collecting from many windows can use
// one backing slab. This is the replication-feed cursor primitive: a
// subscriber that has already shipped everything up to time t asks only
// for what arrived since.
func (w *Window) AppendSince(dst []Sample, t float64) []Sample {
	return w.appendFrom(dst, w.firstFrom(t, true))
}

// Summary computes the quartile Stat over the samples in the last `span`
// seconds (ending at the newest sample), matching the paper's variable-
// timescale queries: "data collected and averaged for a specific time
// window". Accuracy combines sample-count saturation with how much of the
// requested span the samples actually cover.
func (w *Window) Summary(span float64) Stat {
	latest, ok := w.Latest()
	if !ok {
		return NoData()
	}
	if span <= 0 {
		// "current": just the most recent measurement.
		return Exact(latest.Value).WithAccuracy(0.5)
	}
	cut := latest.Time - span
	st := quartilesOf(w.Since(cut))
	if !st.Valid() {
		return NoData()
	}
	// Coverage: fraction of the span the retained samples actually cover.
	oldest := w.at(0).Time
	covered := latest.Time - oldest
	if covered > span {
		covered = span
	}
	coverage := 1.0
	if span > 0 && w.count > 1 {
		coverage = covered / span
	} else if w.count == 1 {
		coverage = 0.5
	}
	return st.WithAccuracy(st.Accuracy * coverage)
}
