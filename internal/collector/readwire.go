package collector

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/stats"
)

// The read: how every Modeler fetches measurements, in process or over
// the wire, and the only measurement op the wire carries beside matrix.
// A query lists the channels and hosts it is about to fold and asks for
// all of them at once — so the cost stays "directly related to the depth
// … of requests" (PAPER.md §1), not to the size of the topology — with
// the validator of the memo generation it already holds and which of the
// listed entries that generation still lacks; the answer either confirms
// the validator ("not modified") and carries the lacking entries only —
// a held one costs no window read — or carries one entry per listed
// channel and host under a new one.
//
// A Reader is that exchange without the frame: a plain function over any
// Source, which a Modeler in process calls directly and a Server calls
// for the "read" op. A dialed handle (Client, FailoverSource) sends the
// same request to a Server. The scalar Go methods of a dialed handle
// (UtilizationCtx, HostLoadCtx, SamplesCtx, DataAgeCtx) are one-entry
// reads.
//
// The validator is (instance, data version). The instance is a nonce each
// Reader draws — a Server answers with its own Reader's: versions are
// per-process counters, so two daemons, a promoted standby, or a process
// restarted from a checkpoint can stand at equal numbers over different
// data, and a replica's version IS its collector's. "Not modified" needs
// both equal. A source without a data version issues no validator
// (instance 0): its answers serve the query that asked and nothing else.
//
// Stamp before read: the Reader reads the version before it touches any
// window, and a poll bumps the version after it appended (PollOnce, under
// c.mu). So the entries of an answer may be newer than its stamp, never
// older, and a client that memoizes them under the stamp can at worst be
// told "modified" one query early.
//
// A client keeps no state for any of this: the validator travels in the
// request, the memo lives in the Modeler's snapshot (core/snapshot.go).

// ReadKind says what a read answers for each listed channel. A listed
// host always answers its load summary over the request's Span.
type ReadKind uint8

const (
	// ReadSummary answers a channel's utilization summary over Span, as
	// Utilization does.
	ReadSummary ReadKind = iota
	// ReadWindow answers a channel's retained samples and the age of the
	// newest, as Samples and DataAge do: the input of a prediction.
	ReadWindow
	// ReadAge answers the age of a channel's newest sample, as DataAge
	// does.
	ReadAge

	readKinds = 3
)

// ReadRequest lists what one query reads. HaveInstance/HaveVersion is the
// validator of the answer whose entries the caller still holds for every
// listed channel and host but the last MissingKeys channels and the last
// MissingHosts hosts; a zero HaveInstance declares none held. Discovered
// asks for the served topology's discovery time, by which a Modeler
// notices that the topology it routes over was replaced; a point query
// leaves it off and costs no topology lookup.
type ReadRequest struct {
	HaveInstance, HaveVersion uint64
	Span                      float64
	Of                        ReadKind
	Discovered                bool
	Keys                      []ChannelKey
	Hosts                     []graph.NodeID
	MissingKeys, MissingHosts int
}

// ReadAnswer is the answer to a ReadRequest. Instance/Version is the
// validator read before any window was touched (Instance 0: the source
// has none); DiscoveredAt is set when the request asked for it.
// NotModified confirms the request's validator, and Entries then answers
// only the missing channels and hosts the request names; otherwise
// Entries answers every listed one. Either way it holds the channels'
// entries first (KeyCount of them, answered as Of says), then the
// hosts', in request order.
type ReadAnswer struct {
	Instance, Version uint64
	DiscoveredAt      float64
	NotModified       bool
	Of                ReadKind
	KeyCount          int
	Entries           []ReadEntry
}

// ReadEntry is one channel's or host's part of an answer. Failed marks
// an entry whose read returned a non-lifecycle error (unknown channel,
// no samples yet); it carries nothing else, and the caller degrades it
// as it would that error. Otherwise a summary is in Stat, a window in
// Window and Age, an age in Age.
type ReadEntry struct {
	Stat   stats.Stat
	Window []stats.Sample
	Age    float64
	Failed bool
}

// ReadSource answers reads: the TCP Client and FailoverSource over the
// wire, a Reader in process. Read fills ans, whose entry slice it may
// reuse; a caller that keeps entries past its next Read copies them.
type ReadSource interface {
	Read(ctx context.Context, rr *ReadRequest, ans *ReadAnswer) error
}

// ReaderFor returns how a Modeler or a Server reads src: its own read op
// when it is a dialed handle — a proxying server forwards reads
// upstream — and otherwise a Reader over it.
func ReaderFor(src Source) ReadSource {
	if rs, ok := src.(ReadSource); ok {
		return rs
	}
	return NewReader(src)
}

// Reader answers reads from any Source in process.
type Reader struct {
	src      Source
	instance uint64
	topoAt   atomic.Pointer[readTopoAt]
}

// readTopoAt is the served topology's discovery time as of one data
// version. A rediscovery bumps the version, so between bumps a versioned
// source is not asked for its topology (a Merged source rebuilds its
// union per call); an unversioned one is asked every time.
type readTopoAt struct {
	version      uint64
	discoveredAt float64
}

func (r *Reader) discoveredAt(ctx context.Context, versioned bool, version uint64) (float64, error) {
	if at := r.topoAt.Load(); versioned && at != nil && at.version == version {
		return at.discoveredAt, nil
	}
	t, err := r.src.TopologyCtx(ctx)
	if err != nil {
		return 0, err
	}
	if versioned {
		r.topoAt.Store(&readTopoAt{version: version, discoveredAt: t.DiscoveredAt})
	}
	return t.DiscoveredAt, nil
}

// NewReader returns a Reader over src with a fresh validator nonce.
func NewReader(src Source) *Reader {
	return &Reader{src: src, instance: newInstanceNonce()}
}

// newInstanceNonce draws a Reader's validator nonce: random, so that two
// servers do not share one, and non-zero, which on the wire means
// "nothing held".
func newInstanceNonce() uint64 {
	for {
		if n := rand.Uint64(); n != 0 {
			return n
		}
	}
}

// readEntriesPerUnit converts a read's entry count into admission-gate
// work units. A point query costs one unit; a read holds its units for
// as long as all its entries take, so a query-sized read (a dozen
// entries) is priced like one point query and a matrix-sized one in
// proportion. The gate clamps a weight to its capacity (workGate.clamp),
// so every read is grantable.
const readEntriesPerUnit = 16

// readWeight prices a read request for the admission gate.
func readWeight(rr *ReadRequest) int {
	if rr == nil {
		return 1
	}
	return 1 + (len(rr.Keys)+len(rr.Hosts))/readEntriesPerUnit
}

// freshnessChecker is the fencing hook of a source that can refuse
// queries it would otherwise answer from old state (the read replica):
// a "not modified" answer touches no window, so the fence is asked
// directly.
type freshnessChecker interface {
	CheckFresh() error
}

// Read implements ReadSource. A lifecycle error from the source — a
// fenced replica, a spent budget — fails the whole read, so failover and
// term fencing treat a read like any other op; any other error fails
// its entry only.
func (r *Reader) Read(ctx context.Context, rr *ReadRequest, ans *ReadAnswer) error {
	if rr == nil || rr.Of >= readKinds || rr.MissingKeys < 0 || rr.MissingKeys > len(rr.Keys) ||
		rr.MissingHosts < 0 || rr.MissingHosts > len(rr.Hosts) {
		return errors.New("collector: malformed read request")
	}
	if err := ctxError(ctx); err != nil {
		return err
	}
	if fc, ok := r.src.(freshnessChecker); ok {
		if err := fc.CheckFresh(); err != nil {
			return err
		}
	}
	*ans = ReadAnswer{Entries: ans.Entries[:0]}
	// The stamp comes first: see "stamp before read" above.
	if vs, ok := r.src.(VersionedSource); ok {
		if v, ok := vs.DataVersion(); ok {
			ans.Instance, ans.Version = r.instance, v
		}
	}
	if rr.Discovered {
		at, err := r.discoveredAt(ctx, ans.Instance != 0, ans.Version)
		if err != nil {
			return err
		}
		ans.DiscoveredAt = at
	}
	keys, hosts := rr.Keys, rr.Hosts
	if ans.Instance != 0 && rr.HaveInstance == ans.Instance && rr.HaveVersion == ans.Version {
		ans.NotModified = true
		keys, hosts = keys[len(keys)-rr.MissingKeys:], hosts[len(hosts)-rr.MissingHosts:]
	}
	ans.Of, ans.KeyCount = rr.Of, len(keys)
	for i := range len(keys) + len(hosts) {
		var e ReadEntry
		var err error
		switch {
		case i >= len(keys):
			e.Stat, err = r.src.HostLoadCtx(ctx, hosts[i-len(keys)], rr.Span)
		case rr.Of == ReadSummary:
			e.Stat, err = r.src.UtilizationCtx(ctx, keys[i], rr.Span)
		case rr.Of == ReadWindow:
			if e.Window, err = r.src.SamplesCtx(ctx, keys[i]); err == nil {
				e.Age, err = r.src.DataAgeCtx(ctx, keys[i])
			}
		default:
			e.Age, err = r.src.DataAgeCtx(ctx, keys[i])
		}
		if err != nil {
			if IsLifecycleError(err) {
				return err
			}
			e = ReadEntry{Failed: true}
		}
		ans.Entries = append(ans.Entries, e)
	}
	return nil
}

// handleRead serves the "read" op: the server's Reader — or, over a
// dialed upstream, its read op — answers into the response.
func (s *Server) handleRead(ctx context.Context, rr *ReadRequest) *response {
	if rr == nil {
		return &response{Err: "collector: read request missing payload"}
	}
	resp, ans := newReadResponse(len(rr.Keys) + len(rr.Hosts))
	if err := s.reader.Read(ctx, rr, ans); err != nil {
		appError(resp, err)
		return resp
	}
	resp.Read = ans
	return resp
}

// readResponse is a read's response, its answer and the storage of its
// first entry in one allocation: a point query's answer costs one object
// on either end.
type readResponse struct {
	resp  response
	ans   ReadAnswer
	entry [1]ReadEntry
}

// newReadResponse allocates a read's response and answer with room for
// n entries (the answer is not attached yet).
func newReadResponse(n int) (*response, *ReadAnswer) {
	r := new(readResponse)
	r.ans.Entries = r.entry[:0]
	if n > 1 {
		r.ans.Entries = make([]ReadEntry, 0, n)
	}
	return &r.resp, &r.ans
}

// Read implements ReadSource: one "read" round trip. Through a failover
// group, typed refusals (shed, stale, not-leader) route to the next
// replica like every other op, and the answer's Instance says which
// server it came from.
func (r remote) Read(ctx context.Context, rr *ReadRequest, ans *ReadAnswer) error {
	got, err := r.read(ctx, &request{Op: "read", Read: rr})
	if err != nil {
		return err
	}
	*ans = *got
	return nil
}

// read makes one read call and checks the answer against the request: a
// lying or corrupt server must not get callers to index past the answer,
// or to keep a memo it never validated.
func (r remote) read(ctx context.Context, req *request) (*ReadAnswer, error) {
	resp, err := r.call(ctx, req)
	if err != nil {
		return nil, err
	}
	ans, rr := resp.Read, req.Read
	if ans == nil {
		return nil, errors.New("collector: read response missing payload")
	}
	keys, hosts := len(rr.Keys), len(rr.Hosts)
	if ans.NotModified {
		if ans.Instance != rr.HaveInstance || ans.Version != rr.HaveVersion || rr.HaveInstance == 0 {
			return nil, errors.New("collector: read answer confirms a validator that was not sent")
		}
		keys, hosts = rr.MissingKeys, rr.MissingHosts
	}
	if n := keys + hosts; len(ans.Entries) != n || ans.KeyCount != keys || ans.Of != rr.Of {
		return nil, fmt.Errorf("collector: read answer has %d entries (%d of kind %d), want %d (%d of kind %d)",
			len(ans.Entries), ans.KeyCount, ans.Of, n, keys, rr.Of)
	}
	return ans, nil
}

// pointRead is a point query's request — the envelope, the read and its
// one channel or host — in one allocation.
type pointRead struct {
	req  request
	rr   ReadRequest
	key  [1]ChannelKey
	host [1]graph.NodeID
}

// point reads one channel (host "") or one host: the scalar query
// surface of a dialed handle.
func (r remote) point(ctx context.Context, of ReadKind, span float64, key ChannelKey, host graph.NodeID) (ReadEntry, error) {
	p := &pointRead{rr: ReadRequest{Span: span, Of: of}}
	if host == "" {
		p.key[0] = key
		p.rr.Keys = p.key[:]
	} else {
		p.host[0] = host
		p.rr.Hosts = p.host[:]
	}
	p.req = request{Op: "read", Read: &p.rr}
	ans, err := r.read(ctx, &p.req)
	if err != nil {
		return ReadEntry{}, err
	}
	if e := ans.Entries[0]; !e.Failed {
		return e, nil
	}
	if host != "" {
		return ReadEntry{}, fmt.Errorf("collector: no load data for %q", host)
	}
	return ReadEntry{}, fmt.Errorf("collector: no measurement of channel %v", key)
}

// UtilizationCtx implements Source: a one-entry summary read.
func (r remote) UtilizationCtx(ctx context.Context, key ChannelKey, span float64) (stats.Stat, error) {
	e, err := r.point(ctx, ReadSummary, span, key, "")
	return e.Stat, err
}

// SamplesCtx implements Source: a one-entry window read.
func (r remote) SamplesCtx(ctx context.Context, key ChannelKey) ([]stats.Sample, error) {
	e, err := r.point(ctx, ReadWindow, 0, key, "")
	return e.Window, err
}

// HostLoadCtx implements Source: a one-entry host read.
func (r remote) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	e, err := r.point(ctx, ReadSummary, span, ChannelKey{}, node)
	return e.Stat, err
}

// DataAgeCtx implements Source: a one-entry age read.
func (r remote) DataAgeCtx(ctx context.Context, key ChannelKey) (float64, error) {
	e, err := r.point(ctx, ReadAge, 0, key, "")
	return e.Age, err
}
