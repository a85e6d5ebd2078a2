package collector

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/stats"
)

// The "read" wire op: one conditional batched read per remote query.
// A Modeler over a dialed collector used to fetch every channel and host
// a query folds with its own scalar round trip (a dozen for a four-flow
// query on the Figure 3 testbed) and could memoize nothing, because a
// dialed handle has no data version to key a memo on. The read op moves
// both into one frame: the request lists the channels and hosts *this
// query* reads — so the cost stays "directly related to the depth … of
// requests" (PAPER.md §1), not to the size of the topology — and carries
// the validator of the memo generation the client already holds; the
// answer either confirms the validator ("not modified", no window
// touched) or carries one summary per listed entry under a new one.
//
// The validator is (server instance, data version). The instance is a
// nonce the Server draws at start: versions are per-process counters, so
// two daemons, a promoted standby, or a process restarted from a
// checkpoint can stand at equal numbers over different data, and a
// replica's version IS its collector's. "Not modified" needs both equal.
//
// Stamp before read: the server reads its version before it touches any
// window, and a poll bumps the version after it appended (PollOnce, under
// c.mu). So the summaries in an answer may be newer than its stamp, never
// older, and a client that memoizes them under the stamp can at worst be
// told "modified" one query early.
//
// The client keeps no state for any of this: the validator travels in
// the request, the memo lives in the Modeler's snapshot (core/snapshot.go).

// ReadRequest lists what one query reads. Keys are summarized over the
// trailing Span seconds as Utilization does, Hosts as HostLoad does.
// HaveInstance/HaveVersion is the validator of the answer whose
// summaries the caller still holds for every listed entry; a zero
// HaveInstance declares none held.
type ReadRequest struct {
	HaveInstance, HaveVersion uint64
	Span                      float64
	Keys                      []ChannelKey
	Hosts                     []graph.NodeID
}

// ReadAnswer is the server's side of the exchange. Instance/Version is
// the validator read before any window was touched; DiscoveredAt is the
// served topology's discovery time, by which a caller notices that the
// topology it routes over was replaced. NotModified confirms the
// request's validator and leaves Stats and Failed empty; otherwise they
// hold one entry per listed key, then per listed host, in request order.
// Failed marks an entry whose read returned a non-lifecycle error
// (unknown channel, no samples yet): the caller degrades it exactly as
// it degrades the scalar op's error.
type ReadAnswer struct {
	Instance, Version uint64
	DiscoveredAt      float64
	NotModified       bool
	Stats             []stats.Stat
	Failed            []bool
}

// ReadSource is implemented by sources that answer conditional batched
// reads — the TCP Client and FailoverSource, forwarding the "read" op.
// A Modeler over one fetches everything a query folds, and validates
// what it memoized, in a single round trip.
type ReadSource interface {
	Read(ctx context.Context, req *ReadRequest) (*ReadAnswer, error)
}

// ErrReadUnsupported is the typed answer of a server whose source
// reports no data version (VersionedSource), so no validator can be
// issued. It is authoritative, not a lifecycle refusal: the Modeler
// falls back to scalar fetches.
var ErrReadUnsupported = errors.New("collector: read op unsupported")

// readEntriesPerUnit converts a read's entry count into admission-gate
// work units. The scalar lookups a read replaces cost one unit each but
// ran one at a time; a read holds its units for as long as all its
// summaries take, so a query-sized read (a dozen entries) is priced like
// one scalar op and a matrix-sized one in proportion. The gate clamps a
// weight to its capacity (workGate.clamp), so every read is grantable.
const readEntriesPerUnit = 16

// readWeight prices a read request for the admission gate.
func readWeight(rr *ReadRequest) int {
	if rr == nil {
		return 1
	}
	return 1 + (len(rr.Keys)+len(rr.Hosts))/readEntriesPerUnit
}

// newInstanceNonce draws a server's validator nonce: random, so that two
// servers do not share one, and non-zero, which on the wire means
// "nothing held".
func newInstanceNonce() uint64 {
	for {
		if n := rand.Uint64(); n != 0 {
			return n
		}
	}
}

// readTopoAt is the served topology's discovery time as of one data
// version. A rediscovery bumps the version, so between bumps the read
// handler answers DiscoveredAt from here instead of asking the source
// for its topology (a Merged source rebuilds the union per call).
type readTopoAt struct {
	version      uint64
	discoveredAt float64
}

// freshnessChecker is the fencing hook of a source that can refuse
// queries it would otherwise answer from old state (the read replica):
// a "not modified" answer touches no window, so the fence is asked
// directly.
type freshnessChecker interface {
	CheckFresh() error
}

// handleRead serves one admitted read request against any versioned
// source. A lifecycle error from the source — a fenced replica, a spent
// budget — refuses the whole op with its typed code, so failover and
// term fencing treat a read like any scalar op.
func (s *Server) handleRead(ctx context.Context, resp *response, rr *ReadRequest) {
	if rr == nil {
		resp.Err = "collector: read request missing payload"
		return
	}
	vs, ok := s.src.(VersionedSource)
	if !ok {
		appError(resp, ErrReadUnsupported)
		return
	}
	if fc, ok := s.src.(freshnessChecker); ok {
		if err := fc.CheckFresh(); err != nil {
			appError(resp, err)
			return
		}
	}
	// The stamp comes first: see "stamp before read" above.
	version, ok := vs.DataVersion()
	if !ok {
		appError(resp, ErrReadUnsupported)
		return
	}
	ans := &ReadAnswer{Instance: s.instance, Version: version}
	if at := s.readTopo.Load(); at != nil && at.version == version {
		ans.DiscoveredAt = at.discoveredAt
	} else {
		t, err := CtxTopology(ctx, s.src)
		if err != nil {
			appError(resp, err)
			return
		}
		ans.DiscoveredAt = t.DiscoveredAt
		s.readTopo.Store(&readTopoAt{version: version, discoveredAt: t.DiscoveredAt})
	}
	if rr.HaveInstance == ans.Instance && rr.HaveVersion == version {
		ans.NotModified = true
		resp.Read = ans
		return
	}
	n := len(rr.Keys) + len(rr.Hosts)
	ans.Stats = make([]stats.Stat, n)
	ans.Failed = make([]bool, n)
	for i := range ans.Stats {
		var err error
		if i < len(rr.Keys) {
			ans.Stats[i], err = CtxUtilization(ctx, s.src, rr.Keys[i], rr.Span)
		} else {
			ans.Stats[i], err = CtxHostLoad(ctx, s.src, rr.Hosts[i-len(rr.Keys)], rr.Span)
		}
		if err != nil {
			if IsLifecycleError(err) {
				appError(resp, err)
				return
			}
			ans.Failed[i] = true
		}
	}
	resp.Read = ans
}

// Read implements ReadSource: one "read" round trip. Through a failover
// group, typed refusals (shed, stale, not-leader) route to the next
// replica like every other op, and the answer's Instance says which
// server it came from; ErrReadUnsupported is authoritative.
func (r remote) Read(ctx context.Context, rr *ReadRequest) (*ReadAnswer, error) {
	resp, err := r.call(ctx, &request{Op: "read", Read: rr})
	if err != nil {
		return nil, err
	}
	ans := resp.Read
	if ans == nil {
		return nil, errors.New("collector: read response missing payload")
	}
	// A lying or corrupt server must not get callers to index past the
	// answer, or to keep a memo it never validated.
	if ans.NotModified {
		if ans.Instance != rr.HaveInstance || ans.Version != rr.HaveVersion || rr.HaveInstance == 0 {
			return nil, errors.New("collector: read answer confirms a validator that was not sent")
		}
		return ans, nil
	}
	if n := len(rr.Keys) + len(rr.Hosts); len(ans.Stats) != n || len(ans.Failed) != n {
		return nil, fmt.Errorf("collector: read answer has %d entries, want %d", len(ans.Stats), n)
	}
	return ans, nil
}
