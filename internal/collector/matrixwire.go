package collector

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// The "matrix" wire op: one round trip for a rectangular N×M batch of
// flow answers. The paper's clustering consumer needs pairwise N×N
// matrices and notes that per-pair flow queries "would have been
// needed, implying a much higher overhead" — with one query per pair
// on the wire that overhead is N×M round trips. The matrix op moves the
// batch boundary to the server: node sets go in, an epoch- and
// term-stamped matrix of bottleneck-bandwidth medians and path
// latencies comes out, computed by the server's batched kernel
// (core.QueryMatrixCtx) against one topology snapshot.
//
// The collector package stays ignorant of the modeler: servers carry
// the computation as an injected ServerConfig.Matrix handler (or a
// Source that implements MatrixSource, which is how a proxying server
// forwards the op to its upstream). Admission control prices a matrix
// by its area — see matrixWeight — and a matrix too large for the
// server's gate is refused with a typed, non-retryable error instead
// of being clamped to a weight it doesn't pay.

// MatrixRequest names the batch: every (src, dst) pair of the cross
// product gets one matrix entry. TFKind/Span/Horizon mirror the
// modeler's Timeframe (the collector package does not interpret them
// beyond range-checking TFKind).
type MatrixRequest struct {
	Srcs, Dsts []graph.NodeID
	TFKind     int
	Span       float64
	Horizon    float64
}

// MatrixAnswer is the batch result. Bandwidth[i][j] is the bottleneck
// availability median (bits/s) from Srcs[i] to Dsts[j], Latency[i][j]
// the one-way path latency; Valid[i][j] is false where no answer
// exists (unknown node, no route, invalid stat) — partial degradation
// is per-entry, never a whole-matrix abort. Epoch identifies the
// serving modeler's topology snapshot; Term is filled client-side from
// the response's HA stamp (zero on sources without HA).
type MatrixAnswer struct {
	Bandwidth [][]float64
	Latency   [][]float64
	Valid     [][]bool
	Epoch     uint64
	Term      uint64
}

// MatrixHandler computes one matrix server-side. ctx carries the
// request's admission-adjusted deadline.
type MatrixHandler func(ctx context.Context, req *MatrixRequest) (*MatrixAnswer, error)

// MatrixSource is implemented by sources that can answer matrix
// batches natively — the TCP Client and FailoverSource (forwarding the
// op upstream), and any in-process source wired to a batched kernel.
// The modeler delegates to it when present so a matrix costs one round
// trip instead of N×M.
type MatrixSource interface {
	MatrixQuery(ctx context.Context, req *MatrixRequest) (*MatrixAnswer, error)
}

// ErrMatrixUnsupported is the typed answer of a server (or source)
// that cannot compute matrix batches. It is authoritative, not a
// lifecycle refusal: clients fall back to per-pair computation.
var ErrMatrixUnsupported = errors.New("collector: matrix op unsupported")

// ErrMatrixTooLarge is the typed refusal for a matrix whose
// admission weight exceeds what the server will ever grant (its
// inflight capacity or MaxMatrixCells). Unlike ErrLoadShed this is not
// transient — retrying the same request cannot succeed; split the
// matrix instead.
var ErrMatrixTooLarge = errors.New("collector: matrix too large")

// DefaultMaxMatrixCells caps a matrix request's area (N×M) when
// ServerConfig.MaxMatrixCells is zero.
const DefaultMaxMatrixCells = 65536

// matrixCellsPerUnit converts matrix area into admission-gate work
// units: a small matrix costs one unit like a point query, and the
// price grows linearly with area so one huge matrix cannot slip under
// a gate tuned for point queries.
const matrixCellsPerUnit = 256

// matrixWeight prices a matrix request for the admission gate.
func matrixWeight(mr *MatrixRequest) int {
	if mr == nil {
		return 1
	}
	return 1 + (len(mr.Srcs)*len(mr.Dsts))/matrixCellsPerUnit
}

// validateMatrixRequest range-checks a decoded matrix payload. It must
// hold for any payload the fuzzer can construct: empty sides, a
// timeframe kind outside the modeler's enum, and oversized dimensions
// all get typed errors, never a panic downstream.
func validateMatrixRequest(mr *MatrixRequest) error {
	if mr == nil {
		return errors.New("collector: matrix request missing payload")
	}
	if len(mr.Srcs) == 0 || len(mr.Dsts) == 0 {
		return errors.New("collector: matrix request needs srcs and dsts")
	}
	if mr.TFKind < 0 || mr.TFKind > 3 {
		return fmt.Errorf("collector: matrix request: bad timeframe kind %d", mr.TFKind)
	}
	return nil
}

// weighMatrix prices a matrix request for the admission gate after the
// server's size policy, which runs before the gate: structural
// validation, the absolute cell cap, and — when admission control is on
// — whether the gate could ever grant the weight. A matrix the gate
// could never grant answers a typed non-retryable refusal; it does not
// queue forever or get clamped to a cheaper weight.
func (s *Server) weighMatrix(req *request) (int, error) {
	mr := req.Matrix
	if err := validateMatrixRequest(mr); err != nil {
		return 0, err
	}
	cells := len(mr.Srcs) * len(mr.Dsts)
	maxCells := s.cfg.MaxMatrixCells
	if maxCells > 0 && cells > maxCells {
		return 0, fmt.Errorf("%w: %d cells exceeds the server cap %d", ErrMatrixTooLarge, cells, maxCells)
	}
	w := matrixWeight(mr)
	if s.gate != nil && w > s.gate.capacity {
		return 0, fmt.Errorf("%w: weight %d exceeds the admission capacity %d", ErrMatrixTooLarge, w, s.gate.capacity)
	}
	return w, nil
}

// handleMatrix serves one admitted matrix request.
func (s *Server) handleMatrix(ctx context.Context, req *request) *response {
	h := s.cfg.Matrix
	if h == nil {
		if ms, ok := s.src.(MatrixSource); ok {
			h = ms.MatrixQuery
		}
	}
	if h == nil {
		return appError(&response{}, ErrMatrixUnsupported)
	}
	ans, err := h(ctx, req.Matrix)
	if err != nil {
		return appError(&response{}, err)
	}
	if ans == nil {
		return &response{Err: "collector: matrix handler returned no answer"}
	}
	return &response{Matrix: ans}
}

// MatrixQuery implements MatrixSource: one "matrix" round trip, with
// the response's HA term copied onto the answer. Through a failover
// group, typed refusals (shed, stale, not-leader) route to the next
// replica like every other op; ErrMatrixTooLarge and
// ErrMatrixUnsupported are authoritative and returned as-is.
func (r remote) MatrixQuery(ctx context.Context, mr *MatrixRequest) (*MatrixAnswer, error) {
	if err := validateMatrixRequest(mr); err != nil {
		return nil, err
	}
	resp, err := r.call(ctx, &request{Op: "matrix", Matrix: mr})
	if err != nil {
		return nil, err
	}
	if resp.Matrix == nil {
		return nil, errors.New("collector: matrix response missing payload")
	}
	ans := resp.Matrix
	ans.Term = resp.Term
	if err := checkMatrixShape(mr, ans); err != nil {
		return nil, err
	}
	return ans, nil
}

// checkMatrixShape rejects a malformed answer (a lying or corrupt
// server) before callers index into it.
func checkMatrixShape(mr *MatrixRequest, ans *MatrixAnswer) error {
	n, m := len(mr.Srcs), len(mr.Dsts)
	if len(ans.Bandwidth) != n || len(ans.Latency) != n || len(ans.Valid) != n {
		return fmt.Errorf("collector: matrix answer has %d rows, want %d", len(ans.Bandwidth), n)
	}
	for i := 0; i < n; i++ {
		if len(ans.Bandwidth[i]) != m || len(ans.Latency[i]) != m || len(ans.Valid[i]) != m {
			return fmt.Errorf("collector: matrix answer row %d has %d cols, want %d", i, len(ans.Bandwidth[i]), m)
		}
	}
	return nil
}
