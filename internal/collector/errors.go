package collector

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Typed query-lifecycle errors. The query path distinguishes three ways
// a request can fail without an answer being wrong:
//
//   - the caller's time budget ran out (ErrDeadlineExceeded),
//   - the server refused the work to protect itself (ErrLoadShed, and
//     the older connection-cap ErrServerBusy in server.go),
//   - the wire carried something structurally unacceptable
//     (ErrFrameTooLarge in frame.go).
//
// All are sentinel errors tested with errors.Is; FailoverSource routes
// around the refusals, and the Modeler propagates them instead of
// falling back to fabricated capacity answers.

// deadlineErr is ErrDeadlineExceeded's concrete type. Its Is method
// makes errors.Is(err, context.DeadlineExceeded) succeed too, so code
// written against the standard context idiom keeps working.
type deadlineErr struct{}

func (deadlineErr) Error() string { return "collector: deadline exceeded" }

func (deadlineErr) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrDeadlineExceeded is returned when a query's time budget expires —
// client-side (the context deadline passed before or during the call)
// or server-side (the budget hint in the request frame ran out before
// the server could compute an answer). Test with errors.Is; it also
// matches context.DeadlineExceeded.
var ErrDeadlineExceeded error = deadlineErr{}

// ErrStaleReplica is the typed refusal of a read replica whose feed
// has been partitioned longer than its staleness fence — or that has
// not yet applied its first snapshot. The replica will serve answers
// with honestly growing ages up to the fence, and refuses past it
// rather than presenting old state as fresh. Like the overload
// refusals, it proves the replica process alive: FailoverSource routes
// the call to the next replica (or the collector itself) without
// marking the stale one Down.
var ErrStaleReplica = errors.New("collector: replica stale beyond fence")

// ErrNotLeader is the typed refusal of a standby collector in a
// hot-standby pair (internal/ha): the process is alive and state-synced
// but not the leader, so it must not answer queries that would shadow
// the leader's authoritative state. Like the overload refusals it
// proves the process alive; FailoverSource routes the call to the
// leader (following the hint when the refusal carries one) without
// marking the standby Down.
var ErrNotLeader = errors.New("collector: not the leader")

// NotLeaderError wraps ErrNotLeader with the refusing node's best guess
// at the current leader's query address ("" when unknown).
type NotLeaderError struct {
	// Leader is the advertised query address of the node believed to
	// hold the lease, for client-side rerouting.
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return ErrNotLeader.Error()
	}
	return fmt.Sprintf("collector: not the leader (leader at %s)", e.Leader)
}

func (e *NotLeaderError) Unwrap() error { return ErrNotLeader }

// LeaderHint extracts the leader address from a not-leader error chain;
// ok is false when err carries no hint.
func LeaderHint(err error) (string, bool) {
	var nl *NotLeaderError
	if errors.As(err, &nl) && nl.Leader != "" {
		return nl.Leader, true
	}
	return "", false
}

// ErrLoadShed is the typed refusal an overloaded server answers with
// when its admission queue is full: the request was never started, so
// retrying elsewhere (or later — see RetryAfter) is safe.
// FailoverSource treats it like ErrServerBusy: try the next replica.
var ErrLoadShed = errors.New("collector: load shed")

// ShedError wraps ErrLoadShed with the server's retry-after hint.
type ShedError struct {
	// RetryAfter is how long the server suggests waiting before
	// retrying this replica.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("collector: load shed (retry after %v)", e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrLoadShed }

// RetryAfterHint extracts the retry-after duration from a load-shed
// error chain; ok is false when err carries no hint.
func RetryAfterHint(err error) (time.Duration, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	return 0, false
}

// ctxError maps a finished context to the typed lifecycle error: a
// passed deadline becomes ErrDeadlineExceeded, a cancellation stays
// context.Canceled. It returns nil while the context is live.
func ctxError(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	default:
		return err
	}
}

// ctxCallError is ctxError plus a wall-clock deadline check: when a
// call's I/O deadline is set to the context deadline, the blocked read
// can fail a hair before the context's own timer fires. The deadline
// having passed is authoritative either way — the caller's budget is
// spent — so it maps to ErrDeadlineExceeded even if ctx.Err() is still
// nil.
func ctxCallError(ctx context.Context) error {
	if err := ctxError(ctx); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return ErrDeadlineExceeded
	}
	return nil
}

// IsLifecycleError reports whether err is one of the typed
// query-lifecycle errors (deadline, cancellation, shed, busy): the
// class of errors that mean "the caller gave up or the server refused",
// which consumers must propagate rather than paper over with degraded
// answers.
func IsLifecycleError(err error) bool {
	return errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrLoadShed) ||
		errors.Is(err, ErrServerBusy) ||
		errors.Is(err, ErrStaleReplica) ||
		errors.Is(err, ErrNotLeader) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
