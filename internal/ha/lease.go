// Package ha implements hot-standby collector pairs: a lease-based
// leader election with monotonic terms, live state sync over the
// collector's replication feed, and split-brain fencing.
//
// Exactly one collector of a pair holds the lease and polls agents
// (the leader); the other subscribes to the leader's WatchFeed stream
// and applies payloads straight into its own collector so its windows
// stay warm (the standby). When the lease expires — leader crash,
// partition from the lease store — the standby acquires it at the next
// term, starts polling, and every frame it emits carries the new term
// so replicas and failover clients fence the deposed leader. A deposed
// leader discovers the higher term on its next renewal and steps down
// instead of double-polling.
package ha

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/simclock"
)

// LeaseState is one observation of the lease: who holds it, at what
// term, and whether the holder's grant has lapsed. Term is monotonic
// across holders — every successful Acquire mints the next term — so
// a higher term always denotes a later leadership epoch.
type LeaseState struct {
	Holder  string
	Term    uint64
	Expired bool
}

// Lease is the election primitive of a hot-standby pair. TTL units are
// owned by the implementation: MemoryLease counts virtual seconds on a
// simclock (deterministic tests), FileLease counts wall seconds.
//
// The contract the Node depends on:
//
//   - Acquire succeeds only while the lease is free or expired, and
//     mints term = previous term + 1. Two racing acquirers cannot both
//     succeed at the same term.
//   - Renew succeeds only while id still holds the lease at exactly
//     term; once another node acquires, every renewal by the old
//     holder fails — that failure is how a deposed leader learns to
//     step down.
//   - Observe never mutates state.
type Lease interface {
	Acquire(id string, ttl float64) (term uint64, ok bool, err error)
	Renew(id string, term uint64, ttl float64) (ok bool, err error)
	Observe() (LeaseState, error)
	Release(id string, term uint64) error
}

// MemoryLease is an in-process Lease on virtual time, for tests and
// single-process pairs. TTLs are virtual seconds on the shared clock.
type MemoryLease struct {
	clk *simclock.Clock

	mu     sync.Mutex
	holder string
	term   uint64
	expiry simclock.Time
}

// NewMemoryLease returns a free lease at term 0 on clk.
//
//reach:keep the virtual-clock Lease the ha, remos and root bench tests run on; FileLease follows wall time
func NewMemoryLease(clk *simclock.Clock) *MemoryLease {
	return &MemoryLease{clk: clk}
}

// Acquire takes the lease if it is free or expired, minting the next
// term.
func (l *MemoryLease) Acquire(id string, ttl float64) (uint64, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.Now()
	if l.holder != "" && l.holder != id && now < l.expiry {
		return 0, false, nil
	}
	l.term++
	l.holder = id
	l.expiry = now + simclock.Time(ttl)
	return l.term, true, nil
}

// Renew extends the grant while id still holds the lease at term.
func (l *MemoryLease) Renew(id string, term uint64, ttl float64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder != id || l.term != term {
		return false, nil
	}
	// Expired but unclaimed is still ours: nobody minted a newer term.
	l.expiry = l.clk.Now() + simclock.Time(ttl)
	return true, nil
}

// Observe reports the current holder, term, and expiry.
func (l *MemoryLease) Observe() (LeaseState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaseState{
		Holder:  l.holder,
		Term:    l.term,
		Expired: l.holder == "" || l.clk.Now() >= l.expiry,
	}, nil
}

// Release gives the lease up immediately if id holds it at term. The
// term survives so the next Acquire still mints term+1.
func (l *MemoryLease) Release(id string, term uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder == id && l.term == term {
		l.holder = ""
	}
	return nil
}

// FileLease is a Lease backed by a flock-serialized JSON file, for
// pairs sharing a filesystem (the remos-collector -lease flag). Every
// operation is one read-modify-write under an exclusive flock, so two
// daemons racing an expired lease cannot both mint the same term. TTLs
// are wall-clock seconds.
type FileLease struct {
	path string
	now  func() time.Time // test hook; defaults to time.Now
}

// fileLeaseState is the on-disk representation.
type fileLeaseState struct {
	Holder string `json:"holder"`
	Term   uint64 `json:"term"`
	Expiry int64  `json:"expiry_unix_nano"`
}

// NewFileLease returns a lease stored at path. The file is created on
// first use; an empty or missing file is a free lease at term 0.
func NewFileLease(path string) *FileLease {
	return &FileLease{path: path, now: time.Now}
}

// withLocked runs fn with the lease file exclusively flocked, writing
// the state back when fn reports a mutation.
func (l *FileLease) withLocked(fn func(st *fileLeaseState) (write bool)) error {
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("ha: lease file: %w", err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("ha: lease flock: %w", err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	var st fileLeaseState
	raw, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("ha: lease read: %w", err)
	}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("ha: lease file corrupt: %w", err)
		}
	}
	if !fn(&st) {
		return nil
	}
	out, err := json.Marshal(&st)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("ha: lease write: %w", err)
	}
	if _, err := f.WriteAt(out, 0); err != nil {
		return fmt.Errorf("ha: lease write: %w", err)
	}
	return f.Sync()
}

// Acquire takes the lease if it is free or expired, minting the next
// term.
func (l *FileLease) Acquire(id string, ttl float64) (uint64, bool, error) {
	var term uint64
	var ok bool
	err := l.withLocked(func(st *fileLeaseState) bool {
		now := l.now()
		if st.Holder != "" && st.Holder != id && now.UnixNano() < st.Expiry {
			return false
		}
		st.Term++
		st.Holder = id
		st.Expiry = now.Add(time.Duration(ttl * float64(time.Second))).UnixNano()
		term, ok = st.Term, true
		return true
	})
	return term, ok, err
}

// Renew extends the grant while id still holds the lease at term.
func (l *FileLease) Renew(id string, term uint64, ttl float64) (bool, error) {
	var ok bool
	err := l.withLocked(func(st *fileLeaseState) bool {
		if st.Holder != id || st.Term != term {
			return false
		}
		st.Expiry = l.now().Add(time.Duration(ttl * float64(time.Second))).UnixNano()
		ok = true
		return true
	})
	return ok, err
}

// Observe reports the current holder, term, and expiry.
func (l *FileLease) Observe() (LeaseState, error) {
	var out LeaseState
	err := l.withLocked(func(st *fileLeaseState) bool {
		out = LeaseState{
			Holder:  st.Holder,
			Term:    st.Term,
			Expired: st.Holder == "" || l.now().UnixNano() >= st.Expiry,
		}
		return false
	})
	return out, err
}

// Release gives the lease up immediately if id holds it at term.
func (l *FileLease) Release(id string, term uint64) error {
	return l.withLocked(func(st *fileLeaseState) bool {
		if st.Holder != id || st.Term != term {
			return false
		}
		st.Holder = ""
		return true
	})
}

var errStopped = errors.New("ha: node stopped")
