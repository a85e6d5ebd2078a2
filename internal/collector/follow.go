package collector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// A read replica, an HA standby and a federation peer each keep one
// watch subscription alive against another process and apply what it
// pushes. Follow is that loop, once; NeedsResync and FenceFeed are its
// two rules for feed streams; BackoffAfter is its (and every breaker's)
// retry schedule.

// BackoffAfter is the one retry schedule in the tree: after the
// consec-th consecutive failure (1-based) wait min(base·2^(consec-1),
// max), spread by ±jitter. rnd is drawn from exactly once per call when
// jitter > 0 and never otherwise, so a caller's seeded schedule is
// reproducible.
func BackoffAfter(base, max float64, consec int, jitter float64, rnd func() float64) float64 {
	backoff := base * math.Exp2(float64(consec-1))
	if backoff > max {
		backoff = max
	}
	if jitter > 0 {
		backoff *= 1 + jitter*(2*rnd()-1)
	}
	return backoff
}

// sleepCtx waits d, or less if ctx ends first, and reports whether the
// wait ran its course.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FollowConfig says whom to follow and how patiently.
type FollowConfig struct {
	// Addrs are dialed with Client, one per attempt, rotating: if the
	// current feeder dies — or refuses as a hot-standby pair's non-leader
	// — the next attempt tries its peer instead of hammering the same
	// address.
	Addrs  []string
	Client ClientConfig
	// Dial, when set, replaces Addrs: it is called before each attempt,
	// and release once the attempt's stream has ended.
	Dial func() (ws WatchSource, release func(), err error)
	// Kind is the watch kind to subscribe to.
	Kind string
	// Base is the first reconnect delay. It doubles per consecutive
	// subscription that made no progress, up to 16×, each wait spread by
	// ±20 % so a fleet cut off by one partition does not reconnect in
	// lockstep.
	Base time.Duration
	// Seed seeds that jitter; 0 derives one from the wall clock so a
	// fleet decorrelates naturally.
	Seed int64
	// Ended, when set, is told why each subscription ended; resync says
	// the stream lost coherence or an update failed to apply, as opposed
	// to the dial, the subscribe or the stream itself failing. Tiers map
	// it onto their own metrics.
	Ended func(err error, resync bool)
}

// errResync marks a subscription that ended because what was applied no
// longer chains to what comes next.
var errResync = errors.New("collector: stream coherence lost, resyncing")

// Follow keeps one subscription alive until ctx ends, calling apply for
// every coherent update, in order, on the calling goroutine. apply
// reports whether the update advanced the follower's state (progress
// restarts the backoff ladder); an error from it abandons the
// subscription as a resync. A fresh subscription has a fresh
// server-side cursor, so on the feed kind its first update is a Full
// payload again — that is the resync.
func Follow(ctx context.Context, cfg FollowConfig, apply func(WatchUpdate) (progress bool, err error)) {
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := float64(cfg.Base)
	idle := 0 // consecutive subscriptions that ended without progress
	for attempt := 0; ctx.Err() == nil; attempt++ {
		progress, err := followOnce(ctx, cfg, attempt, apply)
		if ctx.Err() != nil {
			return
		}
		if cfg.Ended != nil {
			cfg.Ended(err, errors.Is(err, errResync))
		}
		if progress {
			idle = 0
		}
		idle++
		if !sleepCtx(ctx, time.Duration(BackoffAfter(base, 16*base, idle, 0.2, rng.Float64))) {
			return
		}
	}
}

// followOnce runs one subscription lifetime: dial, subscribe, consume
// until the stream breaks.
func followOnce(ctx context.Context, cfg FollowConfig, attempt int, apply func(WatchUpdate) (bool, error)) (progress bool, err error) {
	dial := cfg.Dial
	if dial == nil {
		dial = func() (WatchSource, func(), error) {
			if len(cfg.Addrs) == 0 {
				return nil, nil, errors.New("collector: no address to follow")
			}
			cl, err := DialConfig(cfg.Addrs[attempt%len(cfg.Addrs)], cfg.Client)
			if err != nil {
				return nil, nil, err
			}
			return cl, func() { cl.Close() }, nil
		}
	}
	ws, release, err := dial()
	if err != nil {
		return false, err
	}
	defer release()
	h, err := ws.Watch(ctx, WatchRequest{Kind: cfg.Kind})
	if err != nil {
		return false, err
	}
	defer h.Cancel()
	var lastSeq uint64
	for {
		var u WatchUpdate
		var open bool
		select {
		case u, open = <-h.C:
		case <-ctx.Done():
			return progress, ctx.Err()
		}
		if !open {
			if werr := h.Err(); werr != nil {
				return progress, werr
			}
			return progress, errors.New("collector: followed stream closed")
		}
		if u.Final {
			// Server drained us (graceful shutdown): reconnect.
			return progress, errors.New("collector: followed stream drained by server")
		}
		// Only feed updates chain. A region summary, like every other
		// kind, is complete in itself: a dropped or re-based one loses
		// nothing the next does not carry.
		if cfg.Kind == WatchFeed && NeedsResync(lastSeq, u, progress) {
			return progress, errResync
		}
		if u.Seq != 0 {
			lastSeq = u.Seq
		}
		ok, err := apply(u)
		if err != nil {
			return progress, fmt.Errorf("%w (%v)", errResync, err)
		}
		progress = progress || ok
	}
}

// NeedsResync is the feed stream-coherence rule, as a pure function: a
// Seq gap means updates were dropped, Overflowed means the server's
// queue folded states together, and a Resync mark after progress means
// the stream re-based on another server — in every case the deltas no
// longer chain from what was applied, so only a fresh full snapshot is
// safe. (A Resync mark before any progress is fine: there is nothing to
// be incoherent with yet.)
func NeedsResync(lastSeq uint64, u WatchUpdate, progress bool) bool {
	if u.Seq != 0 && lastSeq != 0 && u.Seq != lastSeq+1 {
		return true
	}
	if u.Overflowed {
		return true
	}
	// A Resync-marked update that carries a self-contained Full feed
	// payload is an in-band re-base — the source replaced its state
	// wholesale (checkpoint restore, HA term change) and re-shipped a
	// snapshot on the live subscription. Applying it IS the resync; no
	// fresh subscription needed.
	return u.Resync && progress && (u.Feed == nil || !u.Feed.Full)
}

// ErrDeposedTerm is FenceFeed's refusal of a payload from a lease term
// below the one already applied.
var ErrDeposedTerm = errors.New("collector: feed payload from a deposed leader's term")

// FenceFeed is the term fence for feed payloads, given the HA lease
// term of what the follower has applied so far: a payload from a lower
// term is a deposed leader still feeding — reject it (the resulting
// resync rotates to the live leader). A term advance is only coherent
// as a fresh Full snapshot; a delta across terms chains from state the
// new leader never had. Followers call it in the critical section that
// installs the payload (the HA standby orders both with promotions),
// which is why it is not a step of Follow.
func FenceFeed(p *FeedPayload, applied uint64) error {
	if p.Term < applied {
		return fmt.Errorf("%w: term %d below applied term %d", ErrDeposedTerm, p.Term, applied)
	}
	if p.Term > applied && !p.Full {
		return fmt.Errorf("collector: feed delta across term change (%d -> %d)", applied, p.Term)
	}
	return nil
}
