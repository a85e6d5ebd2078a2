package collector

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// scriptedSource is a WatchSource whose every subscription plays the
// next script: the updates of one stream, after which the stream ends
// with a transport error.
type scriptedSource struct {
	mu      sync.Mutex
	scripts [][]WatchUpdate
	kinds   []string
}

func (s *scriptedSource) Watch(ctx context.Context, req WatchRequest) (*WatchHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds = append(s.kinds, req.Kind)
	if len(s.scripts) == 0 {
		return nil, errors.New("script exhausted")
	}
	script := s.scripts[0]
	s.scripts = s.scripts[1:]
	h := newWatchHandle(len(script))
	for _, u := range script {
		h.out <- u
	}
	h.setErr(errors.New("stream cut"))
	close(h.out)
	return h, nil
}

// TestFollowResubscribesOnIncoherence drives Follow over scripted
// streams: a feed stream is abandoned as a resync at a Seq gap and when
// an update fails to apply, and as a failure when it is cut; each time
// Follow subscribes afresh. A region-summary stream is never
// incoherent: an Overflowed summary is applied like any other.
func TestFollowResubscribesOnIncoherence(t *testing.T) {
	feed := func(seq uint64, epoch uint64) WatchUpdate {
		return WatchUpdate{Seq: seq, Feed: &FeedPayload{Epoch: epoch}}
	}
	type ended struct{ resync bool }
	run := func(kind string, scripts [][]WatchUpdate, apply func(WatchUpdate) (bool, error)) ([]ended, int) {
		t.Helper()
		src := &scriptedSource{scripts: scripts}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ends []ended
		released := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			Follow(ctx, FollowConfig{
				Dial: func() (WatchSource, func(), error) { return src, func() { released++ }, nil },
				Kind: kind, Base: 100 * time.Microsecond, Seed: 1,
				Ended: func(err error, resync bool) {
					if err == nil {
						t.Error("subscription ended without a reason")
					}
					if ends = append(ends, ended{resync}); len(ends) == len(scripts)+1 {
						cancel() // the script ran out: the last Watch was refused
					}
				},
			}, apply)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Follow did not return after its context ended")
		}
		for _, k := range src.kinds {
			if k != kind {
				t.Fatalf("subscribed to kind %q, want %q", k, kind)
			}
		}
		return ends, released
	}

	var applied []uint64
	ends, released := run(WatchFeed, [][]WatchUpdate{
		{feed(1, 10), feed(2, 11), feed(4, 13), feed(5, 14)}, // gap after 2: 13 and 14 must not apply
		{feed(1, 20), feed(2, 666), feed(3, 22)},             // 666 fails to apply: 22 must not
		{feed(1, 30)},                                        // cut
	}, func(u WatchUpdate) (bool, error) {
		if u.Feed.Epoch == 666 {
			return false, errors.New("poisoned")
		}
		applied = append(applied, u.Feed.Epoch)
		return true, nil
	})
	if want := []uint64{10, 11, 20, 30}; !slices.Equal(applied, want) {
		t.Fatalf("applied epochs %v, want %v", applied, want)
	}
	if want := []ended{{true}, {true}, {false}, {false}}; !slices.Equal(ends, want) {
		t.Fatalf("feed subscriptions ended %v, want %v (resync, resync, cut, refused)", ends, want)
	}
	if released != 4 {
		t.Fatalf("dialed source released %d times, want once per attempt (4)", released)
	}

	summaries := 0
	ends, _ = run(WatchRegionSummary, [][]WatchUpdate{{
		{Seq: 1, Summary: &RegionSummary{Epoch: 1}},
		{Seq: 5, Overflowed: true, Resync: true, Summary: &RegionSummary{Epoch: 5}},
	}}, func(u WatchUpdate) (bool, error) {
		summaries++
		return true, nil
	})
	if summaries != 2 || len(ends) != 2 || ends[0].resync {
		t.Fatalf("summary stream: %d applied, ended %v; want both applied and a plain cut", summaries, ends)
	}
}

// TestBackoffAfterMatchesTheSchedulesItReplaced pins BackoffAfter, bit
// for bit and draw for draw, to the three hand-rolled schedules it took
// over: the agent breaker (float, Exp2), the failover prober (Duration
// shift) and the federation peer (doubling loop, no jitter).
func TestBackoffAfterMatchesTheSchedulesItReplaced(t *testing.T) {
	const seed = 42
	for _, jitter := range []float64{0, 0.2} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for consec := 1; consec <= 40; consec++ {
			// health.go at the parent commit.
			base, max := 2.0, 32.0
			breaker := base * math.Exp2(float64(consec-1))
			if breaker > max {
				breaker = max
			}
			if jitter > 0 {
				breaker *= 1 + jitter*(2*want.Float64()-1)
			}
			if b := BackoffAfter(base, max, consec, jitter, got.Float64); math.Float64bits(b) != math.Float64bits(breaker) {
				t.Fatalf("breaker consec=%d jitter=%v: %v, was %v", consec, jitter, b, breaker)
			}
			// failover.go at the parent commit.
			dbase, dmax := 500*time.Millisecond, 8*time.Second
			shift := consec - 1
			if shift > 30 {
				shift = 30
			}
			probe := dbase << uint(shift)
			if probe > dmax {
				probe = dmax
			}
			if jitter > 0 {
				probe = time.Duration(float64(probe) * (1 + jitter*(2*want.Float64()-1)))
			}
			if d := time.Duration(BackoffAfter(float64(dbase), float64(dmax), consec, jitter, got.Float64)); d != probe {
				t.Fatalf("prober consec=%d jitter=%v: %v, was %v", consec, jitter, d, probe)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("jitter=%v: BackoffAfter drew from the rng a different number of times", jitter)
		}
	}
	// federation/peer.go at the parent commit.
	for fails := 1; fails <= 20; fails++ {
		back := 2.0
		for i := 1; i < fails && back < 60; i++ {
			back *= 2
		}
		if back > 60 {
			back = 60
		}
		if b := BackoffAfter(2, 60, fails, 0, nil); b != back {
			t.Fatalf("peer fails=%d: %v, was %v", fails, b, back)
		}
	}
}
