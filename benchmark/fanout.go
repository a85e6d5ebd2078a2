package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/remos"
)

// fanout is the push side of a fixture: version subscriptions
// multiplexed over two connections and, optionally, a read replica fed
// from the same endpoint. Receivers only timestamp arrivals and hand
// them to the driver; nothing sleeps or polls.
type fanout struct {
	fx       *fixture
	rep      *remos.ReadReplica
	conns    []*collector.Client
	handles  []*collector.WatchHandle
	arrivals chan arrival
	applied  chan applied
	stop     chan struct{}
	wg       sync.WaitGroup

	lastSeq    []uint64
	lastEpoch  []uint64
	repEpoch   uint64
	overflowed int // updates that arrived marked Overflowed
}

type arrival struct {
	sub        int
	seq, epoch uint64
	overflowed bool
	resync     bool
	at         time.Time
}

type applied struct {
	epoch uint64
	at    time.Time
}

// epochTimes are the timestamps of one epoch: poll start, poll done
// (version bumped), replica holds the version, last subscriber holds it.
type epochTimes struct {
	start, polled, applied, delivered time.Time
}

func newFanout(fx *fixture, subs int, withReplica bool) (*fanout, error) {
	f := &fanout{
		fx: fx,
		// Room for a few epochs per subscriber, so a receiver never
		// blocks on the driver while it is inside a poll.
		arrivals:  make(chan arrival, subs*8),
		applied:   make(chan applied, 64),
		stop:      make(chan struct{}),
		lastSeq:   make([]uint64, subs),
		lastEpoch: make([]uint64, subs),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if withReplica {
		f.rep = remos.NewReadReplica(remos.ReplicaConfig{FeedAddr: fx.addr, Seed: 1})
		f.rep.Start()
		if err := f.rep.WaitSynced(ctx); err != nil {
			f.close()
			return nil, fmt.Errorf("replica sync: %w", err)
		}
		f.repEpoch, _ = f.rep.DataVersion()
		wake, release := f.rep.SubscribeVersion()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer release()
			for {
				select {
				case <-wake:
					v, _ := f.rep.DataVersion()
					select {
					case f.applied <- applied{v, time.Now()}:
					case <-f.stop:
						return
					}
				case <-f.stop:
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		c, err := collector.Dial(fx.addr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, c)
	}
	for i := 0; i < subs; i++ {
		h, err := f.conns[i%2].Watch(context.Background(), collector.WatchRequest{Kind: collector.WatchVersion})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("subscribe %d: %w", i, err)
		}
		f.handles = append(f.handles, h)
		f.wg.Add(1)
		go func(sub int) {
			defer f.wg.Done()
			for u := range h.C {
				a := arrival{sub, u.Seq, u.Epoch, u.Overflowed, u.Resync, time.Now()}
				select {
				case f.arrivals <- a:
				case <-f.stop:
					return
				}
			}
		}(i)
	}
	// Every subscription delivers a baseline on subscribe; take those
	// before the first epoch so it is not charged for them.
	if _, err := f.await(f.fx.version(), time.Now().Add(epochDeadline)); err != nil {
		f.close()
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return f, nil
}

// epoch runs one poll period and waits until the replica and every
// subscriber hold the version it published.
func (f *fanout) epoch() (epochTimes, error) {
	var e epochTimes
	e.start = time.Now()
	f.fx.advance()
	v := f.fx.version()
	e.polled = time.Now()
	got, err := f.await(v, e.polled.Add(epochDeadline))
	e.applied, e.delivered = got.applied, got.delivered
	return e, err
}

// await consumes arrivals until everything holds version v. An update
// marked Overflowed or Resync, a gap in a subscription's Seq, or the
// deadline passing fails the epoch.
func (f *fanout) await(v uint64, deadline time.Time) (epochTimes, error) {
	var e epochTimes
	now := time.Now()
	e.applied, e.delivered = now, now
	pending := 0
	for _, have := range f.lastEpoch {
		if have < v {
			pending++
		}
	}
	repPending := f.rep != nil && f.repEpoch < v
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	var failure error
	for pending > 0 || repPending {
		select {
		case a := <-f.arrivals:
			switch {
			case a.overflowed:
				f.overflowed++
				failure = fmt.Errorf("subscription %d: update seq %d marked Overflowed", a.sub, a.seq)
			case a.resync:
				failure = fmt.Errorf("subscription %d: update seq %d marked Resync", a.sub, a.seq)
			case f.lastSeq[a.sub] != 0 && a.seq != f.lastSeq[a.sub]+1:
				failure = fmt.Errorf("subscription %d: seq gap %d -> %d", a.sub, f.lastSeq[a.sub], a.seq)
			}
			f.lastSeq[a.sub] = a.seq
			if f.lastEpoch[a.sub] < v && a.epoch >= v {
				pending--
				e.delivered = a.at
			}
			f.lastEpoch[a.sub] = a.epoch
		case r := <-f.applied:
			f.repEpoch = r.epoch
			if repPending && r.epoch >= v {
				repPending = false
				e.applied = r.at
			}
		case <-timer.C:
			return e, fmt.Errorf("version %d undelivered after %v: %d subscribers and replica=%v still behind",
				v, epochDeadline, pending, repPending)
		}
	}
	return e, failure
}

func (f *fanout) close() {
	close(f.stop)
	for _, h := range f.handles {
		h.Cancel()
	}
	f.wg.Wait()
	for _, c := range f.conns {
		c.Close()
	}
	if f.rep != nil {
		f.rep.Close()
	}
}
