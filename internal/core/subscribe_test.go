package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
)

// scriptedSource is a two-host network whose every answer the test
// sets: one a-b link, a utilization shared by both directions, a
// topology that can fail, and a rediscovery that doubles the link's
// capacity. It is versioned and rings a version bell, so a Modeler over
// it (in process or behind a server) wakes on each bump.
type scriptedSource struct {
	ver     atomic.Uint64
	util    atomic.Uint64 // bits/s on each channel
	disc    atomic.Uint64 // DiscoveredAt; non-zero doubles the capacity
	topoErr atomic.Bool
	readAt  atomic.Uint64 // data version of the newest utilization read

	collector.VersionBell
}

func newScriptedSource(util float64) *scriptedSource {
	s := &scriptedSource{}
	s.util.Store(uint64(util))
	s.ver.Store(1)
	return s
}

// set moves the network to util (bits/s) and bumps the data version.
func (s *scriptedSource) set(util float64) uint64 {
	s.util.Store(uint64(util))
	return s.bump()
}

func (s *scriptedSource) bump() uint64 {
	v := s.ver.Add(1)
	s.Ring()
	return v
}

func (s *scriptedSource) capacity() float64 {
	if s.disc.Load() != 0 {
		return 200e6
	}
	return 100e6
}

func (s *scriptedSource) TopologyCtx(ctx context.Context) (*collector.Topology, error) {
	if s.topoErr.Load() {
		return nil, errors.New("scripted: discovery failed")
	}
	g := graph.New()
	g.AddHost("a", 1)
	g.AddHost("b", 1)
	l := g.AddLink("a", "b", s.capacity(), 0.0005)
	return &collector.Topology{Graph: g, GlobalID: map[graph.LinkID]int{l.ID: 1},
		DiscoveredAt: float64(s.disc.Load())}, nil
}

func (s *scriptedSource) UtilizationCtx(ctx context.Context, key collector.ChannelKey, span float64) (stats.Stat, error) {
	v := s.ver.Load()
	st := stats.Exact(float64(s.util.Load()))
	s.readAt.Store(v)
	return st, nil
}

func (s *scriptedSource) SamplesCtx(ctx context.Context, key collector.ChannelKey) ([]stats.Sample, error) {
	return []stats.Sample{{Time: 1, Value: float64(s.util.Load())}}, nil
}

func (s *scriptedSource) HostLoadCtx(ctx context.Context, node graph.NodeID, span float64) (stats.Stat, error) {
	return stats.Exact(0.5), nil
}

func (s *scriptedSource) DataAgeCtx(ctx context.Context, key collector.ChannelKey) (float64, error) {
	return 0, nil
}

func (s *scriptedSource) DataVersion() (uint64, bool) { return s.ver.Load(), true }

func (s *scriptedSource) Watch(ctx context.Context, req collector.WatchRequest) (*collector.WatchHandle, error) {
	return collector.WatchLocal(ctx, s, req)
}

// waitRead blocks until the Modeler has read the network at data
// version v, so the next bump cannot coalesce with v.
func (s *scriptedSource) waitRead(t *testing.T, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.readAt.Load() < v {
		if time.Now().After(deadline) {
			t.Fatalf("the Modeler never evaluated version %d (newest read at %d)", v, s.readAt.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// watchRec is one delivered Modeler update, whichever query it answers.
type watchRec struct {
	seq                                  uint64
	overflowed, resync, topoChanged, fin bool
	flowOnly                             bool // a FlowInfoUpdate, which has no TopoChanged
	err                                  error
	value                                float64 // link availability or flow bandwidth median
}

var (
	errWatchClosed  = errors.New("watch channel closed")
	errWatchTimeout = errors.New("no watch update")
)

// watchProbe adapts a GraphWatch or FlowInfoWatch to the scenario. next
// reads straight from the watch's channel, so an unread channel backs up
// exactly as it would for a slow consumer.
type watchProbe struct {
	next   func(within time.Duration) (watchRec, error)
	cancel func()
	err    func() error
	seen   *[]watchRec // what recvRec and drainQuiet read, for failures
}

func recvRec(t *testing.T, p watchProbe, within time.Duration) watchRec {
	t.Helper()
	r, err := p.next(within)
	if err != nil {
		t.Fatalf("%v within %v (watch err %v; records so far %+v)", err, within, p.err(), *p.seen)
	}
	*p.seen = append(*p.seen, r)
	return r
}

// drainQuiet reads until no update arrives for a quiet spell.
func drainQuiet(t *testing.T, p watchProbe) {
	t.Helper()
	for {
		r, err := p.next(300 * time.Millisecond)
		if errors.Is(err, errWatchTimeout) {
			return
		}
		if err != nil {
			t.Fatalf("draining: %v (watch err %v; records so far %+v)", err, p.err(), *p.seen)
		}
		*p.seen = append(*p.seen, r)
	}
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-6*want }

// runModelerWatch drives one Modeler subscription through the scenario
// both tiers share, in process and over a dialed FailoverSource with
// two servers in front of the same source:
//
//   - the threshold compares against the last delivered answer;
//   - an Err does not end the stream, and the first clean answer after
//     it is delivered even when it lies within the threshold;
//   - TopoChanged refreshes the Modeler, whose next answer sees the
//     rediscovered capacity;
//   - a consumer that stops reading gets Overflowed;
//   - dialed only: Resync after the serving replica dies, then Final
//     from the other one's graceful shutdown, then C closes.
func runModelerWatch(t *testing.T, open func(t *testing.T, m *Modeler, opts WatchOptions) watchProbe) {
	scenario := func(t *testing.T, src *scriptedSource, m *Modeler) watchProbe {
		p := open(t, m, WatchOptions{Threshold: 0.3})
		p.seen = new([]watchRec)
		if r := recvRec(t, p, 5*time.Second); r.err != nil || !near(r.value, 90e6) {
			t.Fatalf("baseline = %+v; want 90e6 without Err", r)
		}
		// 90 -> 70 is 22 %: gated. 70 -> 55 is 21 %, but 90 -> 55 is
		// 39 %: delivered, because the last delivered answer is 90.
		src.waitRead(t, src.set(30e6))
		src.set(45e6)
		if r := recvRec(t, p, 5*time.Second); r.err != nil || !near(r.value, 55e6) {
			t.Fatalf("after a gated epoch = %+v; want 55e6", r)
		}

		src.topoErr.Store(true)
		src.bump()
		if r := recvRec(t, p, 5*time.Second); r.err == nil {
			t.Fatalf("failed discovery delivered %+v; want an Err update", r)
		}
		src.topoErr.Store(false)
		src.bump()
		if r := recvRec(t, p, 2*time.Second); r.err != nil || !near(r.value, 55e6) {
			t.Fatalf("recovery = %+v; want the clean 55e6 answer though it is within the threshold", r)
		}

		src.disc.Store(5) // rediscovery doubles the capacity
		src.bump()
		if r := recvRec(t, p, 5*time.Second); r.err != nil || !near(r.value, 155e6) {
			t.Fatalf("after rediscovery = %+v; want 155e6 from the refreshed topology", r)
		} else if !r.topoChanged && !r.flowOnly {
			t.Fatalf("after rediscovery = %+v; TopoChanged not carried", r)
		}

		// Stop reading while every epoch is material (155 -> 50 and
		// 50 <-> 190 all move by more than 30 %).
		var v uint64
		for i := 0; i < 100; i++ {
			v = src.set([]float64{150e6, 10e6}[i%2])
			time.Sleep(time.Millisecond)
		}
		src.waitRead(t, v)
		for i := 0; ; i++ {
			r := recvRec(t, p, 5*time.Second)
			if r.overflowed {
				break
			}
			if i >= 5 {
				t.Fatal("a consumer that stopped reading never saw Overflowed")
			}
		}
		drainQuiet(t, p)
		return p
	}

	t.Run("in-process", func(t *testing.T) {
		src := newScriptedSource(10e6)
		p := scenario(t, src, New(Config{Source: src}))
		p.cancel()
		for {
			if _, err := p.next(5 * time.Second); err != nil {
				if !errors.Is(err, errWatchClosed) {
					t.Fatalf("after Cancel: %v", err)
				}
				break
			}
		}
		if err := p.err(); err != nil {
			t.Fatalf("Cancel surfaced err %v", err)
		}
	})

	t.Run("dialed", func(t *testing.T) {
		src := newScriptedSource(10e6)
		srvA, err := collector.ServeConfig(src, "127.0.0.1:0", collector.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srvA.Close()
		srvB, err := collector.ServeConfig(src, "127.0.0.1:0", collector.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srvB.Close()
		f, err := collector.DialFailover([]string{srvA.Addr(), srvB.Addr()}, collector.FailoverConfig{
			Client:        collector.ClientConfig{CallTimeout: 5 * time.Second, RetryBackoff: 10 * time.Millisecond},
			ProbeInterval: -1, BackoffBase: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		p := scenario(t, src, New(Config{Source: f}))
		defer p.cancel()

		srvA.Close() // abrupt: the stream dies, the failover set moves to B
		for i := 0; ; i++ {
			r := recvRec(t, p, 10*time.Second)
			if r.resync {
				if r.err != nil || r.value == 0 {
					t.Fatalf("resync update = %+v; want a fresh answer", r)
				}
				break
			}
			if i >= 3 {
				t.Fatal("no Resync after the serving replica died")
			}
		}

		done := make(chan error, 1)
		go func() { done <- srvB.Shutdown(5 * time.Second) }()
		for {
			r := recvRec(t, p, 10*time.Second)
			if r.fin {
				break
			}
		}
		if _, err := p.next(5 * time.Second); !errors.Is(err, errWatchClosed) {
			t.Fatalf("after Final: %v; want the channel closed", err)
		}
		if err := p.err(); err != nil {
			t.Fatalf("clean Final surfaced err %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})
}

// TestModelerWatchGraph runs the shared scenario on WatchGraph; the
// headline value is the a->b availability.
func TestModelerWatchGraph(t *testing.T) {
	runModelerWatch(t, func(t *testing.T, m *Modeler, opts WatchOptions) watchProbe {
		w, err := m.WatchGraph(context.Background(), []graph.NodeID{"a", "b"}, TFHistory(10), opts)
		if err != nil {
			t.Fatal(err)
		}
		return watchProbe{cancel: w.Cancel, err: w.Err, next: func(within time.Duration) (watchRec, error) {
			select {
			case u, ok := <-w.C:
				if !ok {
					return watchRec{}, errWatchClosed
				}
				r := watchRec{seq: u.Seq, overflowed: u.Overflowed, resync: u.Resync,
					topoChanged: u.TopoChanged, fin: u.Final, err: u.Err}
				if u.Graph != nil {
					if len(u.Graph.Links) != 1 {
						return r, fmt.Errorf("graph has %d links, want 1", len(u.Graph.Links))
					}
					r.value = u.Graph.Links[0].Avail[0].Median
				}
				return r, nil
			case <-time.After(within):
				return watchRec{}, errWatchTimeout
			}
		}}
	})
}

// TestModelerWatchFlowInfo runs the shared scenario on WatchFlowInfo;
// the headline value is one independent a->b flow's bandwidth.
func TestModelerWatchFlowInfo(t *testing.T) {
	runModelerWatch(t, func(t *testing.T, m *Modeler, opts WatchOptions) watchProbe {
		flows := []Flow{{Src: "a", Dst: "b", Kind: IndependentFlow}}
		w, err := m.WatchFlowInfo(context.Background(), nil, nil, flows, TFHistory(10), opts)
		if err != nil {
			t.Fatal(err)
		}
		return watchProbe{cancel: w.Cancel, err: w.Err, next: func(within time.Duration) (watchRec, error) {
			select {
			case u, ok := <-w.C:
				if !ok {
					return watchRec{}, errWatchClosed
				}
				// FlowInfoUpdate has no TopoChanged: the flow answer
				// shows a rediscovery only through its values.
				r := watchRec{seq: u.Seq, overflowed: u.Overflowed, resync: u.Resync,
					fin: u.Final, err: u.Err, flowOnly: true}
				if u.Info != nil {
					all := u.Info.All()
					if len(all) != 1 {
						return r, fmt.Errorf("flow answer has %d flows, want 1", len(all))
					}
					r.value = all[0].Bandwidth.Median
				}
				return r, nil
			case <-time.After(within):
				return watchRec{}, errWatchTimeout
			}
		}}
	})
}
