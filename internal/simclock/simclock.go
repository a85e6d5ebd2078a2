// Package simclock provides a deterministic discrete-event simulation
// kernel: a virtual clock and an event queue with stable ordering.
//
// All Remos experiments run in virtual time so that collector polling,
// background traffic, and application phases interleave reproducibly.
// Time is a float64 number of seconds since the start of the simulation;
// double precision keeps sub-microsecond resolution over the hour-long
// horizons the experiments need.
package simclock

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration = float64

// Infinity is a time later than any event the simulator will schedule.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback. The callback runs with the clock set to
// the event's due time and may schedule further events.
type Event struct {
	due      Time
	seq      uint64 // tie-breaker: FIFO among events at the same time
	index    int    // heap index; -1 when not queued
	canceled bool
	fn       func(now Time)
	label    string
}

// Due reports when the event fires.
func (e *Event) Due() Time { return e.due }

// Label returns the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 && !e.canceled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Clock is a virtual clock with an event queue. The zero value is ready to
// use and starts at time 0.
//
// Scheduling and running events belong to one goroutine at a time (the
// run loop, or whoever serialises with it). Now alone may be called from
// any goroutine: query paths read it for data ages while a driver
// goroutine advances the clock.
type Clock struct {
	now     atomic.Uint64 // math.Float64bits of the current Time; written only by the run loop
	queue   eventQueue
	nextSeq uint64
	running bool
	fired   uint64
}

// New returns a clock starting at time 0.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(math.Float64frombits(c.now.Load())) }

func (c *Clock) setNow(t Time) { c.now.Store(math.Float64bits(float64(t))) }

// Fired returns the number of events executed so far (diagnostic).
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of events still queued.
func (c *Clock) Pending() int {
	n := 0
	for _, e := range c.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("simclock: schedule in the past")

// Schedule queues fn to run at the absolute time due. It panics if due is
// before the current time: scheduling into the past is always a programming
// error in a discrete-event simulation.
func (c *Clock) Schedule(due Time, label string, fn func(now Time)) *Event {
	if now := c.Now(); due < now {
		panic(fmt.Errorf("%w: due=%v now=%v label=%q", ErrPast, due, now, label))
	}
	e := &Event{due: due, seq: c.nextSeq, fn: fn, label: label}
	c.nextSeq++
	heap.Push(&c.queue, e)
	return e
}

// After queues fn to run d seconds from now.
func (c *Clock) After(d Duration, label string, fn func(now Time)) *Event {
	if d < 0 {
		panic(fmt.Errorf("%w: negative delay %v label=%q", ErrPast, d, label))
	}
	return c.Schedule(c.Now()+Time(d), label, fn)
}

// Cancel removes a pending event. Canceling an already-fired or already-
// canceled event is a no-op. Cancel returns whether the event was pending.
func (c *Clock) Cancel(e *Event) bool {
	if e == nil || e.canceled || e.index < 0 {
		return false
	}
	e.canceled = true
	// Leave it in the heap; it is skipped when popped. This keeps Cancel
	// O(1) amortized, which matters because the network simulator cancels
	// and reschedules completion events on every allocation change.
	return true
}

// Reschedule moves a pending event to a new due time, preserving FIFO
// fairness at the new time. If the event already fired it is re-queued.
func (c *Clock) Reschedule(e *Event, due Time) *Event {
	c.Cancel(e)
	return c.Schedule(due, e.label, e.fn)
}

// Step runs the single earliest pending event. It returns false when the
// queue is empty.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		e := heap.Pop(&c.queue).(*Event)
		if e.canceled {
			continue
		}
		c.setNow(e.due)
		c.fired++
		e.fn(e.due)
		return true
	}
	return false
}

// peek returns the due time of the earliest live event, or Infinity.
func (c *Clock) peek() Time {
	for len(c.queue) > 0 {
		if c.queue[0].canceled {
			heap.Pop(&c.queue)
			continue
		}
		return c.queue[0].due
	}
	return Infinity
}

// NextDue reports when the next live event fires, or Infinity if none.
func (c *Clock) NextDue() Time { return c.peek() }

// RunUntil executes events in order until the queue is exhausted or the
// next event is strictly after the deadline, then advances the clock to the
// deadline. It returns the number of events executed.
func (c *Clock) RunUntil(deadline Time) int {
	if now := c.Now(); deadline < now {
		panic(fmt.Errorf("%w: deadline=%v now=%v", ErrPast, deadline, now))
	}
	if c.running {
		panic("simclock: reentrant RunUntil")
	}
	c.running = true
	defer func() { c.running = false }()
	n := 0
	for {
		next := c.peek()
		if next > deadline {
			break
		}
		c.Step()
		n++
	}
	if c.Now() < deadline {
		c.setNow(deadline)
	}
	return n
}

// Run executes events until the queue is empty and returns the count.
// A runaway simulation is cut off after maxEvents (0 means no limit).
func (c *Clock) Run(maxEvents int) int {
	n := 0
	for c.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// Advance moves the clock forward by d, executing any events that fall due.
func (c *Clock) Advance(d Duration) int {
	return c.RunUntil(c.Now() + Time(d))
}

// Ticker schedules fn every period seconds starting at start, until Stop is
// called. fn runs with the tick's virtual time.
type Ticker struct {
	clock  *Clock
	period Duration
	event  *Event
	stop   bool
	label  string
	fn     func(now Time)
	Ticks  uint64
}

// NewTicker starts a periodic callback. start is an absolute virtual time;
// period must be positive.
func (c *Clock) NewTicker(start Time, period Duration, label string, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive ticker period %v (%s)", period, label))
	}
	t := &Ticker{clock: c, period: period, label: label, fn: fn}
	t.event = c.Schedule(start, label, t.tick)
	return t
}

func (t *Ticker) tick(now Time) {
	if t.stop {
		return
	}
	t.Ticks++
	t.fn(now)
	if !t.stop {
		t.event = t.clock.Schedule(now+Time(t.period), t.label, t.tick)
	}
}

// Stop halts the ticker. Safe to call multiple times and from within fn.
func (t *Ticker) Stop() {
	t.stop = true
	t.clock.Cancel(t.event)
}
