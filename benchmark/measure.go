package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// verdict is the outcome of one oracle check.
type verdict int

const (
	checkOK verdict = iota
	// checkSkipped: a poll moved the collector's data version between
	// the op and the oracle, so the two answers are not comparable.
	checkSkipped
	checkMismatch
)

// client is one closed-loop generator goroutine: it issues its next op
// when the previous one has returned, as a Remos library call does.
type client struct {
	ops  []op // pre-generated schedule, cycled if the phase outlasts it
	next int
	// name is the public function the op calls; it names the op's span.
	name func(o *op) string
	// do is the timed call into the system.
	do func(ctx context.Context, o *op) (any, error)
	// check compares the answer with the in-process oracle. It runs
	// outside the timed interval.
	check func(o *op, ans any) verdict
	// after is system work the client triggers between ops (a poll
	// round). It is time inside the system but not an op.
	after func(i int)
}

// sample is one completed op.
type sample struct {
	latNS  int64
	doneNS int64 // completion time since the phase began
	traced bool  // recorded with spans on
}

// tick is a reading the phase's ticker took at a slice boundary.
type tick struct {
	atNS int64 // since the phase began
	cpu  time.Duration
}

// phase is what one timed phase of a workload produced.
type phase struct {
	samples []sample
	ticks   []tick // slice boundaries, first at 0
	wall    time.Duration
	outside time.Duration // summed over clients: time not spent inside the system
	clients int
	failed  int
	checks  int
	skipped int
	errs    []string // first few failures, for the report
}

// latencies returns the latencies of the ops recorded with tracing on,
// or of those recorded with it off.
func (p *phase) latencies(traced bool) []int64 {
	var out []int64
	for _, s := range p.samples {
		if s.traced == traced {
			out = append(out, s.latNS)
		}
	}
	return out
}

// idleShare is the part of the clients' time spent outside calls into
// the system: schedule lookup, timestamps, oracle checks.
func (p *phase) idleShare() float64 {
	return float64(p.outside) / float64(p.wall*time.Duration(p.clients))
}

// sliceStats are one slice's throughput, median latency and CPU per op.
type sliceStats struct {
	opsPerS, p50MS, cpuMSPerOp float64
}

// slices cuts the phase at its ticks. The end-to-end throughput, median
// latency and CPU per op are reported as medians over these slices: on a
// shared 2-core sandbox the machine itself slows down for seconds at a
// time, and a median over slices does not move with such a stretch
// unless it covers half the run.
func (p *phase) slices() []sliceStats {
	var out []sliceStats
	byDone := append([]sample(nil), p.samples...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].doneNS < byDone[j].doneNS })
	i := 0
	for k := 0; k+1 < len(p.ticks); k++ {
		lo, hi := p.ticks[k], p.ticks[k+1]
		var lat []float64
		for ; i < len(byDone) && byDone[i].doneNS < hi.atNS; i++ {
			lat = append(lat, float64(byDone[i].latNS)/1e6)
		}
		if len(lat) == 0 || hi.atNS <= lo.atNS {
			continue
		}
		out = append(out, sliceStats{
			opsPerS:    float64(len(lat)) / (float64(hi.atNS-lo.atNS) / 1e9),
			p50MS:      median(lat),
			cpuMSPerOp: (hi.cpu - lo.cpu).Seconds() * 1e3 / float64(len(lat)),
		})
	}
	return out
}

// runPhase drives every client for d. Every checkEvery-th op of a client
// is oracle-checked. A ticker reads the process CPU time at every slice
// boundary and, with a tracer, switches recording on and off there, so
// the same phase yields traced and untraced latencies.
func runPhase(clients []*client, d time.Duration, tr *tracer, checkEvery int, slice time.Duration) *phase {
	out := &phase{clients: len(clients)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopTicker := make(chan struct{})
	tickerDone := make(chan struct{})
	start := time.Now()
	deadline := start.Add(d)
	out.ticks = append(out.ticks, tick{0, cpuTime()})
	if tr != nil {
		tr.on.Store(true)
	}
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out.ticks = append(out.ticks, tick{int64(time.Since(start)), cpuTime()})
				if tr != nil {
					tr.on.Store(!tr.on.Load())
				}
			case <-stopTicker:
				if tr != nil {
					tr.on.Store(false)
				}
				return
			}
		}
	}()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			samples := make([]sample, 0, int(d.Seconds()*20000)+1024)
			var inside time.Duration
			failed, checks, skipped := 0, 0, 0
			var errs []string
			begin := time.Now()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				o := &c.ops[c.next%len(c.ops)]
				opID := uint64(c.next)*uint64(len(clients)) + uint64(ci) + 1
				c.next++
				ctx := context.Background()
				traced, end := tr.enabled(), noSpan
				if traced {
					ctx, end = tr.beginOp(ctx, opID, c.name(o))
					t0 = time.Now()
				}
				ans, err := c.do(ctx, o)
				t1 := time.Now()
				end()
				samples = append(samples, sample{int64(t1.Sub(t0)), int64(t1.Sub(start)), traced})
				inside += t1.Sub(t0)
				switch {
				case err != nil:
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("%s: %v", c.name(o), err))
					}
				case i%checkEvery == 0:
					switch c.check(o, ans) {
					case checkOK:
						checks++
					case checkSkipped:
						skipped++
					case checkMismatch:
						failed++
						if len(errs) < 3 {
							errs = append(errs, fmt.Sprintf("%s: answer differs from the in-process oracle (%+v)", c.name(o), *o))
						}
					}
				}
				if c.after != nil {
					t2 := time.Now()
					c.after(i)
					inside += time.Since(t2)
				}
			}
			total := time.Since(begin)
			mu.Lock()
			out.samples = append(out.samples, samples...)
			out.outside += total - inside
			out.failed += failed
			out.checks += checks
			out.skipped += skipped
			out.errs = append(out.errs, errs...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	close(stopTicker)
	<-tickerDone
	return out
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resources is a reading of the process-wide counters a phase is
// bracketed with.
type resources struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pause   uint64
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pause: ms.PauseTotalNs}
}

// liveHeapMB is HeapAlloc after a forced collection. The caller drops
// the generator's own buffers first, so what remains is the state the
// system holds per connection, subscription and window.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// benchmark's acceptance check uses for run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// latencySummary is the median and the tail of one phase's latencies.
type latencySummary struct {
	n       int
	p50MS   float64
	p99MS   float64
	tailPct float64 // highest percentile with at least 10 samples beyond it
	tailMS  float64
}

func summarizeLatency(ns []int64) latencySummary {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	out := latencySummary{n: n}
	if n == 0 {
		return out
	}
	ms := func(i int) float64 { return float64(s[i]) / 1e6 }
	out.p50MS = ms(n / 2)
	i99 := int(math.Ceil(0.99*float64(n))) - 1
	out.p99MS = ms(i99)
	if n > 10 {
		out.tailPct = 100 * float64(n-10) / float64(n)
		out.tailMS = ms(n - 11)
	}
	return out
}

// p99Supported reports whether p99 has at least ten samples beyond it.
func (l latencySummary) p99Supported() bool { return l.tailPct >= 99 }
