// Package loadgen drives a Remos query plane at controlled load and
// measures the latency distribution it answers with. It generates a
// mixed workload — cheap point queries (channel utilization) and
// batched flow-matrix queries — against one or more Sources (typically
// failover handles over a replica set), in either of the two classic
// load-testing disciplines:
//
//   - closed loop: Workers goroutines each issue the next query the
//     moment the previous one returns, measuring the plane's capacity;
//   - open loop: arrivals are paced at a fixed Rate regardless of how
//     fast answers come back, measuring latency at an offered load —
//     including coordinated-omission-free queue wait, because an op's
//     latency clock starts at its scheduled arrival, not its issue.
//
// Results separate real failures (protocol or transport errors) from
// typed lifecycle refusals (shed, busy, stale, not-leader), because a
// plane under overload is expected to refuse honestly, not to corrupt.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Target is the query surface one worker drives. Matrix ops need the
// target to also implement collector.MatrixSource (the TCP client and
// the failover handle both do).
type Target = collector.Source

// Config parameterizes one load run.
type Config struct {
	// Targets are the query handles workers are spread across
	// round-robin. Give each worker group its own DialCollectors handle
	// (shuffled preference) to spread load over a replica set; a single
	// shared handle pins every query to one preferred replica.
	Targets []Target

	// Workers is the closed-loop concurrency, and in open loop the
	// bound on in-flight queries (default 8).
	Workers int

	// Rate is the open-loop offered load in queries/second; 0 selects
	// closed loop.
	Rate float64

	// Duration bounds the run (default 5s); the context can end it
	// earlier.
	Duration time.Duration

	// MatrixFrac is the fraction of ops issued as batched matrix
	// queries (0..1); the rest are point utilization queries.
	MatrixFrac float64

	// MatrixSize is the N of the N×N node set a matrix op asks about
	// (default 8, clamped to the topology's host count).
	MatrixSize int

	// Span is the measurement window point queries ask over (seconds;
	// 0 = latest sample).
	Span float64

	// Seed makes the op mix and key choice reproducible (0 = seed 1).
	Seed int64

	// Telemetry optionally receives the latency quantiles under
	// "loadgen.query_ms" / "loadgen.matrix_ms"; nil uses a private
	// registry.
	Telemetry *telemetry.Registry

	// Window is the latency-quantile ring size (default 1<<15 — big
	// enough that a p999 over a multi-second run is meaningful).
	Window int
}

// Result summarizes one load run. Latencies are milliseconds and
// include open-loop queue wait; percentiles are NaN when the op class
// saw no completions.
//
// Queries counts effective pair-queries answered: a point query is 1,
// a completed N×M matrix op is N×M — the batched op exists precisely
// so one wire round trip answers a whole matrix of queries, and the
// plane's query throughput is what the batching buys.
type Result struct {
	Ops        uint64        // completed wire ops (point + matrix)
	MatrixOps  uint64        // completed matrix ops (subset of Ops)
	Queries    uint64        // effective pair-queries answered (matrix = N×M)
	Errors     uint64        // protocol or transport failures
	Refusals   uint64        // typed lifecycle refusals (shed/busy/stale/not-leader)
	Dropped    uint64        // open loop: arrivals discarded because Workers were saturated
	Elapsed    time.Duration // measured wall time of the run
	Throughput float64       // effective queries per second
	OpRate     float64       // wire ops per second

	QueryP50, QueryP99, QueryP999    float64 // point-query latency, ms
	MatrixP50, MatrixP99, MatrixP999 float64 // matrix latency, ms
}

func (r *Result) String() string {
	return fmt.Sprintf(
		"%.0f queries/s (%.0f wire ops/s; %d ops, %d matrix, %d errors, %d refusals, %d dropped) in %.2fs; "+
			"query p50/p99/p999 %.3f/%.3f/%.3f ms; matrix p50/p99/p999 %.3f/%.3f/%.3f ms",
		r.Throughput, r.OpRate, r.Ops, r.MatrixOps, r.Errors, r.Refusals, r.Dropped,
		r.Elapsed.Seconds(),
		r.QueryP50, r.QueryP99, r.QueryP999,
		r.MatrixP50, r.MatrixP99, r.MatrixP999)
}

// workload is the precomputed query universe: channel keys and host
// sets enumerated from one topology fetch, so the hot loop never
// re-asks for the map.
type workload struct {
	keys  []collector.ChannelKey
	hosts []graph.NodeID
}

// refused reports whether err is a typed lifecycle refusal rather than
// a protocol failure.
func refused(err error) bool {
	return collector.IsLifecycleError(err) ||
		errors.Is(err, collector.ErrStaleReplica) ||
		errors.Is(err, collector.ErrNotLeader) ||
		errors.Is(err, collector.ErrTooManySubscriptions)
}

// Run executes one load run and blocks until it completes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.MatrixSize <= 0 {
		cfg.MatrixSize = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 1 << 15
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MatrixFrac < 0 || cfg.MatrixFrac > 1 {
		return nil, fmt.Errorf("loadgen: MatrixFrac %g out of [0,1]", cfg.MatrixFrac)
	}
	if cfg.MatrixFrac > 0 {
		for _, t := range cfg.Targets {
			if _, ok := t.(collector.MatrixSource); !ok {
				return nil, fmt.Errorf("loadgen: target %T cannot serve matrix ops", t)
			}
		}
	}

	// One topology fetch seeds the whole query universe.
	topo, err := cfg.Targets[0].TopologyCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: topology: %w", err)
	}
	w := &workload{}
	for _, l := range topo.Graph.Links() {
		w.keys = append(w.keys, topo.Key(l, graph.AtoB), topo.Key(l, graph.BtoA))
	}
	w.hosts = topo.Graph.ComputeNodes()
	if len(w.keys) == 0 || len(w.hosts) == 0 {
		return nil, fmt.Errorf("loadgen: topology has no channels or hosts")
	}
	if cfg.MatrixSize > len(w.hosts) {
		cfg.MatrixSize = len(w.hosts)
	}

	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	qQuery := reg.Quantile("loadgen.query_ms", cfg.Window)
	qMatrix := reg.Quantile("loadgen.matrix_ms", cfg.Window)

	res := &Result{}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// issue runs one op; arrival is when the op was scheduled (open
	// loop) or started (closed loop), so latency includes queue wait.
	issue := func(t Target, rng *rand.Rand, arrival time.Time) {
		var err error
		matrix := cfg.MatrixFrac > 0 && rng.Float64() < cfg.MatrixFrac
		cells := uint64(1)
		if matrix {
			n := cfg.MatrixSize
			base := rng.Intn(len(w.hosts))
			nodes := make([]graph.NodeID, n)
			for i := range nodes {
				nodes[i] = w.hosts[(base+i)%len(w.hosts)]
			}
			cells = uint64(n) * uint64(n)
			_, err = t.(collector.MatrixSource).MatrixQuery(ctx, &collector.MatrixRequest{
				Srcs: nodes, Dsts: nodes, TFKind: 2, Span: cfg.Span,
			})
		} else {
			_, err = w.queryOnce(ctx, t, rng, cfg.Span)
		}
		ms := float64(time.Since(arrival)) / float64(time.Millisecond)
		switch {
		case err == nil:
			atomic.AddUint64(&res.Ops, 1)
			atomic.AddUint64(&res.Queries, cells)
			if matrix {
				atomic.AddUint64(&res.MatrixOps, 1)
				qMatrix.Observe(ms)
			} else {
				qQuery.Observe(ms)
			}
		case ctx.Err() != nil, errors.Is(err, collector.ErrDeadlineExceeded):
			// The run's own deadline cut the op off — not the plane's
			// fault, not a data point. The typed budget error can arrive
			// a hair before ctx.Err() flips: every op's budget IS the
			// run's remaining time, so a server or failover handle that
			// gives up on it early is still reporting our own deadline.
		case refused(err):
			if n := atomic.AddUint64(&res.Refusals, 1); n <= 5 && os.Getenv("LOADGEN_DEBUG") != "" {
				fmt.Fprintf(os.Stderr, "refusal: %v\n", err)
			}
		default:
			atomic.AddUint64(&res.Errors, 1)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate <= 0 {
		// Closed loop: every worker keeps exactly one query in flight.
		for i := 0; i < cfg.Workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
				t := cfg.Targets[i%len(cfg.Targets)]
				for ctx.Err() == nil {
					issue(t, rng, time.Now())
				}
			}(i)
		}
	} else {
		// Open loop: a pacer stamps arrivals at the offered rate and
		// hands them to a bounded worker pool; arrivals that find every
		// worker busy are dropped (and counted) rather than queued
		// unboundedly or — worse — silently slowing the arrival clock.
		work := make(chan time.Time, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
				t := cfg.Targets[i%len(cfg.Targets)]
				for arrival := range work {
					issue(t, rng, arrival)
				}
			}(i)
		}
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		next := start
		for ctx.Err() == nil {
			now := time.Now()
			// Dispatch every arrival due by now; sub-millisecond pacing
			// batches arrivals instead of trusting the OS timer.
			for !next.After(now) {
				select {
				case work <- next:
				default:
					atomic.AddUint64(&res.Dropped, 1)
				}
				next = next.Add(interval)
			}
			sleep := time.Until(next)
			if sleep > time.Millisecond {
				sleep = time.Millisecond
			}
			timer := time.NewTimer(sleep)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
			timer.Stop()
		}
		close(work)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Queries) / s
		res.OpRate = float64(res.Ops) / s
	}
	qp := qQuery.Percentiles(50, 99, 99.9)
	res.QueryP50, res.QueryP99, res.QueryP999 = qp[0], qp[1], qp[2]
	mp := qMatrix.Percentiles(50, 99, 99.9)
	res.MatrixP50, res.MatrixP99, res.MatrixP999 = mp[0], mp[1], mp[2]
	return res, nil
}

// queryOnce issues one point query — a channel-utilization read over a
// random channel, the cheapest realistic unit of query-plane load.
func (w *workload) queryOnce(ctx context.Context, t Target, rng *rand.Rand, span float64) (any, error) {
	return t.UtilizationCtx(ctx, w.keys[rng.Intn(len(w.keys))], span)
}
