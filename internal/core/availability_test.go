package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestAvailabilityIsNeverInvalid pins the rule the matrix kernel rests
// on — it keeps no validity plane, and an entry is valid exactly when
// the source's tree reaches it (DESIGN §16) — and that keeps MinStat's
// invalid branches off every fold: availabilityOf
// answers every shape of read entry — failed or not; a valid, an
// invalid, an out-of-range or a non-finite summary; no, an empty or a
// populated window; any age — with a valid Stat, under every timeframe,
// with and without the application's own traffic discounted. A failed
// read, and one with nothing to summarize, is the link's capacity at
// accuracy 0.1.
func TestAvailabilityIsNeverInvalid(t *testing.T) {
	summaries := []stats.Stat{
		stats.NoData(),
		{Median: 5e6, Q1: 4e6, Q3: 6e6, Accuracy: 1}, // numbers, no samples
		stats.Exact(3e6),
		stats.Exact(1e12), // more traffic than the link carries
		{Min: -1, Q1: 0, Median: 1e6, Q3: 2e6, Max: 9e6, Accuracy: 0.5, Samples: 7, Age: 4},
		{Min: math.NaN(), Median: math.NaN(), Max: math.Inf(1), Accuracy: math.NaN(), Samples: 1},
	}
	windows := [][]stats.Sample{
		nil,
		{},
		{{Time: 1, Value: 2e6}},
		{{Time: 1, Value: 2e6}, {Time: 3, Value: 8e6}, {Time: 5, Value: 1e12}},
		{{Time: 1, Value: math.NaN()}, {Time: 2, Value: math.Inf(1)}},
	}
	ages := []float64{0, 5, math.Inf(1)}
	timeframes := []Timeframe{TFCapacity(), TFCurrent(), TFHistory(10), TFFuture(10)}

	for _, discount := range []bool{false, true} {
		r := newRig(t, topology.Testbed(), func(c *Config) {
			c.DiscountSelf = discount
			c.StaleHalfLife = 20
		})
		r.mod.RegisterSelfFlow("m-1", "m-5", 40e6)
		s, err := r.mod.snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, l := range s.topo.Graph.Links() {
			degraded := stats.Exact(l.Capacity).WithAccuracy(0.1)
			for _, d := range []graph.Dir{graph.AtoB, graph.BtoA} {
				key := s.topo.Key(l, d)
				for _, tf := range timeframes {
					for _, failed := range []bool{false, true} {
						for _, sum := range summaries {
							for _, w := range windows {
								for _, age := range ages {
									e := collector.ReadEntry{Stat: sum, Window: w, Age: age, Failed: failed}
									got := r.mod.availabilityOf(s, l, key, tf, &e)
									at := fmt.Sprintf("discount %v, %v %v, tf %+v, entry %+v", discount, l.ID, d, tf, e)
									if !got.Valid() {
										t.Fatalf("%s: invalid availability %+v", at, got)
									}
									empty := !sum.Valid() && (tf.Kind != Future || len(w) == 0)
									if (failed || empty) && got != degraded {
										t.Fatalf("%s: %+v, want the capacity at accuracy 0.1, %+v", at, got, degraded)
									}
									checked++
								}
							}
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Fatal("no link checked")
		}
	}
}
