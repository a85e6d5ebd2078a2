package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The prediction study evaluates the Modeler's future-timeframe
// machinery (§4.4: "Remos supports ... prediction of expected future
// performance", with "a simplistic model to predict future performance
// from current and historical data"). For several traffic patterns on
// the timberline->whiteface link, each predictor forecasts the link's
// utilization a horizon ahead; the forecast is scored against the true
// average utilization over that horizon (computed from the simulator's
// exact octet counters).

// PredictorEval is one (pattern, predictor) cell of the study.
type PredictorEval struct {
	Pattern   string
	Predictor string
	MAE       float64 // mean absolute error, bits/s
	N         int     // forecasts scored
}

// predictionPatterns builds the traffic scenarios of the study.
func predictionPatterns() map[string]func(e *Env) {
	return map[string]func(e *Env){
		"steady": func(e *Env) {
			traffic.Blast(e.Net, "m-6", "m-8", 40e6)
		},
		"ramp": func(e *Env) {
			// Rate steps up 10 Mbps every 40 s.
			var cur traffic.Generator
			level := 0.0
			step := func(now simclock.Time) {
				if cur != nil {
					cur.Stop()
				}
				level += 10e6
				if level > 80e6 {
					level = 80e6
				}
				cur = traffic.Blast(e.Net, "m-6", "m-8", level)
			}
			e.Clk.NewTicker(0, 40, "ramp", step)
		},
		"onoff": func(e *Env) {
			traffic.OnOff(e.Net, "m-6", "m-8", traffic.OnOffConfig{
				Rate: 60e6, MeanOn: 8, MeanOff: 8, Seed: 17,
			})
		},
		"poisson": func(e *Env) {
			traffic.PoissonTransfers(e.Net, "m-6", "m-8", traffic.PoissonTransfersConfig{
				MeanInterarrival: 2,
				MinBytes:         1e5,
				MaxBytes:         4e7,
				Seed:             23,
			})
		},
	}
}

// studyPredictors are the forecast models under evaluation.
func studyPredictors() []stats.Predictor {
	return []stats.Predictor{
		stats.LastValue{},
		stats.MovingAverage{K: 8},
		stats.EWMA{Alpha: 0.3},
		stats.LinearTrend{},
	}
}

// PredictionStudy runs every pattern and scores every predictor at a
// 10-second horizon, forecasting every 10 s between t=60 and t=240.
func PredictionStudy() []PredictorEval {
	const (
		horizon  = 10.0
		firstAt  = 60.0
		lastAt   = 240.0
		interval = 10.0
	)
	type observation struct {
		samples []stats.Sample // history available at forecast time
		actual  float64        // true mean utilization over the horizon
	}
	patterns := predictionPatterns()
	names := make([]string, 0, len(patterns))
	for n := range patterns {
		names = append(names, n)
	}
	sort.Strings(names)

	var out []PredictorEval
	for _, name := range names {
		e := NewEnv()
		patterns[name](e)

		topo, err := e.Col.TopologyCtx(context.Background())
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		var key collector.ChannelKey
		var ch graph.Channel
		for _, l := range topo.Graph.Links() {
			if (l.A == "timberline" && l.B == "whiteface") || (l.A == "whiteface" && l.B == "timberline") {
				key = topo.Key(l, l.DirFrom("timberline"))
			}
		}
		for _, l := range e.Net.Graph().Links() {
			if (l.A == "timberline" && l.B == "whiteface") || (l.A == "whiteface" && l.B == "timberline") {
				ch = graph.Channel{Link: l.ID, Dir: l.DirFrom("timberline")}
			}
		}
		bits := e.Net.ChannelCounter(ch)

		var obs []*observation
		for at := firstAt; at <= lastAt; at += interval {
			o := &observation{}
			obs = append(obs, o)
			e.Clk.Schedule(simclock.Time(at), "forecast-point", func(simclock.Time) {
				samples, err := e.Col.SamplesCtx(context.Background(), key)
				if err == nil {
					o.samples = append([]stats.Sample(nil), samples...)
				}
				startBits := bits()
				e.Clk.After(horizon, "forecast-truth", func(simclock.Time) {
					o.actual = (bits() - startBits) / horizon
				})
			})
		}
		e.Clk.RunUntil(simclock.Time(lastAt + horizon + 1))

		for _, p := range studyPredictors() {
			var absErr float64
			n := 0
			for _, o := range obs {
				if len(o.samples) == 0 {
					continue
				}
				pred, _ := p.Predict(o.samples, horizon)
				if pred < 0 {
					pred = 0
				}
				diff := pred - o.actual
				if diff < 0 {
					diff = -diff
				}
				absErr += diff
				n++
			}
			if n > 0 {
				out = append(out, PredictorEval{
					Pattern: name, Predictor: p.Name(),
					MAE: absErr / float64(n), N: n,
				})
			}
		}
	}
	return out
}

// FormatPredictionStudy renders the study as a pattern × predictor MAE
// table (Mbps).
func FormatPredictionStudy(evals []PredictorEval) string {
	patterns := []string{}
	predictors := []string{}
	seenPat := map[string]bool{}
	seenPred := map[string]bool{}
	cell := map[[2]string]PredictorEval{}
	for _, ev := range evals {
		if !seenPat[ev.Pattern] {
			seenPat[ev.Pattern] = true
			patterns = append(patterns, ev.Pattern)
		}
		if !seenPred[ev.Predictor] {
			seenPred[ev.Predictor] = true
			predictors = append(predictors, ev.Predictor)
		}
		cell[[2]string{ev.Pattern, ev.Predictor}] = ev
	}
	var b strings.Builder
	b.WriteString("Prediction study: mean absolute error of 10 s-ahead utilization forecasts (Mbps)\n")
	fmt.Fprintf(&b, "%-10s", "pattern")
	for _, p := range predictors {
		fmt.Fprintf(&b, " %14s", p)
	}
	b.WriteString("\n" + strings.Repeat("-", 10+15*len(predictors)) + "\n")
	for _, pat := range patterns {
		fmt.Fprintf(&b, "%-10s", pat)
		for _, p := range predictors {
			ev := cell[[2]string{pat, p}]
			fmt.Fprintf(&b, " %14.2f", ev.MAE/1e6)
		}
		b.WriteString("\n")
	}
	return b.String()
}
