// Package stats implements the statistical machinery of §4.4 of the Remos
// paper: every dynamic quantity is reported as a set of quartile measures
// plus an estimation-accuracy value, because network measurements do not
// follow a known distribution. It also provides the sliding sample windows
// the Collector keeps per link and the simple predictors the Modeler uses
// for future-timeframe queries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stat is the probabilistic quartile summary Remos attaches to every
// dynamic quantity (bandwidth, latency). Min/Q1/Median/Q3/Max are the
// 0/25/50/75/100th percentiles of the underlying samples.
//
// Accuracy is in [0,1]: a measure of how much the estimate can be trusted,
// derived from how many samples back it and how much of the requested
// window they cover. 1 means exact (e.g. a physical capacity), 0 means no
// data at all.
type Stat struct {
	Min      float64
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64
	Accuracy float64
	Samples  int

	// Age is how many seconds old the newest underlying sample was when
	// the query was answered (0 for invariant quantities). Composite
	// stats carry the age of their stalest input, so an application can
	// always tell how current an answer is — the collection pipeline
	// keeps answering through agent outages and reports the staleness
	// here instead of failing.
	Age float64
}

// Exact returns a Stat for an invariant quantity such as a physical link
// capacity: all quartiles equal, full accuracy.
func Exact(v float64) Stat {
	return Stat{Min: v, Q1: v, Median: v, Q3: v, Max: v, Accuracy: 1, Samples: 1}
}

// NoData is the Stat returned when no samples exist.
func NoData() Stat { return Stat{Accuracy: 0, Samples: 0} }

// Valid reports whether the Stat carries any information.
func (s Stat) Valid() bool { return s.Samples > 0 }

// IQR returns the interquartile range, the paper's preferred variability
// measure for unknown distributions.
func (s Stat) IQR() float64 { return s.Q3 - s.Q1 }

// Ordered checks the quartile ordering invariant.
func (s Stat) Ordered() bool {
	return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
}

// Scale returns the Stat with every quartile multiplied by k (k >= 0).
// Accuracy is unchanged: scaling is exact.
func (s Stat) Scale(k float64) Stat {
	if k < 0 {
		panic(fmt.Sprintf("stats: negative scale %v", k))
	}
	s.Min *= k
	s.Q1 *= k
	s.Median *= k
	s.Q3 *= k
	s.Max *= k
	return s
}

// ClampNonNegative truncates negative quartiles at zero. Available
// bandwidth derived by subtraction can transiently go negative when a
// counter window straddles a burst; Remos never reports negative
// availability.
func (s Stat) ClampNonNegative() Stat {
	s.Min = math.Max(0, s.Min)
	s.Q1 = math.Max(0, s.Q1)
	s.Median = math.Max(0, s.Median)
	s.Q3 = math.Max(0, s.Q3)
	s.Max = math.Max(0, s.Max)
	return s
}

// MinStat returns the element-wise minimum of two Stats: the summary of
// the bottleneck when a flow crosses both quantities in series. Accuracy
// combines pessimistically (min), because the weaker estimate dominates.
//
// The folds are math.Min/math.Max, not the builtins: those differ when a
// NaN meets -Inf (math.Min answers -Inf), +Inf (math.Max answers +Inf)
// or -0 (the builtin min's NaN carries the sign bit). TestMinMaxBits
// pins math's answers.
func MinStat(a, b Stat) Stat {
	if !a.Valid() {
		return b
	}
	if !b.Valid() {
		return a
	}
	return Stat{
		Min:      math.Min(a.Min, b.Min),
		Q1:       math.Min(a.Q1, b.Q1),
		Median:   math.Min(a.Median, b.Median),
		Q3:       math.Min(a.Q3, b.Q3),
		Max:      math.Min(a.Max, b.Max),
		Accuracy: math.Min(a.Accuracy, b.Accuracy),
		Samples:  minInt(a.Samples, b.Samples),
		Age:      math.Max(a.Age, b.Age),
	}
}

// SubFrom returns the distribution of (c - X) given the distribution of X:
// available bandwidth from a capacity and a utilization summary. Order
// reverses (high utilization = low availability) and negatives clamp to
// zero, since measured utilization can transiently exceed nominal capacity.
func SubFrom(c float64, util Stat) Stat {
	if !util.Valid() {
		return NoData()
	}
	out := Stat{
		Min:      c - util.Max,
		Q1:       c - util.Q3,
		Median:   c - util.Median,
		Q3:       c - util.Q1,
		Max:      c - util.Min,
		Accuracy: util.Accuracy,
		Samples:  util.Samples,
		Age:      util.Age,
	}
	return out.ClampNonNegative()
}

// AddStat returns the element-wise sum (series latency composition).
func AddStat(a, b Stat) Stat {
	if !a.Valid() {
		return b
	}
	if !b.Valid() {
		return a
	}
	return Stat{
		Min:      a.Min + b.Min,
		Q1:       a.Q1 + b.Q1,
		Median:   a.Median + b.Median,
		Q3:       a.Q3 + b.Q3,
		Max:      a.Max + b.Max,
		Accuracy: math.Min(a.Accuracy, b.Accuracy),
		Samples:  minInt(a.Samples, b.Samples),
		Age:      math.Max(a.Age, b.Age),
	}
}

func (s Stat) String() string {
	if !s.Valid() {
		return "no-data"
	}
	return fmt.Sprintf("[%.3g %.3g %.3g %.3g %.3g] acc=%.2f n=%d",
		s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Accuracy, s.Samples)
}

// Quartiles summarizes a sample set. The input is not modified. Accuracy
// here reflects only sample count saturation (n/(n+4)); callers with
// window-coverage information should overwrite it via WithAccuracy.
func Quartiles(samples []float64) Stat {
	return quartilesOf(append([]float64(nil), samples...))
}

// quartilesOf is Quartiles for a slice the caller gives up: it is
// sorted in place.
func quartilesOf(s []float64) Stat {
	n := len(s)
	if n == 0 {
		return NoData()
	}
	sort.Float64s(s)
	st := Stat{
		Min:     s[0],
		Q1:      percentileSorted(s, 0.25),
		Median:  percentileSorted(s, 0.50),
		Q3:      percentileSorted(s, 0.75),
		Max:     s[n-1],
		Samples: n,
	}
	st.Accuracy = float64(n) / float64(n+4)
	return st
}

// WithAccuracy returns the Stat with accuracy replaced (clamped to [0,1]).
func (s Stat) WithAccuracy(a float64) Stat {
	s.Accuracy = math.Max(0, math.Min(1, a))
	return s
}

// AgeDecayed discounts Accuracy for data age: it halves for every
// halfLife seconds the newest sample is old. This is how an agent outage
// surfaces to applications — the channel keeps answering from the last
// known samples, but the estimation-accuracy measure (§4.4) decays
// toward zero instead of the query turning into a hard error. halfLife
// <= 0 disables decay.
func (s Stat) AgeDecayed(halfLife float64) Stat {
	if halfLife <= 0 || s.Age <= 0 {
		return s
	}
	return s.WithAccuracy(s.Accuracy * math.Exp2(-s.Age/halfLife))
}

// percentileSorted interpolates the p-th percentile (p in [0,1]) of an
// ascending sample set using the linear method (R-7, the spreadsheet
// default).
func percentileSorted(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
