package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactAndNoData(t *testing.T) {
	e := Exact(42)
	if !e.Valid() || e.Median != 42 || e.Min != 42 || e.Max != 42 || e.Accuracy != 1 {
		t.Fatalf("Exact = %+v", e)
	}
	nd := NoData()
	if nd.Valid() || nd.Accuracy != 0 {
		t.Fatalf("NoData = %+v", nd)
	}
	if nd.String() != "no-data" {
		t.Fatalf("String = %q", nd.String())
	}
}

func TestQuartilesKnown(t *testing.T) {
	// 1..9: Q1=3, median=5, Q3=7 under R-7 interpolation.
	s := Quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5})
	if s.Min != 1 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Q1 != 3 || s.Median != 5 || s.Q3 != 7 {
		t.Fatalf("quartiles = %v %v %v", s.Q1, s.Median, s.Q3)
	}
	if s.IQR() != 4 {
		t.Fatalf("IQR = %v", s.IQR())
	}
	if s.Samples != 9 {
		t.Fatalf("Samples = %d", s.Samples)
	}
}

func TestQuartilesInterpolation(t *testing.T) {
	s := Quartiles([]float64{1, 2, 3, 4})
	// positions: Q1 at 0.75 -> 1.75; median at 1.5 -> 2.5; Q3 at 2.25 -> 3.25
	if math.Abs(s.Q1-1.75) > 1e-12 || math.Abs(s.Median-2.5) > 1e-12 || math.Abs(s.Q3-3.25) > 1e-12 {
		t.Fatalf("got %+v", s)
	}
}

func TestQuartilesSingle(t *testing.T) {
	s := Quartiles([]float64{5})
	if !s.Ordered() || s.Median != 5 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("got %+v", s)
	}
}

func TestQuartilesDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

// Property: quartile ordering invariant holds for any sample set.
func TestQuickQuartilesOrdered(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		s := Quartiles(clean)
		if len(clean) == 0 {
			return !s.Valid()
		}
		return s.Ordered() && s.Accuracy > 0 && s.Accuracy <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quartiles bound the data.
func TestQuickQuartilesBoundData(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Quartiles(clean)
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinStatAddStat(t *testing.T) {
	a := Stat{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5, Accuracy: 0.9, Samples: 10}
	b := Stat{Min: 2, Q1: 2, Median: 2, Q3: 6, Max: 7, Accuracy: 0.5, Samples: 3}
	m := MinStat(a, b)
	if m.Min != 1 || m.Median != 2 || m.Q3 != 4 || m.Max != 5 {
		t.Fatalf("MinStat = %+v", m)
	}
	if m.Accuracy != 0.5 || m.Samples != 3 {
		t.Fatalf("MinStat meta = %+v", m)
	}
	s := AddStat(a, b)
	if s.Min != 3 || s.Median != 5 || s.Max != 12 {
		t.Fatalf("AddStat = %+v", s)
	}
	// Identity with NoData.
	if MinStat(a, NoData()) != a || MinStat(NoData(), b) != b {
		t.Fatal("MinStat NoData identity broken")
	}
	if AddStat(NoData(), a) != a {
		t.Fatal("AddStat NoData identity broken")
	}
}

func TestScaleClamp(t *testing.T) {
	a := Stat{Min: -2, Q1: -1, Median: 0, Q3: 1, Max: 2, Accuracy: 1, Samples: 5}
	c := a.ClampNonNegative()
	if c.Min != 0 || c.Q1 != 0 || c.Median != 0 || c.Q3 != 1 {
		t.Fatalf("clamped = %+v", c)
	}
	s := Exact(10).Scale(0.5)
	if s.Median != 5 {
		t.Fatalf("scaled = %+v", s)
	}
}

func TestSubFrom(t *testing.T) {
	util := Stat{Min: 10, Q1: 20, Median: 30, Q3: 40, Max: 50, Accuracy: 0.8, Samples: 9}
	avail := SubFrom(100, util)
	want := Stat{Min: 50, Q1: 60, Median: 70, Q3: 80, Max: 90, Accuracy: 0.8, Samples: 9}
	if avail != want {
		t.Fatalf("SubFrom = %+v, want %+v", avail, want)
	}
	if !avail.Ordered() {
		t.Fatal("not ordered")
	}
	// Over-utilization clamps to zero.
	over := SubFrom(25, util)
	if over.Min != 0 || over.Q1 != 0 || !over.Ordered() {
		t.Fatalf("clamped = %+v", over)
	}
	if SubFrom(100, NoData()).Valid() {
		t.Fatal("SubFrom of NoData produced data")
	}
}

func TestWithAccuracyClamps(t *testing.T) {
	if Exact(1).WithAccuracy(2).Accuracy != 1 {
		t.Fatal("accuracy > 1 not clamped")
	}
	if Exact(1).WithAccuracy(-1).Accuracy != 0 {
		t.Fatal("accuracy < 0 not clamped")
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(4, 0)
	for i := 0; i < 6; i++ {
		if err := w.Add(float64(i), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if w.count != 4 {
		t.Fatalf("count = %d, want 4", w.count)
	}
	if w.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", w.dropped)
	}
	last, ok := w.Latest()
	if !ok || last.Value != 50 {
		t.Fatalf("Latest = %+v", last)
	}
	vals := w.Since(3)
	if len(vals) != 3 || vals[0] != 30 {
		t.Fatalf("Since(3) = %v", vals)
	}
	all := w.Samples()
	if len(all) != 4 || all[0].Time != 2 {
		t.Fatalf("Samples = %v", all)
	}
}

func TestWindowOutOfOrderRejected(t *testing.T) {
	w := NewWindow(4, 0)
	w.Add(5, 1)
	if err := w.Add(4, 2); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
	// Equal timestamps are fine (two pollers at the same tick).
	if err := w.Add(5, 3); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMaxAge(t *testing.T) {
	w := NewWindow(100, 10)
	for i := 0; i <= 20; i++ {
		w.Add(float64(i), 1)
	}
	// Samples older than 20-10=10 expire.
	if w.count != 11 {
		t.Fatalf("count = %d, want 11", w.count)
	}
	if w.Samples()[0].Time != 10 {
		t.Fatalf("oldest = %v", w.Samples()[0])
	}
}

func TestWindowSummary(t *testing.T) {
	w := NewWindow(100, 0)
	if w.Summary(10).Valid() {
		t.Fatal("empty window produced data")
	}
	for i := 0; i < 10; i++ {
		w.Add(float64(i), float64(i))
	}
	s := w.Summary(4) // samples at t in [5,9]: values 5..9
	if s.Min != 5 || s.Max != 9 {
		t.Fatalf("Summary(4) = %+v", s)
	}
	if s.Accuracy <= 0 || s.Accuracy > 1 {
		t.Fatalf("accuracy = %v", s.Accuracy)
	}
	// span 0 means "current": latest value only.
	cur := w.Summary(0)
	if cur.Median != 9 {
		t.Fatalf("current = %+v", cur)
	}
}

func TestWindowSummaryCoveragePenalty(t *testing.T) {
	w := NewWindow(100, 0)
	w.Add(0, 1)
	w.Add(1, 2)
	short := w.Summary(1)  // fully covered
	long := w.Summary(100) // 1s of data over a 100s request
	if long.Accuracy >= short.Accuracy {
		t.Fatalf("coverage penalty missing: long=%v short=%v", long.Accuracy, short.Accuracy)
	}
}

func TestPredictors(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{Time: float64(i), Value: 2*float64(i) + 1})
	}
	lv, conf := LastValue{}.Predict(samples, 5)
	if lv != 19 || conf <= 0 {
		t.Fatalf("LastValue = %v conf %v", lv, conf)
	}
	ma, _ := MovingAverage{K: 2}.Predict(samples, 5)
	if ma != 18 {
		t.Fatalf("MovingAverage = %v", ma)
	}
	maAll, _ := MovingAverage{}.Predict(samples, 5)
	if maAll != 10 { // mean of 1,3,...,19
		t.Fatalf("MovingAverage all = %v", maAll)
	}
	lt, conf := LinearTrend{}.Predict(samples, 5)
	want := 2*14.0 + 1 // extrapolate to t=14
	if math.Abs(lt-want) > 1e-9 {
		t.Fatalf("LinearTrend = %v, want %v", lt, want)
	}
	if conf < 0.7 {
		t.Fatalf("perfect fit confidence = %v", conf)
	}
	ew, _ := EWMA{Alpha: 1}.Predict(samples, 5)
	if ew != 19 { // alpha=1 -> last value
		t.Fatalf("EWMA(1) = %v", ew)
	}
}

func TestPredictorsEmptyAndDegenerate(t *testing.T) {
	for _, p := range []Predictor{LastValue{}, MovingAverage{}, EWMA{}, LinearTrend{}} {
		v, c := p.Predict(nil, 1)
		if v != 0 || c != 0 {
			t.Fatalf("%s on empty = %v, %v", p.Name(), v, c)
		}
	}
	one := []Sample{{Time: 0, Value: 7}}
	v, _ := LinearTrend{}.Predict(one, 10)
	if v != 7 {
		t.Fatalf("LinearTrend single = %v", v)
	}
	// Identical timestamps: no trend denominator.
	same := []Sample{{Time: 1, Value: 2}, {Time: 1, Value: 4}}
	v, _ = LinearTrend{}.Predict(same, 1)
	if v != 3 {
		t.Fatalf("LinearTrend degenerate = %v", v)
	}
}

func TestPredictStat(t *testing.T) {
	var samples []Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{Time: float64(i), Value: 100 + rng.Float64()*10})
	}
	st := PredictStat(samples, LastValue{}, 10)
	if !st.Valid() || !st.Ordered() {
		t.Fatalf("PredictStat = %+v", st)
	}
	// Median equals the prediction.
	pred, _ := LastValue{}.Predict(samples, 10)
	if math.Abs(st.Median-pred) > 1e-9 {
		t.Fatalf("median %v != prediction %v", st.Median, pred)
	}
	if PredictStat(nil, LastValue{}, 1).Valid() {
		t.Fatal("PredictStat on empty produced data")
	}
}

// Property: PredictStat always yields ordered, nonnegative quartiles.
func TestQuickPredictStatOrdered(t *testing.T) {
	f := func(raw []uint8) bool {
		var samples []Sample
		for i, r := range raw {
			samples = append(samples, Sample{Time: float64(i), Value: float64(r)})
		}
		for _, p := range []Predictor{LastValue{}, MovingAverage{K: 3}, EWMA{Alpha: 0.3}, LinearTrend{}} {
			st := PredictStat(samples, p, 7)
			if len(samples) == 0 {
				if st.Valid() {
					return false
				}
				continue
			}
			if !st.Ordered() || st.Min < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuartiles(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 512)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Quartiles(samples)
	}
}

func BenchmarkWindowAddSummary(b *testing.B) {
	w := NewWindow(256, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i), float64(i%17))
		if i%64 == 0 {
			w.Summary(60)
		}
	}
}

// TestMinMaxBits pins the float folds of MinStat and ClampNonNegative,
// field by field, to math.Min/math.Max over every pair of the values
// where min and max have special rules. The builtin max(0, x) would pass
// for ClampNonNegative; the builtin min and max would fail for MinStat,
// on a NaN against -Inf, +Inf or -0.
func TestMinMaxBits(t *testing.T) {
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2}
	all := func(x float64) Stat {
		return Stat{Min: x, Q1: x, Median: x, Q3: x, Max: x, Accuracy: x, Samples: 1, Age: x}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, x := range vals {
		c := all(x).ClampNonNegative()
		want := math.Max(0, x)
		for i, got := range []float64{c.Min, c.Q1, c.Median, c.Q3, c.Max} {
			if !same(got, want) {
				t.Errorf("ClampNonNegative(%v) field %d = %#x, math.Max(0, x) = %#x",
					x, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if !same(c.Accuracy, x) || !same(c.Age, x) {
			t.Errorf("ClampNonNegative(%v) moved Accuracy or Age: %+v", x, c)
		}
		for _, y := range vals {
			m := MinStat(all(x), all(y))
			want := math.Min(x, y)
			for i, got := range []float64{m.Min, m.Q1, m.Median, m.Q3, m.Max, m.Accuracy} {
				if !same(got, want) {
					t.Errorf("MinStat(%v, %v) field %d = %#x, math.Min = %#x",
						x, y, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
			if wantAge := math.Max(x, y); !same(m.Age, wantAge) {
				t.Errorf("MinStat(%v, %v) Age = %#x, math.Max = %#x",
					x, y, math.Float64bits(m.Age), math.Float64bits(wantAge))
			}
			if m.Samples != 1 {
				t.Errorf("MinStat(%v, %v) Samples = %d", x, y, m.Samples)
			}
		}
	}
}
