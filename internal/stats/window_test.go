package stats

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// modelWindow is the deliberately naive reference the persistent Window
// is checked against: one flat slice, every read a full scan.
type modelWindow struct {
	maxLen  int
	maxAge  float64
	s       []Sample
	dropped uint64
}

func (m *modelWindow) clone() *modelWindow {
	cp := *m
	cp.s = append([]Sample(nil), m.s...)
	return &cp
}

func (m *modelWindow) add(t, v float64) bool {
	if len(m.s) > 0 && t < m.s[len(m.s)-1].Time {
		return false
	}
	if len(m.s) == m.maxLen {
		m.s = m.s[1:]
		m.dropped++
	}
	m.s = append(m.s, Sample{Time: t, Value: v})
	if m.maxAge > 0 {
		for len(m.s) > 0 && m.s[0].Time < t-m.maxAge {
			m.s = m.s[1:]
			m.dropped++
		}
	}
	return true
}

func (m *modelWindow) since(t float64) []float64 {
	var out []float64
	for _, s := range m.s {
		if s.Time >= t {
			out = append(out, s.Value)
		}
	}
	return out
}

func (m *modelWindow) samplesSince(t float64) []Sample {
	var out []Sample
	for _, s := range m.s {
		if s.Time > t {
			out = append(out, s)
		}
	}
	return out
}

func (m *modelWindow) summary(span float64) Stat {
	if len(m.s) == 0 {
		return NoData()
	}
	latest := m.s[len(m.s)-1]
	if span <= 0 {
		return Exact(latest.Value).WithAccuracy(0.5)
	}
	st := Quartiles(m.since(latest.Time - span))
	if !st.Valid() {
		return NoData()
	}
	covered := latest.Time - m.s[0].Time
	if covered > span {
		covered = span
	}
	coverage := 1.0
	if len(m.s) > 1 {
		coverage = covered / span
	} else {
		coverage = 0.5
	}
	return st.WithAccuracy(st.Accuracy * coverage)
}

// sameBits compares two Stats field by field on their bit patterns.
func sameBits(a, b Stat) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return f(a.Min, b.Min) && f(a.Q1, b.Q1) && f(a.Median, b.Median) && f(a.Q3, b.Q3) &&
		f(a.Max, b.Max) && f(a.Accuracy, b.Accuracy) && f(a.Age, b.Age) && a.Samples == b.Samples
}

// checkAgainstModel asserts every read of w matches the model.
func checkAgainstModel(t testing.TB, w *Window, m *modelWindow) {
	t.Helper()
	if w.count != len(m.s) || w.dropped != m.dropped {
		t.Fatalf("count/dropped = %d/%d, model %d/%d", w.count, w.dropped, len(m.s), m.dropped)
	}
	got := w.Samples()
	if len(got) != len(m.s) || (len(got) > 0 && !reflect.DeepEqual(got, m.s)) {
		t.Fatalf("Samples = %v, model %v", got, m.s)
	}
	latest, ok := w.Latest()
	if ok != (len(m.s) > 0) || (ok && latest != m.s[len(m.s)-1]) {
		t.Fatalf("Latest = %v,%v, model %v", latest, ok, m.s)
	}
	// Cut points: before and after everything, and at and just before a
	// few sample times (the >= / > boundary, runs of equal timestamps).
	cuts := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	if n := len(m.s); n > 0 {
		for _, i := range []int{0, n / 3, n / 2, n - 2, n - 1} {
			if i >= 0 {
				cuts = append(cuts, m.s[i].Time, m.s[i].Time-0.25)
			}
		}
	}
	for _, c := range cuts {
		if g, want := w.Since(c), m.since(c); !reflect.DeepEqual(g, want) {
			t.Fatalf("Since(%v) = %v, model %v", c, g, want)
		}
		if g, want := w.AppendSince(nil, c), m.samplesSince(c); !reflect.DeepEqual(g, want) {
			t.Fatalf("AppendSince(nil, %v) = %v, model %v", c, g, want)
		}
	}
	for _, span := range []float64{0, -1, 0.5, 3, 40, 1e9, math.Inf(1), math.NaN()} {
		if g, want := w.Summary(span), m.summary(span); !sameBits(g, want) {
			t.Fatalf("Summary(%v) = %+v, model %+v", span, g, want)
		}
	}
}

// runWindowOps drives one op sequence through a Window and the model,
// two bytes per op, checking every read after every op. Kinds: add with
// a small time step (0 = equal timestamps), a batch through AddAll (up
// to 63 samples; some with an out-of-order one in the middle, where both
// must stop), an out-of-order add both must reject, a big time jump
// (expiry under maxAge), and a fork — the
// replica's append: an older handle is kept, and either the fork or the
// original carries on, so both the at-tip and the copy path run. At the
// end every handle ever kept is re-checked against the model it had.
func runWindowOps(t testing.TB, maxLen int, maxAge float64, ops []byte) {
	type pair struct {
		w *Window
		m *modelWindow
	}
	cur := pair{NewWindow(maxLen, maxAge), &modelWindow{maxLen: maxLen, maxAge: maxAge}}
	var kept []pair
	now := 0.0
	add := func(tm, v float64) {
		err := cur.w.Add(tm, v)
		if ok := cur.m.add(tm, v); ok != (err == nil) {
			t.Fatalf("Add(%v) err=%v, model accepted=%v", tm, err, ok)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		a, v := ops[i], float64(ops[i+1])
		switch a & 7 {
		case 4:
			batch := make([]Sample, 2*int(a>>3)+1)
			for j := range batch {
				now += 0.25 * float64(j%3)
				batch[j] = Sample{Time: now, Value: v + float64(j)}
			}
			if len(batch) > 2 && ops[i+1]&1 != 0 {
				batch[len(batch)/2].Time = batch[0].Time - 1
			}
			err := cur.w.AddAll(batch)
			accepted := true
			for _, b := range batch {
				if accepted = cur.m.add(b.Time, b.Value); !accepted {
					break
				}
			}
			if accepted != (err == nil) {
				t.Fatalf("AddAll err=%v, model accepted=%v", err, accepted)
			}
			if n := len(cur.m.s); n > 0 {
				now = cur.m.s[n-1].Time
			}
		case 5:
			add(now-1-float64(a>>3), v)
		case 6:
			older := pair{cur.w, cur.m.clone()}
			cur = pair{fork(cur.w), cur.m}
			if a&8 != 0 && len(kept) > 0 {
				// Carry on from an older view instead: it is no longer at
				// the tip once anything was appended after it.
				k := kept[int(a>>4)%len(kept)]
				cur = pair{fork(k.w), k.m.clone()}
				if len(k.m.s) > 0 {
					now = k.m.s[len(k.m.s)-1].Time
				}
			}
			if len(kept) < 256 {
				kept = append(kept, older)
			}
		case 7:
			now += 100 + 10*float64(a>>3)
			add(now, v)
		default:
			now += 0.5 * float64(a>>3)
			add(now, v)
		}
		checkAgainstModel(t, cur.w, cur.m)
	}
	for _, k := range kept {
		checkAgainstModel(t, k.w, k.m)
	}
}

// TestWindowMatchesNaiveModel: random op sequences long enough to cross
// maxLen many times, with and without maxAge, on window lengths around
// the chunk boundaries.
func TestWindowMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, maxLen := range []int{1, 3, chunkLen, chunkLen + 1, 70} {
		for _, maxAge := range []float64{0, 25} {
			ops := make([]byte, 2*1500)
			rng.Read(ops)
			runWindowOps(t, maxLen, maxAge, ops)
		}
	}
}

// FuzzWindowOps is the same differential check over fuzzer-chosen op
// sequences and window bounds.
func FuzzWindowOps(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{8, 1, 8, 2, 6, 0, 8, 3, 14, 0, 8, 4})
	f.Add(uint8(33), uint8(25), []byte{16, 1, 0, 2, 5, 3, 7, 4, 6, 0, 16, 5})
	f.Add(uint8(40), uint8(0), []byte{164, 2, 6, 0, 100, 3, 14, 0, 164, 4, 8, 5})
	f.Fuzz(func(t *testing.T, maxLen, maxAge uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runWindowOps(t, int(maxLen%80)+1, float64(maxAge), ops)
	})
}

// TestWindowPredecessorsPersist holds every view of a 2,000-step chain
// (the replica's pattern: fork the previous store's window, append to
// the fork — one sample, or now and then a batch that crosses chunks —
// and publish) while concurrent readers read whatever is published, then
// re-checks every view after the chain is built. Run under -race:
// readers take no lock.
func TestWindowPredecessorsPersist(t *testing.T) {
	const maxLen, steps = 512, 2000
	views := make([]*Window, 0, steps+1)
	ends := make([]int, 0, steps+1) // samples ever appended, per view
	views, ends = append(views, NewWindow(maxLen, 0)), append(ends, 0)
	var published atomic.Pointer[Window]
	published.Store(views[0])

	// A view's samples are value == absolute index, so any view can be
	// checked on its own: a contiguous run that starts at dropped.
	check := func(w *Window, wantEnd int) string {
		s := w.Samples()
		if wantEnd >= 0 && int(w.dropped)+len(s) != wantEnd {
			return "wrong end"
		}
		for i, x := range s {
			if x.Value != float64(int(w.dropped)+i) || x.Time != x.Value {
				return "sample moved"
			}
		}
		if since := w.AppendSince(nil, float64(int(w.dropped)+len(s)-2)); len(s) >= 2 && len(since) != 1 {
			return "AppendSince lost the tip"
		}
		return ""
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if msg := check(published.Load(), -1); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	for i := 0; i < steps; i++ {
		next, end := fork(views[i]), ends[i]
		batch := make([]Sample, 1)
		if i%9 == 0 {
			batch = make([]Sample, 40)
		}
		for j := range batch {
			batch[j] = Sample{Time: float64(end + j), Value: float64(end + j)}
		}
		if err := next.AddAll(batch); err != nil {
			t.Fatal(err)
		}
		views, ends = append(views, next), append(ends, end+len(batch))
		published.Store(next)
	}
	close(stop)
	wg.Wait()
	for i, w := range views {
		if msg := check(w, ends[i]); msg != "" {
			t.Fatalf("view %d: %s", i, msg)
		}
		if want := min(ends[i], maxLen); w.count != want {
			t.Fatalf("view %d: count = %d, want %d", i, w.count, want)
		}
	}
	// Appending to a view that is not at the tip must not disturb the
	// views after it.
	mid := fork(views[steps/2])
	if err := mid.Add(1e9, -1); err != nil {
		t.Fatal(err)
	}
	for i := steps / 2; i <= steps; i++ {
		if msg := check(views[i], ends[i]); msg != "" {
			t.Fatalf("view %d after an off-tip append: %s", i, msg)
		}
	}
}

// TestWindowRebuildSizesIndexOnce: a full window rebuilt through AddAll
// allocates its chunks and one chunk index, not one index per chunk.
func TestWindowRebuildSizesIndexOnce(t *testing.T) {
	const maxLen = 512
	samples := make([]Sample, maxLen)
	for i := range samples {
		samples[i] = Sample{Time: float64(i), Value: 1}
	}
	n := testing.AllocsPerRun(20, func() {
		if err := NewWindow(maxLen, 0).AddAll(samples); err != nil {
			t.Fatal(err)
		}
	})
	// Window, tip, index, and maxLen/chunkLen chunks.
	if want := float64(3 + maxLen/chunkLen); n > want {
		t.Errorf("rebuilding a %d-sample window: %.0f allocs, want <= %.0f", maxLen, n, want)
	}
}

// TestWindowAppendFullAllocatesO1: one sample appended to a full window
// costs a constant number of bytes, amortised over a chunk — not a copy
// of the window (512 samples are 8 KiB).
func TestWindowAppendFullAllocatesO1(t *testing.T) {
	const maxLen, rounds = 512, 64 * chunkLen
	fill := func() *Window {
		w := NewWindow(maxLen, 0)
		for i := 0; i < 2*maxLen; i++ {
			w.Add(float64(i), 1)
		}
		return w
	}
	bytesPer := func(fn func(i int)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fn(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	w := fill()
	if per := bytesPer(func(i int) { w.Add(float64(2*maxLen+i), 1) }); per > 32 {
		t.Errorf("in-place Add on a full window: %.0f B/append, want <= 32", per)
	}
	// The replica's append: fork (one header), then add.
	w = fill()
	if per := bytesPer(func(i int) { w = fork(w); w.Add(float64(2*maxLen+i), 1) }); per > 128 {
		t.Errorf("fork+Add on a full window: %.0f B/append, want <= 128", per)
	}
	w = fill()
	i := 0
	if n := testing.AllocsPerRun(rounds, func() { w.Add(float64(2*maxLen+i), 1); i++ }); n > 0.1 {
		t.Errorf("in-place Add on a full window: %.2f allocs/append, want <= 0.1", n)
	}
}

// fork is a second handle on w's samples: a copy of the value.
func fork(w *Window) *Window {
	cp := *w
	return &cp
}
