// Package maxmin implements weighted max-min fair bandwidth allocation
// (Jaffe, "Bottleneck flow control", 1981), the sharing policy Remos
// assumes for bottleneck links (§4.2): "all else being equal, the
// bottleneck link bandwidth will be shared equally by all flows (not being
// bottlenecked elsewhere)".
//
// The same solver serves two masters:
//
//   - the network simulator, which uses it to decide what bandwidth each
//     active flow actually receives, and
//   - the Remos modeler, which uses it to answer remos_flow_info queries
//     for the three flow classes of §4.2 (fixed, variable, independent).
//
// Resources are abstract: a resource is anything with a capacity that
// flows consume in series — one direction of a link, or the internal
// bandwidth of a router (the paper's Figure 1 case).
package maxmin

import (
	"fmt"
	"math"
	"sync"
)

// ResourceID indexes a capacity in a Problem.
type ResourceID int

// Demand is one flow's claim on a set of resources it uses in series.
type Demand struct {
	// Resources the flow consumes capacity on. Duplicates are legal (a
	// route that crosses the same router's backplane twice) and count
	// double on that resource.
	Resources []ResourceID

	// Weight scales the flow's share when competing at a bottleneck.
	// Variable flows use their relative bandwidth requirement as the
	// weight (the paper's 3 : 4.5 : 9 example). Must be positive.
	Weight float64

	// Cap, when positive, limits the allocation (fixed flows set Cap to
	// their requested bandwidth; rate-limited traffic sources set it to
	// their sending rate). Zero means uncapped.
	Cap float64
}

// Problem is a set of capacitated resources and demands over them.
type Problem struct {
	Capacity []float64
	Demands  []Demand
}

// eps guards float comparisons; capacities are in bits/second so 1e-6 bps
// is far below any meaningful quantity.
const eps = 1e-6

// solveScratch pools Solve's working state. The solver runs on two hot
// paths — every simulator bandwidth recomputation and every
// remos_flow_info phase — and all of this state is dead when Solve
// returns; only the allocation slice escapes.
type solveScratch struct {
	active   []bool
	usage    [][]int
	residual []float64
	wsum     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

func (sc *solveScratch) boolsN(n int) []bool {
	if cap(sc.active) < n {
		sc.active = make([]bool, n)
	}
	return sc.active[:n]
}

func (sc *solveScratch) usageN(n int) [][]int {
	if cap(sc.usage) < n {
		sc.usage = make([][]int, n)
	}
	u := sc.usage[:n]
	for i := range u {
		u[i] = u[i][:0] // keep grown inner slices, drop stale contents
	}
	return u
}

func (sc *solveScratch) floatsN(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// Solve computes the weighted max-min fair allocation by progressive
// filling: all active flows' normalized rates rise together; a flow
// freezes when it hits its cap or when one of its resources saturates.
// The returned slice has one allocation per demand, in order.
//
// Demands with no resources are only limited by their caps (uncapped ones
// get +Inf, meaning "unconstrained by the network"; callers decide what
// that means). Solve panics on non-positive weights or capacities — those
// are construction bugs, not runtime conditions.
func (p *Problem) Solve() []float64 {
	for i, c := range p.Capacity {
		if c < 0 || math.IsNaN(c) {
			panic(fmt.Sprintf("maxmin: negative capacity %v at resource %d", c, i))
		}
	}
	n := len(p.Demands)
	alloc := make([]float64, n) // escapes: always freshly allocated
	sc := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(sc)
	// No zeroing needed for active: the demand loop below writes every
	// index before anything reads it.
	active := sc.boolsN(n)
	// usage[r] lists demand indices using resource r (with multiplicity).
	usage := sc.usageN(len(p.Capacity))
	for i, d := range p.Demands {
		if d.Weight <= 0 || math.IsNaN(d.Weight) {
			panic(fmt.Sprintf("maxmin: non-positive weight %v on demand %d", d.Weight, i))
		}
		if d.Cap < 0 {
			panic(fmt.Sprintf("maxmin: negative cap %v on demand %d", d.Cap, i))
		}
		active[i] = true
		for _, r := range d.Resources {
			if int(r) < 0 || int(r) >= len(p.Capacity) {
				panic(fmt.Sprintf("maxmin: demand %d references resource %d of %d", i, r, len(p.Capacity)))
			}
			usage[r] = append(usage[r], i)
		}
	}
	residual := sc.floatsN(&sc.residual, len(p.Capacity))
	copy(residual, p.Capacity)

	// Handle resource-free demands immediately.
	for i, d := range p.Demands {
		if len(d.Resources) == 0 {
			if d.Cap > 0 {
				alloc[i] = d.Cap
			} else {
				alloc[i] = math.Inf(1)
			}
			active[i] = false
		}
	}

	// level is the common normalized rate: each active demand i currently
	// holds alloc[i] = level * Weight_i (minus freezes applied earlier at
	// lower levels).
	remaining := 0
	for i := range active {
		if active[i] {
			remaining++
		}
	}
	wsums := sc.floatsN(&sc.wsum, len(p.Capacity))
	for remaining > 0 {
		// Find the largest uniform normalized increase t such that no
		// resource oversaturates and no cap is exceeded. The per-resource
		// active weight sums are kept for the apply step below — the
		// active set does not change in between.
		t := math.Inf(1)
		for r, users := range usage {
			var wsum float64
			for _, i := range users {
				if active[i] {
					wsum += p.Demands[i].Weight
				}
			}
			wsums[r] = wsum
			if wsum <= 0 {
				continue
			}
			cand := residual[r] / wsum
			if cand < t {
				t = cand
			}
		}
		for i, d := range p.Demands {
			if !active[i] || d.Cap <= 0 {
				continue
			}
			cand := (d.Cap - alloc[i]) / d.Weight
			if cand < t {
				t = cand
			}
		}
		if math.IsInf(t, 1) {
			// Active demands exist but none touches a finite constraint:
			// all their resources have no competing weight (impossible —
			// they themselves are weight) — can only happen with no
			// resources and no cap, already handled. Guard anyway.
			for i := range active {
				if active[i] {
					alloc[i] = math.Inf(1)
					active[i] = false
				}
			}
			break
		}
		if t < 0 {
			t = 0
		}
		// Apply the increase.
		for i, d := range p.Demands {
			if active[i] {
				alloc[i] += t * d.Weight
			}
		}
		for r := range usage {
			residual[r] -= t * wsums[r]
			if residual[r] < 0 {
				residual[r] = 0
			}
		}
		// Freeze demands at saturated resources or caps.
		frozen := 0
		for i, d := range p.Demands {
			if !active[i] {
				continue
			}
			if d.Cap > 0 && alloc[i] >= d.Cap-eps {
				alloc[i] = d.Cap
				active[i] = false
				frozen++
				continue
			}
			for _, r := range d.Resources {
				if residual[r] <= eps {
					active[i] = false
					frozen++
					break
				}
			}
		}
		if frozen == 0 {
			// t was limited by something but nothing froze: numerical
			// corner. Freeze the demand with the tightest constraint to
			// guarantee termination.
			for i := range active {
				if active[i] {
					active[i] = false
					frozen++
					break
				}
			}
		}
		remaining -= frozen
	}
	return alloc
}

// Residual returns the capacity left on each resource after the given
// allocation (never negative).
func (p *Problem) Residual(alloc []float64) []float64 {
	return p.residualInto(append([]float64(nil), p.Capacity...), alloc)
}

// residualInto subtracts the allocation from dst in place and returns
// it. dst must hold the resource capacities on entry — Residual passes a
// fresh copy; SolveClasses reuses its working capacity slice across
// phases to avoid the copies.
func (p *Problem) residualInto(dst []float64, alloc []float64) []float64 {
	for i, d := range p.Demands {
		a := alloc[i]
		if math.IsInf(a, 1) {
			continue
		}
		for _, r := range d.Resources {
			dst[r] -= a
			if dst[r] < 0 {
				dst[r] = 0
			}
		}
	}
	return dst
}

// Feasible checks that an allocation respects all capacities and caps
// within tolerance; used by tests and by the simulator's self-checks.
func (p *Problem) Feasible(alloc []float64, tol float64) error {
	if len(alloc) != len(p.Demands) {
		return fmt.Errorf("maxmin: allocation length %d != %d demands", len(alloc), len(p.Demands))
	}
	load := make([]float64, len(p.Capacity))
	for i, d := range p.Demands {
		a := alloc[i]
		if a < 0 {
			return fmt.Errorf("maxmin: negative allocation %v for demand %d", a, i)
		}
		if d.Cap > 0 && a > d.Cap+tol {
			return fmt.Errorf("maxmin: demand %d allocated %v above cap %v", i, a, d.Cap)
		}
		if math.IsInf(a, 1) {
			if len(d.Resources) > 0 {
				return fmt.Errorf("maxmin: demand %d infinite allocation with resources", i)
			}
			continue
		}
		for _, r := range d.Resources {
			load[r] += a
		}
	}
	for r, l := range load {
		if l > p.Capacity[r]+tol {
			return fmt.Errorf("maxmin: resource %d loaded %v above capacity %v", r, l, p.Capacity[r])
		}
	}
	return nil
}

// IsMaxMinFair verifies the bottleneck condition: every demand is either
// at its cap or crosses at least one saturated resource on which its
// normalized rate (alloc/weight) is maximal among that resource's users.
// This is the classical characterization of weighted max-min fairness.
//
//reach:keep the fairness oracle the maxmin and experiments tests check allocations against
func (p *Problem) IsMaxMinFair(alloc []float64, tol float64) error {
	if err := p.Feasible(alloc, tol); err != nil {
		return err
	}
	load := make([]float64, len(p.Capacity))
	for i, d := range p.Demands {
		if math.IsInf(alloc[i], 1) {
			continue
		}
		for _, r := range d.Resources {
			load[r] += alloc[i]
		}
	}
	for i, d := range p.Demands {
		if d.Cap > 0 && alloc[i] >= d.Cap-tol {
			continue // capped
		}
		if len(d.Resources) == 0 {
			if !math.IsInf(alloc[i], 1) {
				return fmt.Errorf("maxmin: free demand %d not unbounded", i)
			}
			continue
		}
		norm := alloc[i] / d.Weight
		ok := false
		for _, r := range d.Resources {
			if load[r] < p.Capacity[r]-tol {
				continue // not saturated
			}
			// Is demand i's normalized rate maximal on r?
			maximal := true
			for j, dj := range p.Demands {
				if usesResource(dj, int(r)) && alloc[j]/dj.Weight > norm+tol {
					maximal = false
					_ = j
					break
				}
			}
			if maximal {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("maxmin: demand %d (alloc %v) has no bottleneck", i, alloc[i])
		}
	}
	return nil
}

func usesResource(d Demand, r int) bool {
	for _, rr := range d.Resources {
		if int(rr) == r {
			return true
		}
	}
	return false
}
