package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// loadSet reads the untraced result documents of one side: a directory
// of result-*.json files, or one file holding one or more documents.
func loadSet(path string) ([]*result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var r result
			if err := dec.Decode(&r); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if !r.Trace {
				out = append(out, &r)
			}
		}
		f.Close()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result documents", path)
	}
	return out, nil
}

// side is one metric of one workload over one set of runs.
type side struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

// judge gives the verdict for one metric: b against a, where worse is
// the direction the metric may not move by more than bound of a's median.
func judge(a, b side, d metricDef) string {
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (b.q2 - a.q2) / a.q2
	allBetter, allWorse := true, true
	for _, x := range a.vals {
		for _, y := range b.vals {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	if (a.spread() > d.Bound || b.spread() > d.Bound) && !allBetter && !allWorse {
		return "unresolved"
	}
	switch {
	case change > d.Bound:
		return "regressed"
	case change < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareSets prints one row per workload and end-to-end metric and
// reports whether B is free of regressions and of a higher failed share.
func compareSets(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	collect := func(set []*result, workload, metric string) []float64 {
		var v []float64
		for _, r := range set {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	failedShare := func(set []*result, workload string) (share float64, failed, attempted int) {
		for _, r := range set {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		if attempted > 0 {
			share = float64(failed) / float64(attempted)
		}
		return share, failed, attempted
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := collect(a, w.name, d.Name), collect(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			verdict := judge(sa, sb, d)
			if verdict == "regressed" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%.3f of %.5g\t%.0f%% %s\t%s\n",
				w.name, d.Name, d.Unit, sa.q2, sa.q1, sa.q3, len(va), sb.q2, sb.q1, sb.q3, len(vb),
				sb.q2/sa.q2, sa.q2, 100*d.Bound, d.Better, verdict)
		}
		fa, na, ta := failedShare(a, w.name)
		fb, nb, tb := failedShare(b, w.name)
		if ta == 0 || tb == 0 {
			continue
		}
		verdict := "unchanged"
		if fb > fa {
			verdict, ok = "regressed", false
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.3g (%d of %d)\t%.3g (%d of %d)\t\tmust not rise\t%s\n",
			w.name, fa, na, ta, fb, nb, tb, verdict)
	}
	return ok, tw.Flush()
}
