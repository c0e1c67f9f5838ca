package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runs holds every value of every end-to-end metric and exact detail line
// per workload, one per result file.
type runs map[string]map[string][]float64

// compared is what -compare judges: the end-to-end metrics, then the
// exact detail lines.
var compared = append(append([]metric(nil), endToEnd...), exactDetail...)

// loadRuns reads -json result files.
func loadRuns(paths []string) (runs, error) {
	out := runs{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for w, rep := range f.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				out[w][name] = append(out[w][name], v.Value)
			}
			for _, m := range exactDetail {
				if v, ok := rep.Detail[m.Name]; ok {
					out[w][m.Name] = append(out[w][m.Name], v.Value)
				}
			}
		}
	}
	return out, nil
}

// splitSides splits "A.json... -- B.json..." into its two sides.
func splitSides(args []string) (a, b []string, err error) {
	for i, s := range args {
		if s == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New("want -compare A.json... -- B.json...")
	}
	return a, b, nil
}

// verdict judges one workload and metric, following the rule the
// benchmark's bounds are defined by: B regresses when its median is worse
// than A's by more than the bound. When either side's own spread is wider
// than the bound the comparison cannot tell, so it is "unresolved" unless
// every run of B beats every run of A. Exact metrics go to exactVerdict.
func verdict(m metric, a, b []float64) string {
	if m.Bound == 0 {
		return exactVerdict(m, a, b)
	}
	if math.Max(spread(a), spread(b)) > m.Bound {
		if allBetter(m, a, b) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case exceedsBound(m, median(a), median(b)):
		return "WORSE"
	case -worsening(m, median(a), median(b)) > m.Bound:
		return "better"
	}
	return "ok"
}

// exactVerdict judges a metric every run of a commit must reproduce: "ok"
// when all runs of both sides agree, "WORSE" or "better" when the medians
// differ, and "CHANGED" when they agree but some run does not, which means
// the metric was not exact after all.
func exactVerdict(m metric, a, b []float64) string {
	switch w := worsening(m, median(a), median(b)); {
	case w > 0:
		return "WORSE"
	case w < 0:
		return "better"
	}
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x != a[0] {
			return "CHANGED"
		}
	}
	return "ok"
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(m, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per workload and compared metric and returns
// 1 if any is worse than its bound or an exact one is not reproduced, 2 on
// bad input.
func runCompare(w io.Writer, args []string) int {
	as, bs, err := splitSides(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadRuns(as)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadRuns(bs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(w, "%-15s %-17s %32s %32s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "gain", "bound", "verdict")
	for _, wl := range names {
		for _, m := range compared {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(m, xa, xb)
			if v == "WORSE" || v == "CHANGED" {
				status = 1
			}
			fmt.Fprintf(w, "%-15s %-17s %32s %32s %+7.2f%% %5.0f%%  %s\n", wl, m.Name, summary(xa), summary(xb),
				-100*worsening(m, median(xa), median(xb)), 100*m.Bound, v)
		}
	}
	return status
}

// summary renders a side as "median [q1 q3] n".
func summary(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", median(xs), q1, q3, len(xs))
}
