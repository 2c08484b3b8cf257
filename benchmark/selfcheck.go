package main

import (
	"fmt"
	"os"
)

// timingFloor is the absolute slack, in seconds, a timing gets on top of its
// bound in -selfcheck: a set-up of ten milliseconds cannot fail on noise.
const timingFloor = 0.050

// runSelfcheck runs the suite twice back to back and prints, for every
// end-to-end metric of every workload, both values, by how much the second
// is worse, and the bound. It reports whether every pair agreed.
func runSelfcheck(selected []workload, cfg Config) bool {
	cfg.Trace = false
	var runs [2][]*Result
	for i := range runs {
		fmt.Printf("\n#### selfcheck run %d\n", i+1)
		rs, err := runSuite(selected, cfg, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return false
		}
		runs[i] = rs
	}
	ok := true
	fmt.Printf("\n#### selfcheck\n%-11s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, a := range runs[0] {
		b := runs[1][i]
		if a.Failed+b.Failed > 0 {
			ok = false
		}
		defs := append(append([]metricDef(nil), endToEnd...), ownMetrics[a.Workload]...)
		for _, d := range defs {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			worse, slack := (y-x)/x, 0.0
			if d.Better == "higher" {
				worse = (x - y) / x
			}
			switch d.Unit {
			case "s":
				slack = timingFloor / x
			case "ms":
				slack = timingFloor * 1e3 / x
			}
			verdict := ""
			if worse > d.Bound+slack {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-11s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.Workload, d.Name, x, y, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}
