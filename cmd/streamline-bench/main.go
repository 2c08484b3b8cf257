// Command streamline-bench runs the STREAMLINE experiment suite E1–E11 and
// prints one table per experiment. The experiments are the E* functions of
// internal/bench, each table carrying the claim it checks; the results of the
// single-flag reports below are recorded in the BENCH_*.json files at the
// repository root. The engine's end-to-end benchmark is not this command but
// the benchmark/ module described by BENCHMARK.json.
//
// Usage:
//
//	streamline-bench              # all experiments, full sizes
//	streamline-bench -quick       # all experiments, reduced sizes
//	streamline-bench -e E2,E4     # selected experiments
//	streamline-bench -exchange BENCH_exchange.json
//	                              # exchange report only: batched vs
//	                              # per-record data plane, results to JSON
//	streamline-bench -state BENCH_state.json
//	                              # keyed-state snapshot report only:
//	                              # copy-on-write capture vs synchronous
//	                              # whole-state gob, results to JSON
//	streamline-bench -scan BENCH_scan.json
//	                              # at-rest scan report only: byte-range
//	                              # splits vs round-robin full-file scans
//	                              # plus seek vs re-scan restore, to JSON
//	streamline-bench -recover BENCH_recover.json
//	                              # supervised recovery report only: inject
//	                              # worker kills into a supervised job and
//	                              # measure detect→restored MTTR per restart,
//	                              # results to JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

// report is what every single-flag report returns: a table for the terminal
// and the JSON trajectory file.
type report interface {
	Table() *bench.Table
	WriteJSON(path string) error
}

// reports is the single-flag reports, in the order they are tried; the first
// one whose flag carries a path runs alone.
var reports = []struct {
	flag, usage string
	run         func(quick bool) (report, error)
}{
	{"recover", "supervised recovery", func(q bool) (report, error) { return bench.Recover(q) }},
	{"scan", "at-rest scan", func(q bool) (report, error) { return bench.Scan(q) }},
	{"state", "keyed-state snapshot", func(q bool) (report, error) { return bench.State(q) }},
	{"exchange", "exchange", func(q bool) (report, error) { return bench.Exchange(q) }},
}

func main() {
	quick := flag.Bool("quick", false, "run with reduced input sizes")
	exps := flag.String("e", "", "comma-separated experiment ids (default: all)")
	paths := make([]*string, len(reports))
	for i, r := range reports {
		paths[i] = flag.String(r.flag, "", "run the "+r.usage+" report and write JSON results to this path")
	}
	flag.Parse()

	for i, r := range reports {
		path := *paths[i]
		if path == "" {
			continue
		}
		rep, err := r.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s report failed: %v\n", r.flag, err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", path)
		return
	}

	if *exps == "" {
		for _, t := range bench.All(*quick) {
			t.Fprint(os.Stdout)
		}
		return
	}
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		run := bench.ByID(id)
		if run == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: E1..E11)\n", id)
			os.Exit(2)
		}
		run(*quick).Fprint(os.Stdout)
	}
}
