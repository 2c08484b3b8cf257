// Command streamline-bench runs the STREAMLINE experiment suite E1–E11 and
// prints one table per experiment. The experiments are the E* functions of
// internal/bench, each table carrying the claim it checks; the results of the
// single-flag benchmarks below are recorded in the BENCH_*.json files at the
// repository root. The engine's end-to-end benchmark is not this command but
// the benchmark/ module described by BENCHMARK.json.
//
// Usage:
//
//	streamline-bench              # all experiments, full sizes
//	streamline-bench -quick       # all experiments, reduced sizes
//	streamline-bench -e E2,E4     # selected experiments
//	streamline-bench -exchange BENCH_exchange.json
//	                              # exchange benchmark only: batched vs
//	                              # per-record data plane, results to JSON
//	streamline-bench -state BENCH_state.json
//	                              # keyed-state snapshot benchmark only:
//	                              # copy-on-write capture vs synchronous
//	                              # whole-state gob, results to JSON
//	streamline-bench -scan BENCH_scan.json
//	                              # at-rest scan benchmark only: byte-range
//	                              # splits vs round-robin full-file scans
//	                              # plus seek vs re-scan restore, to JSON
//	streamline-bench -topic BENCH_topic.json
//	                              # topic store benchmark only: segment-log
//	                              # append throughput, Topic-vs-JSONL replay,
//	                              # follow-mode latency, results to JSON
//	streamline-bench -net BENCH_net.json
//	                              # exchange transport benchmark only:
//	                              # in-process channels vs loopback TCP at
//	                              # batch sizes 1/64/256, results to JSON
//	streamline-bench -fusion BENCH_fusion.json
//	                              # vectorized operator chain benchmark only:
//	                              # fused OnBatch execution vs per-record
//	                              # boxing, throughput + allocs/record to JSON
//	streamline-bench -keyed BENCH_keyed.json
//	                              # vectorized keyed hot path benchmark only:
//	                              # run-grouped state access + batched hash
//	                              # routing vs per-record keyed dispatch on
//	                              # windowed-aggregation and reduce-by-key
//	                              # pipelines, throughput + allocs/record
//	streamline-bench -recover BENCH_recover.json
//	                              # supervised recovery benchmark only: inject
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

func main() {
	quick := flag.Bool("quick", false, "run with reduced input sizes")
	exps := flag.String("e", "", "comma-separated experiment ids (default: all)")
	exchange := flag.String("exchange", "", "run the exchange benchmark and write JSON results to this path")
	stateBench := flag.String("state", "", "run the keyed-state snapshot benchmark and write JSON results to this path")
	scanBench := flag.String("scan", "", "run the at-rest scan benchmark and write JSON results to this path")
	topicBench := flag.String("topic", "", "run the topic store benchmark and write JSON results to this path")
	netBench := flag.String("net", "", "run the exchange transport benchmark and write JSON results to this path")
	fusionBench := flag.String("fusion", "", "run the vectorized operator chain benchmark and write JSON results to this path")
	keyedBench := flag.String("keyed", "", "run the vectorized keyed hot path benchmark and write JSON results to this path")
	recoverBench := flag.String("recover", "", "run the supervised recovery benchmark and write JSON results to this path")
	flag.Parse()

	if *recoverBench != "" {
		rep, err := bench.Recover(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recover benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*recoverBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *recoverBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *recoverBench)
		return
	}

	if *keyedBench != "" {
		rep, err := bench.Keyed(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "keyed benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*keyedBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *keyedBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *keyedBench)
		return
	}

	if *fusionBench != "" {
		rep, err := bench.Fusion(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusion benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*fusionBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *fusionBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *fusionBench)
		return
	}

	if *netBench != "" {
		rep, err := bench.Net(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "net benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*netBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *netBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *netBench)
		return
	}

	if *topicBench != "" {
		rep, err := bench.Topic(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topic benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*topicBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *topicBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *topicBench)
		return
	}

	if *scanBench != "" {
		rep, err := bench.Scan(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scan benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*scanBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *scanBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *scanBench)
		return
	}

	if *stateBench != "" {
		rep, err := bench.State(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "state benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*stateBench); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *stateBench, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *stateBench)
		return
	}

	if *exchange != "" {
		rep, err := bench.Exchange(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exchange benchmark failed: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
		if err := rep.WriteJSON(*exchange); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *exchange, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *exchange)
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
