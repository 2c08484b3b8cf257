// Command benchmark is the repository's one benchmark: five named workloads
// driven through the public streamline API at default engine settings, each
// checked against a reference, reporting end-to-end metrics and, with
// -trace 1, a per-layer account. See README.md in this directory and
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// parallelism is the environment and source parallelism of every workload:
// the sandbox has two cores, and the load comes from this one process.
const parallelism = 2

var workloads = []workload{
	{"replay", "data at rest: topic range reads and JSON decode feed a fused chain into windows; split scans emit no watermarks, so the window sweep is almost absent", runReplay},
	{"windows", "data in motion, saturated: a free in-memory source, so the window operator, Cutty and keyed state do the work; Zipf keys, bounded disorder, 1% late events", runWindows},
	{"dist", "coordinator and two workers over loopback TCP with a cheap reduce and near-unique keys, so the stager, wire codec and sockets dominate", runDist},
	{"checkpoint", "a large keyed state with little churn, snapshotted every second beside the updates, then restored: capture, encode, persist and restore work no other workload does", runCheckpoint},
	{"live", "the paper's scenario: replay a topic through Hybrid, hand off to a live channel fed open-loop at a fixed rate, keyed windows to a sink; the one latency workload", runLive},
}

// stamp identifies the build and machine a set of numbers came from.
type stamp struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", runSeconds, "length of each workload's measured phase")
		trace     = flag.Int("trace", 0, "1: record spans, run the layer probes and report per-layer metrics instead of end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
		jsonOut   = flag.String("json", "", "also write every result to this file")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables have it, and exit")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(benchmarkJSON())
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 2 {
		fatal(fmt.Errorf("-seconds %v: a measured phase needs the 1 s warm-up and at least 1 s after it", *seconds))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}
	st := stamp{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
	}
	fmt.Printf("# go=%s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g trace=%d\n",
		st.Go, st.GOMAXPROCS, st.NumCPU, st.Commit, st.Seed, st.Seconds, *trace)

	out := outDir()
	cfg := Config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Dir: filepath.Join(out, "tmp")}
	// Whatever a killed earlier run left behind goes first; the deferred
	// removal covers this one.
	os.RemoveAll(cfg.Dir)
	code := 0
	defer func() {
		os.RemoveAll(cfg.Dir)
		os.Exit(code)
	}()

	if *selfcheck {
		if !runSelfcheck(selected, cfg) {
			code = 1
		}
		return
	}
	results, err := runSuite(selected, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
		return
	}
	for _, r := range results {
		if r.Failed > 0 {
			code = 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, st, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	if len(results) == 1 {
		// The last line of standard output is the driver's contract.
		fmt.Println(contractLine(results[0], cfg.Trace))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// runSuite runs the workloads one after another and prints each one's
// metrics as it finishes. A traced run also writes the span file, runs the
// layer probes and adds the per-layer metrics and the layer budget.
func runSuite(selected []workload, cfg Config, out string) ([]*Result, error) {
	var results []*Result
	for _, w := range selected {
		var tr *Tracer
		if cfg.Trace {
			tr = newTracer(w.name)
		}
		r, err := w.run(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if cfg.Trace {
			if err := traced(r, tr, cfg, out); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		printResult(r, cfg.Trace)
		results = append(results, r)
	}
	return results, nil
}

// printResult prints every metric of one workload by name with its unit.
func printResult(r *Result, traced bool) {
	fmt.Printf("\n== %s\n", r.Workload)
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-28s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range ownMetrics[r.Workload] {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-28s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Printf("%-28s %16.6g %s\n", "failed_share", float64(r.Failed)/float64(r.Attempted), "ratio")
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  n.%-24s %16d\n", k, r.Counts[k])
	}
	if !traced {
		return
	}
	fmt.Printf("-- spans (%s): calls into the engine whole, benchmark-owned functions one call in %d\n", r.Workload, sampleEvery)
	names := make([]string, 0, len(r.Spans))
	for name := range r.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.Spans[name]
		fmt.Printf("%-44s %8d spans %12.3f ms %12.3f ms self\n", name, t.N, float64(t.Dur)/1e6, float64(t.Self)/1e6)
	}
	fmt.Printf("-- per layer (%s)\n", r.Workload)
	for _, d := range perLayer {
		fmt.Printf("%-44s %16.6g %s\n", d.Name, r.Layer[d.Name], d.Unit)
	}
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders a result the way the driver reads it: the end-to-end
// metrics of BENCHMARK.json untraced, its per-layer metrics traced.
func contractLine(r *Result, traced bool) string {
	m := map[string]contractMetric{}
	if traced {
		for _, d := range perLayer {
			m[d.Name] = contractMetric{r.Layer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			m[d.Name] = contractMetric{r.Metrics[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func writeJSON(path string, st stamp, results []*Result) error {
	type entry struct {
		Workload  string             `json:"workload"`
		Metrics   map[string]float64 `json:"metrics"`
		Layer     map[string]float64 `json:"per_layer,omitempty"`
		Counts    map[string]int64   `json:"counts"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
	}
	doc := struct {
		Stamp   stamp   `json:"stamp"`
		Results []entry `json:"results"`
	}{Stamp: st}
	for _, r := range results {
		doc.Results = append(doc.Results, entry{r.Workload, r.Metrics, r.Layer, r.Counts, r.Attempted, r.Failed})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
