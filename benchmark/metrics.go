package main

import "encoding/json"

// metricDef names a metric, its unit, which direction is better, and, for an
// end-to-end metric, the share of the earlier value by which it may get worse
// before -selfcheck (and the driver, through BENCHMARK.json) calls it a
// regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics every workload reports. They are the end_to_end
// list of BENCHMARK.json; a test keeps the two the same.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_record", "us", "lower", 0.15},
	{"allocs_per_record", "count", "lower", 0.05},
	{"alloc_bytes_per_record", "B", "lower", 0.10},
	{"peak_heap_mb", "MB", "lower", 0.15},
}

// ownMetrics are the end-to-end metrics only one workload has. The driver's
// contract wants every end-to-end metric from every workload, so these are
// not in BENCHMARK.json's end_to_end list: the suite prints them, -selfcheck
// holds them to these bounds, and the traced run reports them to the driver
// as per-layer metrics under "job.".
var ownMetrics = map[string][]metricDef{
	"checkpoint": {
		{"ckpt_mean_ms", "ms", "lower", 0.10},
		{"ckpt_bytes", "B", "lower", 0.02},
		{"restore_s", "s", "lower", 0.10},
	},
	"live": {
		{"latency_p90_ms", "ms", "lower", 0.10},
		{"latency_p99_ms", "ms", "lower", 0.10},
		{"catchup_s", "s", "lower", 0.10},
	},
}

// perLayer is the per_layer list of BENCHMARK.json: what a traced run
// reports. A metric a workload does not have reads 0 there (the contract
// wants every name from every workload); the suite's own table prints it the
// same way.
var perLayer = []metricDef{
	{Name: "streamline.topic_next_ns", Unit: "ns", Better: "lower"},
	{Name: "streamline.jsonl_next_ns", Unit: "ns", Better: "lower"},
	{Name: "streamline.channel_next_ns", Unit: "ns", Better: "lower"},
	{Name: "seglog.range_next_ns", Unit: "ns", Better: "lower"},
	{Name: "seglog.tail_next_ns", Unit: "ns", Better: "lower"},
	{Name: "seglog.append_ns", Unit: "ns", Better: "lower"},
	{Name: "seglog.append_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "dataflow.chain_ns", Unit: "ns", Better: "lower"},
	{Name: "dataflow.exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "dataflow.reduce_onbatch_ns", Unit: "ns", Better: "lower"},
	{Name: "dataflow.window_onbatch_ns", Unit: "ns", Better: "lower"},
	{Name: "dataflow.window_onwatermark_us", Unit: "us", Better: "lower"},
	{Name: "dataflow.watermark_useful_share", Unit: "ratio", Better: "higher"},
	{Name: "dataflow.window_onbatch_ns_100keys", Unit: "ns", Better: "lower"},
	{Name: "dataflow.window_onwatermark_us_100keys", Unit: "us", Better: "lower"},
	{Name: "dataflow.watermark_useful_share_100keys", Unit: "ratio", Better: "higher"},
	{Name: "dataflow.late_dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "dataflow.queued_batches_max", Unit: "count", Better: "lower"},
	{Name: "core.combiner_pass_share", Unit: "ratio", Better: "lower"},
	{Name: "core.combiner_onbatch_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.mesh_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tx_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "transport.loopback_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.start_ms", Unit: "ms", Better: "lower"},
	{Name: "state.put_ns", Unit: "ns", Better: "lower"},
	{Name: "state.get_ns", Unit: "ns", Better: "lower"},
	{Name: "state.capture_us", Unit: "us", Better: "lower"},
	{Name: "state.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "state.encode_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "state.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "state.backend_persist_ms", Unit: "ms", Better: "lower"},
	{Name: "state.backend_load_ms", Unit: "ms", Better: "lower"},
	{Name: "cutty.on_element_ns", Unit: "ns", Better: "lower"},
	{Name: "cutty.on_watermark_ns", Unit: "ns", Better: "lower"},
	{Name: "cutty.slices_per_engine", Unit: "count", Better: "lower"},
	{Name: "cutty.partials_per_engine", Unit: "count", Better: "lower"},
	{Name: "cutty.snapshot_bytes_per_engine", Unit: "B", Better: "lower"},
	{Name: "metrics.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.generator_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.generator_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.userfn_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.sink_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.tracing_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.par1_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "job.ckpt_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "job.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "job.restore_s", Unit: "s", Better: "lower"},
	{Name: "job.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "job.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "job.catchup_s", Unit: "s", Better: "lower"},
	{Name: "budget.streamline_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.seglog_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.dataflow_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.core_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.transport_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.state_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.cutty_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.harness_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.unattributed_cpu_share", Unit: "ratio", Better: "lower"},
}

// runSeconds is the measured time the driver asks for, and -seconds' default.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables above, so that the
// file the driver reads cannot drift from what the program reports.
func benchmarkJSON() string {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		// run.sh builds into .bench_build inside the checkout and runs the
		// binary from the repository root.
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(out)
}
