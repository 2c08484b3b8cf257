package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// traced completes a traced run of one workload: it writes the span file,
// runs the layer probes, and fills r.Layer with every per-layer metric and the
// workload's layer budget.
func traced(r *Result, tr *Tracer, cfg Config, out string) error {
	probes, err := runProbes(tr, cfg, r.Workload)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probes {
		if _, taken := r.Layer[name]; !taken {
			r.Layer[name] = v
		}
	}
	// The workload's own end-to-end metrics travel as per-layer ones.
	for _, d := range ownMetrics[r.Workload] {
		r.Layer["job."+d.Name] = r.Metrics[d.Name]
	}

	// Time inside benchmark-owned functions, from the sampled spans.
	r.Spans = spanSums(tr.Spans())
	var fn, sink spanSum
	for name, t := range r.Spans {
		switch {
		case name == "user.sink":
			sink = t
		case strings.HasPrefix(name, "user."):
			fn.N, fn.Dur = fn.N+t.N, fn.Dur+t.Dur
		}
	}
	r.Layer["harness.userfn_ns"] = share(float64(fn.Dur), float64(fn.N))
	r.Layer["harness.sink_ns"] = share(float64(sink.Dur), float64(sink.N))
	r.Units["userfn_calls"] = float64(fn.N * sampleEvery)
	r.Units["sink_calls"] = float64(sink.N * sampleEvery)

	budget(r)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(out, "trace-"+r.Workload+".json"))
}

// budget is the layer budget of one workload's measured phase: for each
// module, the probed cost of a unit of its work times how many units the
// phase did, as a share of the CPU time the process spent in the phase. It is
// a model, not a profile: probes run alone and cache-warm, the job does not,
// and what the model misses (scheduling, channel waits, garbage collection,
// the runtime) is the unattributed row. Where two probes overlap, the inner
// module's part is taken out of the outer one's.
func budget(r *Result) {
	u, l := r.Units, r.Layer
	ns := map[string]float64{}
	// Sources: the typed Topic reader contains the segment-log range read.
	ns["seglog"] = u["topic_records"] * l["seglog.range_next_ns"]
	ns["streamline"] = u["topic_records"]*max(0, l["streamline.topic_next_ns"]-l["seglog.range_next_ns"]) +
		u["channel_records"]*l["streamline.channel_next_ns"]
	// Keyed state: one read and one write per record the reduce takes, and
	// per checkpoint one capture and one encode of the whole state.
	stateScale := u["state_keys"] / probeKeys
	ns["state"] = u["reduce_records"]*(l["state.get_ns"]+l["state.put_ns"]) +
		u["checkpoints"]*stateScale*(l["state.capture_us"]*1e3+l["state.encode_ms"]*1e6)
	// Cutty: one element per window record, one watermark call per key per
	// sweep. The window operator's sweep contains the latter.
	perSubtask := u["keys"] / parallelism
	cuttySweep := u["sweeps"] * perSubtask * l["cutty.on_watermark_ns"]
	ns["cutty"] = u["window_records"]*l["cutty.on_element_ns"] + cuttySweep
	ns["dataflow"] = u["chain_records"]*l["dataflow.chain_ns"] +
		u["exchange_records"]*l["dataflow.exchange_ns"] +
		u["reduce_records"]*max(0, l["dataflow.reduce_onbatch_ns"]-l["state.get_ns"]-l["state.put_ns"]) +
		u["window_records"]*l["dataflow.window_onbatch_ns"] +
		max(0, u["sweeps"]*sweepNs(l, perSubtask)-cuttySweep)
	ns["core"] = u["combiner_records"] * l["core.combiner_onbatch_ns"]
	ns["transport"] = u["wire_records"] * l["transport.mesh_ns"]
	ns["harness"] = u["userfn_calls"]*l["harness.userfn_ns"] + u["sink_calls"]*l["harness.sink_ns"] +
		u["generated_records"]*l["harness.generator_ns"]

	total := r.CPUSeconds * 1e9
	rest := 1.0
	for module, v := range ns {
		s := share(v, total)
		l["budget."+module+"_cpu_share"] = s
		rest -= s
	}
	l["budget.unattributed_cpu_share"] = rest
}

// sweepNs is the cost of one OnWatermark sweep over keys keys of a window
// subtask. The probe measured two sizes, 50 and 5 000 keys a subtask, and the
// cost per key is not flat between them (the larger state misses cache), so
// the cost per key is interpolated on the logarithm of the key count.
func sweepNs(l map[string]float64, keys float64) float64 {
	const small, large = 100 / parallelism, windowsKeys / parallelism
	lo := l["dataflow.window_onwatermark_us_100keys"] * 1e3 / small
	hi := l["dataflow.window_onwatermark_us"] * 1e3 / large
	if keys <= 0 || lo <= 0 || hi <= 0 {
		return 0
	}
	t := (math.Log(keys) - math.Log(small)) / (math.Log(large) - math.Log(small))
	t = math.Max(0, math.Min(1, t))
	return keys * math.Exp(math.Log(lo)+t*(math.Log(hi)-math.Log(lo)))
}
