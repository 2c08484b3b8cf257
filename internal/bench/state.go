package bench

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/state"
)

// The state benchmark records the keyed-state snapshot trajectory: how long
// an operator subtask blocks at a checkpoint barrier. The baseline is the
// pre-key-group design — the whole keyed state gob-encoded synchronously
// under the barrier, one blob per subtask. The measured path is the
// key-group design: a copy-on-write Capture (flag flips and scalar copies)
// blocks the barrier, and the per-group serialization runs asynchronously.
// Results are written to BENCH_state.json by `streamline-bench -state`.

// StateRun is one key-count measurement.
type StateRun struct {
	Keys int `json:"keys"`
	// SyncCaptureNs is the barrier-blocking time of the baseline: the whole
	// state serialized synchronously (sorted keys, one gob blob).
	SyncCaptureNs int64 `json:"sync_capture_ns"`
	SyncBytes     int64 `json:"sync_bytes"`
	// CowCaptureNs is the barrier-blocking time of the key-group design:
	// taking the copy-on-write capture.
	CowCaptureNs int64 `json:"cow_capture_ns"`
	// AsyncEncodeNs is the off-barrier serialization of the capture into
	// per-group blobs.
	AsyncEncodeNs int64 `json:"async_encode_ns"`
	AsyncBytes    int64 `json:"async_bytes"`
	// CaptureSpeedup is SyncCaptureNs / CowCaptureNs — how much less time
	// the subtask spends blocked at the barrier.
	CaptureSpeedup float64 `json:"capture_speedup"`
}

// StateReport is the full suite.
type StateReport struct {
	NumKeyGroups int        `json:"num_key_groups"`
	Runs         []StateRun `json:"runs"`
}

// syncGobState is the baseline blob layout: the shape KeyedReduceOp used to
// serialize under the barrier before keyed state moved to key groups.
type syncGobState struct {
	Keys []uint64
	Vals []float64
}

func encodeSyncWholeState(m map[uint64]float64) (int64, error) {
	s := syncGobState{Keys: make([]uint64, 0, len(m)), Vals: make([]float64, 0, len(m))}
	for k := range m {
		s.Keys = append(s.Keys, k)
	}
	sort.Slice(s.Keys, func(i, j int) bool { return s.Keys[i] < s.Keys[j] })
	for _, k := range s.Keys {
		s.Vals = append(s.Vals, m[k])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// stateKeys generates the benchmark's key space: every key is touched once
// with a running-sum value, the KeyedReduce workload shape.
func buildKeyedState(keys int) (*state.KeyedState, *state.MapCell[float64], map[uint64]float64) {
	ks := state.NewKeyedState(state.DefaultNumKeyGroups, 0, state.DefaultNumKeyGroups)
	cell := state.RegisterMap(ks, "acc", state.ValueCodec[float64]())
	plain := make(map[uint64]float64, keys)
	for i := 0; i < keys; i++ {
		k := uint64(i)*2654435761 + 1
		v := float64(i % 97)
		cell.Put(k, v)
		plain[k] = v
	}
	return ks, cell, plain
}

// StateCapture measures one key count, best of `rounds` attempts.
func StateCapture(keys, rounds int) (StateRun, error) {
	run := StateRun{Keys: keys}
	ks, _, plain := buildKeyedState(keys)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		syncBytes, err := encodeSyncWholeState(plain)
		syncNs := time.Since(t0).Nanoseconds()
		if err != nil {
			return run, err
		}

		t1 := time.Now()
		captured := ks.Capture()
		cowNs := time.Since(t1).Nanoseconds()

		t2 := time.Now()
		groups, err := captured.EncodeGroups()
		asyncNs := time.Since(t2).Nanoseconds()
		if err != nil {
			return run, err
		}
		var asyncBytes int64
		for _, b := range groups {
			asyncBytes += int64(len(b))
		}

		if r == 0 || syncNs < run.SyncCaptureNs {
			run.SyncCaptureNs = syncNs
			run.SyncBytes = syncBytes
		}
		if r == 0 || cowNs < run.CowCaptureNs {
			run.CowCaptureNs = cowNs
		}
		if r == 0 || asyncNs < run.AsyncEncodeNs {
			run.AsyncEncodeNs = asyncNs
			run.AsyncBytes = asyncBytes
		}
	}
	if run.CowCaptureNs > 0 {
		run.CaptureSpeedup = float64(run.SyncCaptureNs) / float64(run.CowCaptureNs)
	}
	return run, nil
}

// State runs the state-snapshot benchmark suite.
func State(quick bool) (*StateReport, error) {
	counts := []int{10_000, 100_000, 500_000}
	rounds := 5
	if quick {
		counts = []int{10_000, 100_000}
		rounds = 3
	}
	rep := &StateReport{NumKeyGroups: state.DefaultNumKeyGroups}
	for _, n := range counts {
		run, err := StateCapture(n, rounds)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// Table renders the report in the experiment-table format.
func (r *StateReport) Table() *Table {
	t := &Table{
		ID:     "STATE",
		Title:  "keyed-state snapshots: copy-on-write capture vs synchronous whole-state gob",
		Claim:  "the barrier path blocks for the capture, not the serialization",
		Header: []string{"keys", "sync capture", "cow capture", "async encode", "bytes", "capture speedup"},
	}
	for _, run := range r.Runs {
		t.Add(
			fmtCount(float64(run.Keys)),
			fmt.Sprintf("%.3fms", float64(run.SyncCaptureNs)/1e6),
			fmt.Sprintf("%.4fms", float64(run.CowCaptureNs)/1e6),
			fmt.Sprintf("%.3fms", float64(run.AsyncEncodeNs)/1e6),
			fmtCount(float64(run.AsyncBytes)),
			fmt.Sprintf("%.0fx", run.CaptureSpeedup),
		)
	}
	t.Note("barrier-blocking time per checkpoint at %d key groups; serialization now overlaps processing", r.NumKeyGroups)
	return t
}

// WriteJSON records the report (the perf trajectory file BENCH_state.json).
func (r *StateReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
