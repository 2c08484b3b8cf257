package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataflow"
)

// The scan benchmark records the splittable at-rest scan trajectory: the
// same file drained through the engine with the pre-split round-robin
// design (every subtask scans the whole file and keeps its 1/p of the
// lines — p× the scan work) and with byte-range splits handed out by the
// dynamic assigner (each subtask scans ~1/p of the file). Two pipelines run
// at parallelism 1/2/4: "scan" counts lines with a near-free decode (the
// pure scan path under measurement) and "wordcount" tokenizes every owned
// line into words (decode work shared by both designs). A separate
// measurement shows restore cost: seek-based split restore is O(remaining
// split). Results are written to BENCH_scan.json by `streamline-bench -scan`.

// ScanRun is one (pipeline, mode, parallelism, split size) measurement.
type ScanRun struct {
	Pipeline    string  `json:"pipeline"` // "scan" | "wordcount"
	Mode        string  `json:"mode"`     // "roundrobin" | "splits"
	Parallelism int     `json:"parallelism"`
	SplitSize   int64   `json:"split_size,omitempty"`
	Lines       int64   `json:"lines"`
	Bytes       int64   `json:"bytes"`
	Seconds     float64 `json:"seconds"`
	LinesPerSec float64 `json:"lines_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec"`
}

// ScanRestoreRun is one restore-cost measurement: time from Restore to the
// first record, resuming at ~7/8 of the file.
type ScanRestoreRun struct {
	Mode          string  `json:"mode"` // "seek"
	FileBytes     int64   `json:"file_bytes"`
	ResumeAtLines int64   `json:"resume_at_lines"`
	FirstRecordMs float64 `json:"first_record_ms"`
}

// ScanReport is the full suite.
type ScanReport struct {
	DefaultSplitSize int64              `json:"default_split_size"`
	Runs             []ScanRun          `json:"runs"`
	Restore          []ScanRestoreRun   `json:"restore"`
	Speedup          map[string]float64 `json:"speedup"`
}

// scanBatch is how many owned lines a bench decode folds into one emitted
// record, keeping the downstream volume negligible next to the scan itself.
const scanBatch = 4096

// scanVocab pads the generated lines to realistic widths.
var scanVocab = []string{
	"stream", "line", "data", "at", "rest", "in", "motion", "window",
	"watermark", "barrier", "split", "assigner", "byte", "range", "seek",
}

// writeScanFile generates the benchmark input: n lines of space-separated
// words, ~70-90 bytes each. Returns the path and the byte size.
func writeScanFile(dir string, n int64) (string, int64, error) {
	path := filepath.Join(dir, "scan-input.txt")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var total int64
	for i := int64(0); i < n; i++ {
		k, err := fmt.Fprintf(w, "rec%08d %s %s %s %s %s %s %s %s\n", i,
			scanVocab[i%15], scanVocab[(i+1)%15], scanVocab[(i+2)%15],
			scanVocab[(i+3)%15], scanVocab[(i+5)%15], scanVocab[(i+7)%15],
			scanVocab[(i+11)%15], scanVocab[(i+13)%15])
		if err != nil {
			f.Close()
			return "", 0, err
		}
		total += int64(k)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, total, f.Close()
}

// countWords counts space-separated words — the wordcount pipeline's
// per-owned-line decode work, identical in both modes.
func countWords(line []byte) int64 {
	var n int64
	inWord := false
	for _, b := range line {
		if b == ' ' {
			inWord = false
		} else if !inWord {
			inWord = true
			n++
		}
	}
	return n
}

// rrLineScan replays the pre-split design as the benchmark baseline: every
// subtask opens the file, scans and tokenizes all of it, and keeps the lines
// whose index is congruent to its subtask modulo the parallelism — exactly
// what LineFileSource did before splits.
type rrLineScan struct {
	path     string
	sub, par int
	words    bool // wordcount pipeline: tokenize owned lines

	sc    *bufio.Scanner
	f     *os.File
	idx   int64
	acc   int64 // owned lines (or words) since the last emitted record
	batch int64
	done  bool
	err   error
}

func (r *rrLineScan) Next() (dataflow.Record, bool) {
	if r.err != nil || r.done {
		return dataflow.Record{}, false
	}
	if r.f == nil {
		f, err := os.Open(r.path)
		if err != nil {
			r.err = err
			return dataflow.Record{}, false
		}
		r.f = f
		r.sc = bufio.NewScanner(f)
		r.sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	}
	for r.sc.Scan() {
		idx := r.idx
		r.idx++
		if idx%int64(r.par) != int64(r.sub) {
			continue
		}
		if r.words {
			r.acc += countWords(r.sc.Bytes())
		} else {
			r.acc++
		}
		r.batch++
		if r.batch >= scanBatch {
			rec := dataflow.Data(idx, 0, float64(r.acc))
			r.acc, r.batch = 0, 0
			return rec, true
		}
	}
	r.err = r.sc.Err()
	r.f.Close()
	r.f = nil
	r.done = true
	if r.err == nil && r.acc > 0 {
		rec := dataflow.Data(r.idx, 0, float64(r.acc))
		r.acc, r.batch = 0, 0
		return rec, true
	}
	return dataflow.Record{}, false
}

func (r *rrLineScan) Snapshot() ([]byte, error) { return []byte{0}, nil }
func (r *rrLineScan) Restore([]byte) error      { return nil }
func (r *rrLineScan) Err() error                { return r.err }

// scanFactory builds the split-mode source: the shared plan assigns
// byte-range splits dynamically, and the per-subtask decode folds owned
// lines (or their words) into one record per scanBatch.
func scanFactory(path string, splitSize int64, words bool) dataflow.SourceFactory {
	var plan *dataflow.ScanPlan
	return func(sub, par int) dataflow.SourceFunc {
		if sub == 0 || plan == nil {
			plan = &dataflow.ScanPlan{Inputs: []string{path}, SplitSize: splitSize}
		}
		var acc, batch int64
		decode := func(line []byte, off int64) (dataflow.Record, bool, error) {
			if words {
				acc += countWords(line)
			} else {
				acc++
			}
			batch++
			if batch >= scanBatch {
				rec := dataflow.Data(off, 0, float64(acc))
				acc, batch = 0, 0
				return rec, true, nil
			}
			return dataflow.Record{}, false, nil
		}
		return &dataflow.SplitScanSource{Plan: plan, Subtask: sub, Parallelism: par,
			Reader: &dataflow.LineReader{Decode: decode}}
	}
}

// runScanJob drains one scan pipeline through the engine and returns the
// elapsed seconds.
func runScanJob(factory dataflow.SourceFactory, par int) (float64, error) {
	g := dataflow.NewGraph("scan-bench")
	src := g.AddSource("scan", par, factory)
	sink := &dataflow.CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), dataflow.Edge{From: src, Part: dataflow.Rebalance})
	start := time.Now()
	if err := dataflow.NewJob(g).Run(context.Background()); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// scanOnce measures one configuration.
func scanOnce(pipeline, mode, path string, lines, size, splitSize int64, par int) (ScanRun, error) {
	words := pipeline == "wordcount"
	var factory dataflow.SourceFactory
	if mode == "roundrobin" {
		factory = func(sub, parallelism int) dataflow.SourceFunc {
			return &rrLineScan{path: path, sub: sub, par: parallelism, words: words}
		}
	} else {
		factory = scanFactory(path, splitSize, words)
	}
	el, err := runScanJob(factory, par)
	if err != nil {
		return ScanRun{}, fmt.Errorf("%s/%s p=%d: %w", pipeline, mode, par, err)
	}
	run := ScanRun{
		Pipeline: pipeline, Mode: mode, Parallelism: par,
		Lines: lines, Bytes: size, Seconds: el,
		LinesPerSec: float64(lines) / el,
		MBPerSec:    float64(size) / el / (1 << 20),
	}
	if mode == "splits" {
		run.SplitSize = splitSize
	}
	return run, nil
}

// scanRestore measures seek-based split restore at a resume position ~7/8
// into the file: the time from Restore to the first record.
func scanRestore(path string, lines, size int64) ([]ScanRestoreRun, error) {
	keepAll := func(line []byte, off int64) (dataflow.Record, bool, error) {
		return dataflow.Data(off, 0, 1.0), true, nil
	}
	mk := func() *dataflow.SplitScanSource {
		return &dataflow.SplitScanSource{
			Plan:    &dataflow.ScanPlan{Inputs: []string{path}, SplitSize: size/8 + 1},
			Subtask: 0, Parallelism: 1, Reader: &dataflow.LineReader{Decode: keepAll},
		}
	}
	resumeAt := lines * 7 / 8

	// Consume 7/8 of the records, snapshot, restore fresh.
	src := mk()
	for i := int64(0); i < resumeAt; i++ {
		if _, ok := src.Next(); !ok {
			return nil, fmt.Errorf("scan restore bench: input ended at %d lines", i)
		}
	}
	blob, err := src.Snapshot()
	if err != nil {
		return nil, err
	}
	seek := mk()
	t0 := time.Now()
	if err := seek.Restore(blob); err != nil {
		return nil, err
	}
	if _, ok := seek.Next(); !ok {
		return nil, fmt.Errorf("seek restore emitted nothing")
	}
	seekMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	return []ScanRestoreRun{
		{Mode: "seek", FileBytes: size, ResumeAtLines: resumeAt, FirstRecordMs: seekMs},
	}, nil
}

// Scan runs the scan benchmark suite.
func Scan(quick bool) (*ScanReport, error) {
	n := int64(800_000)
	if quick {
		n = 120_000
	}
	dir, err := os.MkdirTemp("", "streamline-scan")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path, size, err := writeScanFile(dir, n)
	if err != nil {
		return nil, err
	}

	rep := &ScanReport{
		DefaultSplitSize: dataflow.DefaultSplitSize,
		Speedup:          map[string]float64{},
	}
	base := map[string]float64{}
	record := func(run ScanRun, err error) error {
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, run)
		key := fmt.Sprintf("%s_p%d", run.Pipeline, run.Parallelism)
		if run.Mode == "roundrobin" {
			base[key] = run.LinesPerSec
		} else if run.SplitSize == dataflow.DefaultSplitSize {
			if b := base[key]; b > 0 {
				rep.Speedup[key] = run.LinesPerSec / b
			}
		}
		return nil
	}
	for _, par := range []int{1, 2, 4} {
		if err := record(scanOnce("scan", "roundrobin", path, n, size, 0, par)); err != nil {
			return nil, err
		}
		if err := record(scanOnce("scan", "splits", path, n, size, dataflow.DefaultSplitSize, par)); err != nil {
			return nil, err
		}
	}
	// Split-size sweep at the headline parallelism.
	for _, ss := range []int64{256 << 10, 1 << 20} {
		if err := record(scanOnce("scan", "splits", path, n, size, ss, 4)); err != nil {
			return nil, err
		}
	}
	// The wordcount pipeline: decode work on every owned line in both modes.
	for _, mode := range []string{"roundrobin", "splits"} {
		ss := int64(0)
		if mode == "splits" {
			ss = dataflow.DefaultSplitSize
		}
		if err := record(scanOnce("wordcount", mode, path, n, size, ss, 4)); err != nil {
			return nil, err
		}
	}

	restore, err := scanRestore(path, n, size)
	if err != nil {
		return nil, err
	}
	rep.Restore = restore
	return rep, nil
}

// Table renders the report in the experiment-table format.
func (r *ScanReport) Table() *Table {
	t := &Table{
		ID:     "SCAN",
		Title:  "splittable at-rest scan: byte-range splits vs round-robin full-file scans",
		Claim:  "history replay scales with workers (H-STREAM), restore seeks instead of re-scanning",
		Header: []string{"pipeline", "mode", "par", "split size", "runtime", "lines/sec", "MB/sec"},
	}
	for _, run := range r.Runs {
		ss := "-"
		if run.SplitSize > 0 {
			ss = fmtCount(float64(run.SplitSize))
		}
		t.Add(run.Pipeline, run.Mode, fmt.Sprintf("%d", run.Parallelism), ss,
			fmt.Sprintf("%.3fs", run.Seconds), fmtRate(run.LinesPerSec),
			fmt.Sprintf("%.0f", run.MBPerSec))
	}
	for key, s := range r.Speedup {
		t.Note("%s: %.2fx lines/sec with splits (default size) over round-robin", key, s)
	}
	for _, rr := range r.Restore {
		t.Note("restore %s: first record after %.2fms (resume at line %d of a %s-byte file)",
			rr.Mode, rr.FirstRecordMs, rr.ResumeAtLines, fmtCount(float64(rr.FileBytes)))
	}
	return t
}

// WriteJSON records the report (the perf trajectory file BENCH_scan.json).
func (r *ScanReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
