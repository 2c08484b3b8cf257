package dataflow

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/state"
	"repro/internal/window"
)

// fuzzQuerySets are the operators FuzzWindowStateDecode restores into: one,
// two and four function stores on the slice timeline, and a session window,
// whose state is one cutty.Engine per key (the engine layout). The first is
// the query set of internal/core's checkpoint fixture.
var fuzzQuerySets = [][]WindowQuery{
	{{Spec: window.Tumbling(100), Fn: agg.SumF64()}, {Spec: window.Sliding(200, 50), Fn: agg.SumF64()}},
	{{Spec: window.Tumbling(10), Fn: agg.SumF64()}, {Spec: window.Tumbling(10), Fn: agg.MaxF64()}},
	windowsQueries(100),
	{{Spec: window.Session(30), Fn: agg.SumF64()}, {Spec: window.Tumbling(50), Fn: agg.MaxF64()}},
}

// FuzzWindowStateDecode restores a window operator from an arbitrary key-group
// blob. Seeds are real blobs — the operator's own, the blobs of the
// checkpoint fixture — and a key holding an empty reorder buffer, which the
// format allows. Whatever the bytes, the restore returns an error or an
// operator that runs: it never panics, now or at the next fire, and never
// allocates beyond a bound proportional to the input plus what opening the
// operator costs with no state at all.
func FuzzWindowStateDecode(f *testing.F) {
	for set, queries := range fuzzQuerySets {
		op := NewWindowOp(queries...)().(*WindowOp)
		if err := op.Open(&OpContext{}); err != nil {
			f.Fatal(err)
		}
		for _, st := range oracleSchedule(rand.New(rand.NewSource(1)))[:120] {
			if st.run != nil {
				op.OnBatch(append([]Record{}, st.run...), nil)
				continue
			}
			op.OnWatermark(st.wm, &capCollector{})
		}
		groups := captureGroups(f, op)
		for g := 0; g < 8; g++ {
			f.Add(uint8(set), uint8(g), groups[g])
		}
	}
	backend, err := state.NewFileBackend("../core/testdata/v2_snapshot")
	if err != nil {
		f.Fatal(err)
	}
	snap, ok, err := backend.Latest()
	if err != nil || !ok {
		f.Fatalf("checkpoint fixture: found %v, err %v", ok, err)
	}
	fixtureSeeds := 0
	for gk, blob := range snap.Groups {
		op := NewWindowOp(fuzzQuerySets[0]...)().(*WindowOp)
		if op.Open(&OpContext{RestoreGroups: map[int][]byte{gk.KeyGroup: blob}}) == nil && op.liveKeys > 0 {
			f.Add(uint8(0), uint8(gk.KeyGroup), blob)
			fixtureSeeds++
		}
	}
	if fixtureSeeds == 0 {
		f.Fatal("no window state in the checkpoint fixture")
	}
	group, blob := emptyBufferBlob(f)
	f.Add(uint8(0), uint8(group), blob)

	f.Fuzz(func(t *testing.T, set, group uint8, blob []byte) {
		op := NewWindowOp(fuzzQuerySets[int(set)%len(fuzzQuerySets)]...)().(*WindowOp)
		g := int(group) % state.DefaultNumKeyGroups
		t0 := time.Now()
		defer func() {
			if d := time.Since(t0); d > 2*time.Second {
				t.Fatalf("slow input: %v", d)
			}
		}()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := op.Open(&OpContext{RestoreGroups: map[int][]byte{g: blob}})
		goruntime.ReadMemStats(&after)
		// Opening the operator with no state allocates about 9 KB.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+1024*len(blob)); got > bound {
			t.Fatalf("restoring %d bytes allocated %d, bound %d", len(blob), got, bound)
		}
		if err != nil {
			return
		}
		out := &capCollector{}
		op.OnBatch([]Record{Data(40, 1, 1.0), Data(1<<40, 2, 1.0)}, nil)
		op.OnWatermark(50, out)
		op.OnWatermark(math.MaxInt64, out)
	})
}

var writeStateSeeds = flag.Bool("write-state-seeds", false, "rewrite internal/state's fuzz seeds of engine-owned state")

// TestStateFuzzSeedsAreCurrent holds the seeds of internal/state's
// FuzzKeyedGroupDecode and FuzzCheckpointFile that package state cannot
// build itself to what this code writes: a session window's key group (one
// cutty.Engine per key), a join's, and a checkpoint file holding both beside
// a generator's and a split scan's source entries. After a change to any of
// those encodings, -write-state-seeds rewrites them.
func TestStateFuzzSeedsAreCurrent(t *testing.T) {
	largestGroup := func(op Operator) (int, []byte) {
		groups := captureGroups(t, op)
		g := 0
		for i := range groups {
			if len(groups[i]) > len(groups[g]) || len(groups[i]) == len(groups[g]) && i < g {
				g = i
			}
		}
		return g, groups[g]
	}
	session := NewWindowOp(fuzzQuerySets[3]...)().(*WindowOp)
	join := NewWindowJoinOp(50)().(*WindowJoinOp)
	for _, op := range []Operator{session, join} {
		if err := op.Open(&OpContext{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range oracleSchedule(rand.New(rand.NewSource(1)))[:120] {
		if st.run != nil {
			session.OnBatch(append([]Record{}, st.run...), nil)
			join.OnBatchEdge(i%2, append([]Record{}, st.run...), nil)
			continue
		}
		session.OnWatermark(st.wm, &capCollector{})
	}
	sg, sessionBlob := largestGroup(session)
	jg, joinBlob := largestGroup(join)

	gen := &GenSource{N: 40, Gen: func(i int64) Record { return Data(i, uint64(i), 1.0) }}
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{{path: "seg-a", recs: 20}}}
	scan := &SplitScanSource{Plan: fakePlan(in, 60), Subtask: 0, Parallelism: 1, Reader: &fakeSplitReader{in: in}}
	snap := state.NewSnapshot(1)
	snap.NumKeyGroups = state.DefaultNumKeyGroups
	for i, src := range []SourceFunc{gen, scan} {
		for n := 0; n < 7; n++ {
			src.Next()
		}
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Put(state.SubtaskKey{OperatorID: 0, Subtask: i}, blob)
	}
	snap.PutGroup(state.GroupKey{OperatorID: 1, KeyGroup: sg}, sessionBlob)
	snap.PutGroup(state.GroupKey{OperatorID: 2, KeyGroup: jg}, joinBlob)
	tmp := t.TempDir()
	backend, err := state.NewFileBackend(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Persist(snap); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(tmp, "chk-*.ckpt"))
	file, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join("..", "state", "testdata", "fuzz")
	for name, content := range map[string]string{
		"FuzzCheckpointFile/engine-state":     fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", file),
		"FuzzKeyedGroupDecode/session-window": fmt.Sprintf("go test fuzz v1\nuint8(%d)\n[]byte(%q)\n", sg, sessionBlob),
		"FuzzKeyedGroupDecode/window-join":    fmt.Sprintf("go test fuzz v1\nuint8(%d)\n[]byte(%q)\n", jg, joinBlob),
	} {
		path := filepath.Join(dir, name)
		if *writeStateSeeds {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || !bytes.Equal(have, []byte(content)) {
			t.Errorf("%s is not what this code writes (%v); rerun with -write-state-seeds", path, err)
		}
	}
}
