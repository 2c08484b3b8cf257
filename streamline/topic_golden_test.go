package streamline_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/streamline"
)

var writeTopics = flag.Bool("write-topics", false, "rewrite testdata/topics.golden from the current Persist")

// The topic golden pins the bytes Persist writes: every .seg and .idx file
// of a store that Persist jobs filled from fixed inputs. Segments and index
// entries are small, so rolls and index entries land inside the sink's runs,
// and the payloads reach every branch of the JSON encoding — a flat struct,
// a nested one, strings that need escaping, floats on both sides of the
// exponent switch at both widths, a MarshalJSON type and a map.

type goldenFlat struct {
	Ts   int64   `json:"ts"`
	Key  uint64  `json:"k"`
	Val  float64 `json:"v"`
	F32  float32 `json:"f32"`
	Name string  `json:"name"`
	Ok   bool    `json:"ok"`
	I8   int8
	U16  uint16
}

type goldenNested struct {
	ID  int64 `json:"id"`
	Pos struct {
		X, Y float64
	} `json:"pos"`
	Meta struct {
		Tag   string
		Count uint32
		Inner struct{ On bool }
	} `json:"meta"`
}

// goldenCelsius marshals itself: the whole reading goes through its method.
type goldenCelsius float64

func (c goldenCelsius) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`"%.2fC"`, float64(c))), nil
}

type goldenReading struct {
	At   int64
	Temp goldenCelsius
}

var goldenStrings = []string{
	"plain", `quo"te`, `back\slash`, "tab\tnl\n", "<html>&amp;", "ctl\x01\x1f",
	"line\u2028sep\u2029", "bad\xffutf8", "ünïcödé", "emoji 🎉", "",
}

var goldenFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.99999e-7, 1e-7, -3e-9, 1e-300,
	1e20, 1e21, -1.5e21, 1.5e300, 5e-324, 123456789.125, 1e-320,
}

var goldenFloat32s = []float32{
	0, 0.1, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 3.4028235e38, 1.4e-45, -16777217,
}

func goldenFlatAt(i int64) goldenFlat {
	return goldenFlat{
		Ts:   1_700_000_000_000 + i,
		Key:  uint64(i) * 0x9e3779b97f4a7c15,
		Val:  goldenFloats[i%int64(len(goldenFloats))] * float64(1+i%3),
		F32:  goldenFloat32s[i%int64(len(goldenFloat32s))],
		Name: goldenStrings[i%int64(len(goldenStrings))],
		Ok:   i%2 == 0,
		I8:   int8(i),
		U16:  uint16(i * 613),
	}
}

func goldenNestedAt(i int64) goldenNested {
	var v goldenNested
	v.ID = -i
	v.Pos.X = goldenFloats[i%int64(len(goldenFloats))]
	v.Pos.Y = float64(i) / 7
	v.Meta.Tag = goldenStrings[(i/2)%int64(len(goldenStrings))]
	v.Meta.Count = uint32(i * 7919)
	v.Meta.Inner.On = i%3 == 0
	return v
}

// persistGenerated runs one Persist job over n generated records and returns
// Execute's error.
func persistGenerated[T any](store *streamline.TopicStore, topic string, n int64, gen func(i int64) T) error {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "gen", streamline.Generator(n, func(_, _ int, i int64) streamline.Keyed[T] {
		return streamline.Keyed[T]{Ts: i, Key: uint64(i % 5), Value: gen(i)}
	}), streamline.WithSourceParallelism(1))
	streamline.Persist(src, store, topic)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return env.Execute(ctx)
}

// renderTopicFiles lists every file of a topic directory in name order with
// its size and SHA-256.
func renderTopicFiles(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", e.Name(), len(data), sha256.Sum256(data))
	}
	return b.String()
}

func openGoldenStore(t *testing.T) *streamline.TopicStore {
	return openTopicStore(t, streamline.WithSegmentBytes(2<<10),
		func(o *seglog.Options) { o.IndexEvery = 300 })
}

func TestTopicGolden(t *testing.T) {
	store := openGoldenStore(t)
	jobs := []struct {
		topic string
		run   func() error
	}{
		{"flat", func() error { return persistGenerated(store, "flat", 300, goldenFlatAt) }},
		{"nested", func() error { return persistGenerated(store, "nested", 200, goldenNestedAt) }},
		{"marshaler", func() error {
			return persistGenerated(store, "marshaler", 150, func(i int64) goldenReading {
				return goldenReading{At: i, Temp: goldenCelsius(float64(i)/3 - 20)}
			})
		}},
		{"map", func() error {
			return persistGenerated(store, "map", 150, func(i int64) map[string]float64 {
				return map[string]float64{"z": float64(i), "a<b": goldenFloats[i%int64(len(goldenFloats))], fmt.Sprint(i % 4): 1}
			})
		}},
		{"scalar", func() error {
			return persistGenerated(store, "scalar", 200, func(i int64) float64 { return goldenFloats[i%int64(len(goldenFloats))] * float64(i) })
		}},
	}
	var got strings.Builder
	for _, j := range jobs {
		if err := j.run(); err != nil {
			t.Fatalf("persist %s: %v", j.topic, err)
		}
		fmt.Fprintf(&got, "== topic %s\n%s", j.topic, renderTopicFiles(t, filepath.Join(store.Dir(), j.topic)))
	}
	path := filepath.Join("testdata", "topics.golden")
	if *writeTopics {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -write-topics to create it)", err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			g, w := "", ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("topic files differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}

// A record that cannot be encoded stops the sink inside its run: the records
// before it are in the topic, none after, and the job fails with
// encoding/json's error.
func TestPersistEncodeFailureMidRun(t *testing.T) {
	store := openGoldenStore(t)
	const k = 37
	err := persistGenerated(store, "nan", 100, func(i int64) goldenFlat {
		v := goldenFlatAt(i)
		if i == k {
			v.Val = math.NaN()
		}
		return v
	})
	const want = `persist "nan": encode: json: unsupported value: NaN`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Execute = %v, want an error containing %q", err, want)
	}
	tp, terr := store.Store().Topic("nan")
	if terr != nil {
		t.Fatal(terr)
	}
	if n := tp.NextOffset(); n != k {
		t.Fatalf("topic holds %d records after the failure, want %d", n, k)
	}
	// They are the first k inputs, in order.
	r := streamline.Topic[goldenFlat](store, "nan").Open(0, 1)
	var got []int64
	for {
		rec, st := r.Next()
		if st == streamline.ReadEnd {
			break
		}
		got = append(got, rec.Value.Ts)
	}
	for i, ts := range got {
		if ts != goldenFlatAt(int64(i)).Ts {
			t.Fatalf("record %d has ts %d, want %d", i, ts, goldenFlatAt(int64(i)).Ts)
		}
	}
	if len(got) != k {
		t.Fatalf("read back %d records, want %d", len(got), k)
	}
}
