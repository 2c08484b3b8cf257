package dataflow

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	goruntime "runtime"
	"strconv"
	"sync"
	"testing"
)

type boxEmpty struct{}

type boxPtrStruct struct{ p *int }

// checkBoxed holds Box(v) to any(v): type assertion, reflect, fmt and gob,
// and for comparable types == and map keys.
func checkBoxed[T any](t *testing.T, name string, v T, comparable bool) {
	t.Helper()
	var b Boxer[T]
	// Box a few values first so v does not sit at a slab's start.
	for range 3 {
		b.Box(v)
	}
	got, want := b.Box(v), any(v)
	tv, ok := got.(T)
	if wv, wok := want.(T); ok != wok || !reflect.DeepEqual(tv, wv) {
		t.Errorf("%s: Box(v).(T) = %v, %v, want %v, %v", name, tv, ok, wv, wok)
	}
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		t.Errorf("%s: reflect.TypeOf = %v, want %v", name, reflect.TypeOf(got), reflect.TypeOf(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reflect.DeepEqual(Box(v), any(v)) is false", name)
	}
	for _, verb := range []string{"%v", "%+v", "%#v", "%T"} {
		if g, w := fmt.Sprintf(verb, got), fmt.Sprintf(verb, want); g != w {
			t.Errorf("%s: %s prints %q, want %q", name, verb, g, w)
		}
	}
	gobOf := func(x any) string {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&x); err != nil {
			return "error: " + err.Error()
		}
		return buf.String()
	}
	if g, w := gobOf(got), gobOf(want); g != w {
		t.Errorf("%s: gob encodes %q, want %q", name, g, w)
	}
	if !comparable {
		return
	}
	if got != want {
		t.Errorf("%s: Box(v) != any(v)", name)
	}
	m := map[any]int{want: 1}
	if m[got] != 1 {
		t.Errorf("%s: Box(v) misses any(v)'s map entry", name)
	}
	m[got] = 2
	if len(m) != 1 {
		t.Errorf("%s: Box(v) and any(v) are two map keys", name)
	}
}

func TestBoxerBehavesAsAny(t *testing.T) {
	gob.Register(WindowResult{})
	gob.Register(boxEmpty{})
	x := 7
	checkBoxed(t, "float64", 2.5, true)
	checkBoxed(t, "int", 1<<40, true)
	checkBoxed(t, "string", "héllo", true)
	checkBoxed(t, "WindowResult", WindowResult{QueryID: 1, Start: 2, End: 3, Value: 4.5, Count: 6}, true)
	checkBoxed(t, "zero-size struct", boxEmpty{}, true)
	checkBoxed(t, "pointer", &x, true)
	checkBoxed(t, "map", map[string]int{"a": 1}, false)
	checkBoxed(t, "single-pointer struct", boxPtrStruct{p: &x}, true)
	checkBoxed[error](t, "interface type", fmt.Errorf("boom"), true)
	checkBoxed[any](t, "nil interface", nil, true)
}

// A slab is one allocation per DefaultBatchSize values; a type stored in the
// interface word itself allocates nothing.
func TestBoxerAllocatesOncePerSlab(t *testing.T) {
	var b Boxer[float64]
	var sink any
	if n := testing.AllocsPerRun(100, func() {
		for i := range DefaultBatchSize {
			sink = b.Box(float64(i) + 0.5)
		}
	}); n != 1 {
		t.Errorf("%d boxes allocated %v times, want 1", DefaultBatchSize, n)
	}
	var p Boxer[*int]
	x := 1
	if n := testing.AllocsPerRun(100, func() { sink = p.Box(&x) }); n != 0 {
		t.Errorf("boxing a pointer allocated %v times, want 0", n)
	}
	_ = sink
}

// Boxed values live as long as they are referenced: a collection, and the
// boxing of many later values into fresh slabs, leave them intact.
func TestBoxerValuesSurviveGC(t *testing.T) {
	var fb Boxer[float64]
	var sb Boxer[string]
	const n = 100
	floats := make([]any, n)
	strs := make([]any, n)
	for i := range n {
		floats[i] = fb.Box(float64(i) * 1.5)
		strs[i] = sb.Box("v" + strconv.Itoa(i*1000))
	}
	goruntime.GC()
	for i := range 10_000 {
		fb.Box(float64(-i))
		sb.Box(strconv.Itoa(-i))
	}
	goruntime.GC()
	for i := range n {
		if floats[i] != float64(i)*1.5 {
			t.Fatalf("float %d = %v after GC", i, floats[i])
		}
		if strs[i] != "v"+strconv.Itoa(i*1000) {
			t.Fatalf("string %d = %v after GC", i, strs[i])
		}
	}
}

// Boxed values cross goroutines like any(v): one goroutine boxes into a slab
// while another reads what it boxed earlier from the same slab. Under -race
// (which turns checkptr on) this is the boxer's memory-model check.
func TestBoxerValuesReadFromAnotherGoroutine(t *testing.T) {
	var b Boxer[WindowResult]
	ch := make(chan any, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for v := range ch {
			if w := v.(WindowResult); w.QueryID != i || w.Value != float64(i)/2 {
				t.Errorf("value %d read as %+v", i, w)
				return
			}
			i++
		}
	}()
	for i := range 1000 {
		ch <- b.Box(WindowResult{QueryID: i, Value: float64(i) / 2})
	}
	close(ch)
	wg.Wait()
}
