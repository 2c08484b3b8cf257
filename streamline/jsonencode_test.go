package streamline

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// The encode side has the same oracle: json.Marshal. The entry point must
// write its bytes, or return its error with the buffer as it was; the plan
// may refuse a value, but what it writes must be json.Marshal's bytes for a
// value json.Marshal accepts.

// plainEvent is flatEvent without the omitempty: a type the plan encodes.
type plainEvent struct {
	Ts   int64   `json:"ts"`
	Key  uint64  `json:"k"`
	Val  float64 `json:"v"`
	F32  float32 `json:"f32"`
	Name string  `json:"name"`
	Ok   bool    `json:"ok"`
}

// encodePlan is the plan newJSONEncoder[T] encodes with, or nil.
func encodePlan[T any]() *jsonPlan {
	if p := compileJSONPlan(reflect.TypeFor[T]()); p != nil && !p.decodeOnly {
		return p
	}
	return nil
}

// checkJSONEncode runs one value through json.Marshal, the plan and the
// entry point. It reports whether the plan wrote the value.
func checkJSONEncode[T any](t testing.TB, v T) bool {
	t.Helper()
	want, wantErr := json.Marshal(v)
	const prefix = "prefix:"
	got, err := newJSONEncoder[T]()([]byte(prefix), v)
	if wantErr == nil {
		want = append([]byte(prefix), want...)
	} else {
		want = []byte(prefix)
	}
	if errText(err) != errText(wantErr) || string(got) != string(want) {
		t.Errorf("%T %+v: encode = %q, %v; encoding/json = %q, %v", v, v, got, err, want, wantErr)
	}
	plan := encodePlan[T]()
	if plan == nil {
		return false
	}
	fast, ok := plan.encode(nil, unsafe.Pointer(&v))
	if ok && (wantErr != nil || prefix+string(fast) != string(want)) {
		t.Errorf("%T %+v: plan wrote %q; encoding/json = %q, %v", v, v, fast, want, wantErr)
	}
	return ok
}

// encodeFloats sit on both sides of encoding/json's %f/%e switch at both
// widths, on its exponent clean-up, and on the integer path's limits.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, 1e-7, -3e-9, 1e-10,
	1e20, 1e21, 999999999999999999999, -1.5e21, 1e100, 5e-324, math.MaxFloat64,
	math.SmallestNonzeroFloat32, math.MaxFloat32, 16777217, 123456789.125,
	// integers on both sides of where the integer path stops
	37, 1 << 24, 1<<24 - 1, 1<<24 + 2, 1 << 53, 1<<53 - 1, 1<<53 + 2, 1e15, 1 << 62, 1 << 63,
}

func TestJSONEncodeMatchesEncodingJSON(t *testing.T) {
	for _, f := range encodeFloats {
		for _, v := range []float64{f, -f} {
			if !checkJSONEncode(t, v) {
				t.Errorf("plan refused float64 %v", v)
			}
			if !checkJSONEncode(t, float32(v)) && !math.IsInf(float64(float32(v)), 0) {
				t.Errorf("plan refused float32 %v", float32(v))
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if checkJSONEncode(t, f) || checkJSONEncode(t, plainEvent{Val: f}) || checkJSONEncode(t, widthsEvent{F32: float32(f)}) {
			t.Errorf("plan wrote %v", f)
		}
	}
	for _, s := range []string{"", "abc", "é ünï 🎉", "�", "a~\x7fb", "!#$%()*+-./:;=?@[]^_{|}"} {
		if !checkJSONEncode(t, s) || !checkJSONEncode(t, plainEvent{Name: s}) {
			t.Errorf("plan refused %q", s)
		}
	}
	for _, s := range []string{`a"b`, `a\b`, "a\nb", "\x00", "\x1f", "<", ">", "&", " ", " ", "bad\xff", "\xe2\x80"} {
		if checkJSONEncode(t, s) || checkJSONEncode(t, plainEvent{Name: s}) {
			t.Errorf("plan wrote %q", s)
		}
	}
	for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt8, math.MinInt8, math.MaxInt32, math.MinInt32} {
		u := uint64(n)
		checkJSONEncode(t, widthsEvent{I8: int8(n), I16: int16(n), I32: int32(n), I64: n, I: int(n),
			U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u, U: uint(u)})
	}
	var nested nestedEvent
	nested.ID, nested.Pos.X, nested.Pos.Y, nested.Tag, nested.hidden = -3, 1e-9, 2.5, "t", []int{1}
	for _, ok := range []bool{
		checkJSONEncode(t, true), checkJSONEncode(t, false), checkJSONEncode(t, int8(-5)),
		checkJSONEncode(t, uint16(7)), checkJSONEncode(t, time.Duration(1500)), checkJSONEncode(t, struct{}{}),
		checkJSONEncode(t, nested), checkJSONEncode(t, plainEvent{Ts: 1, Key: 2, Val: 3.5, F32: 0.1, Name: "n", Ok: true}),
	} {
		if !ok {
			t.Error("plan refused a value it encodes")
		}
	}
}

type (
	valueMarshaler struct{ N int }
	ptrMarshaler   struct{ N int }
	textMarshaler  int
)

func (v valueMarshaler) MarshalJSON() ([]byte, error) { return []byte(`"v"`), nil }
func (p *ptrMarshaler) MarshalJSON() ([]byte, error)  { return []byte(`"p"`), nil }
func (textMarshaler) MarshalText() ([]byte, error)    { return []byte("t"), nil }

// checkNoEncodePlan asserts that T encodes through encoding/json alone (its
// decode plan, if any, is not used to encode), and that the entry point
// still writes encoding/json's bytes.
func checkNoEncodePlan[T any](t *testing.T, values ...T) {
	t.Helper()
	if encodePlan[T]() != nil {
		t.Errorf("%s has an encode plan, want none", reflect.TypeFor[T]())
	}
	for _, v := range values {
		checkJSONEncode(t, v)
	}
}

// One type per reason an encode plan is withheld beyond the decode side's.
func TestJSONEncodeNoPlan(t *testing.T) {
	checkNoEncodePlan(t, flatEvent{}, flatEvent{Ok: true})
	checkNoEncodePlan(t, struct {
		N int `json:"n,omitzero"`
	}{})
	checkNoEncodePlan(t, valueMarshaler{1}, valueMarshaler{})
	checkNoEncodePlan(t, ptrMarshaler{1})
	checkNoEncodePlan(t, struct{ P ptrMarshaler }{})
	checkNoEncodePlan(t, struct{ L textMarshaler }{3})
	checkNoEncodePlan(t, textMarshaler(2))
	checkNoEncodePlan(t, struct {
		N int `json:"a<b"`
	}{1}, struct {
		N int `json:"a<b"`
	}{})
	checkNoEncodePlan(t, struct {
		N int `json:"a&b"`
	}{1})
	checkNoEncodePlan(t, map[string]float64{"b": 1, "a": math.Inf(1)}, map[string]float64{"z": 1, "a": 2})
	checkNoEncodePlan(t, time.Unix(1, 0).UTC())
	checkNoEncodePlan(t, struct{ S []int }{[]int{1}})
}

// The plan writes into the caller's buffer: a warmed encode of a boxed
// value, as Persist's records hold it, allocates nothing.
func TestJSONEncodeAllocs(t *testing.T) {
	encode := newJSONEncoder[plainEvent]()
	var v any = plainEvent{Ts: 1_700_000_000_000, Key: 42, Val: 3.25, F32: 1e-7, Name: "sensor-17", Ok: true}
	var buf []byte
	got := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = encode(buf[:0], v); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per encode, want 0", got)
	}
}

// FuzzJSONEncode: for every value, the entry point writes json.Marshal's
// bytes or returns its error, and what the plan writes is json.Marshal's
// bytes — over the flat (no plan: omitempty), plain flat, nested, widths and
// float64 types.
func FuzzJSONEncode(f *testing.F) {
	for i, x := range encodeFloats {
		f.Add(int64(i)-3, uint64(math.MaxUint64)-uint64(i), x, float32(x), []string{"a", "<b>", "é ", "\xff"}[i%4], i%2 == 0)
	}
	f.Add(int64(math.MinInt64), uint64(0), math.NaN(), float32(math.Inf(-1)), `q"\`, true)
	f.Fuzz(func(t *testing.T, i int64, u uint64, x float64, y float32, s string, b bool) {
		checkJSONEncode(t, flatEvent{Ts: i, Key: u, Val: x, Name: s, Ok: b})
		checkJSONEncode(t, plainEvent{Ts: i, Key: u, Val: x, F32: y, Name: s, Ok: b})
		var n nestedEvent
		n.ID, n.Pos.X, n.Pos.Y, n.Tag = i, x, float64(y), s
		checkJSONEncode(t, n)
		checkJSONEncode(t, widthsEvent{I8: int8(i), I16: int16(i >> 8), I32: int32(i >> 16), I64: i, I: int(i),
			U8: uint8(u), U16: uint16(u >> 8), U32: uint32(u >> 16), U64: u, U: uint(u), F32: y, F64: x})
		checkJSONEncode(t, x)
		checkJSONEncode(t, s)
	})
}
