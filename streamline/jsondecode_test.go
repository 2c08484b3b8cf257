package streamline

import (
	"encoding/json"
	"fmt"
	"math/big"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// encoding/json is the oracle: every payload goes through json.Unmarshal,
// through the plan alone and through the decode entry point. The entry point
// must agree with the oracle on value and error text for every payload; the
// plan may refuse, but what it accepts must be the oracle's value with a nil
// error — and the table pins which side of that line each payload is on.

type flatEvent struct {
	Ts   int64   `json:"ts"`
	Key  uint64  `json:"k"`
	Val  float64 `json:"v"`
	Name string  `json:"name"`
	Ok   bool    `json:"ok,omitempty"`
}

type widthsEvent struct {
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	I   int
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	U   uint
	F32 float32
	F64 float64
}

type nestedEvent struct {
	ID  int64 `json:"id"`
	Pos struct {
		X, Y float64
	} `json:"pos"`
	Tag    string `json:"tag"`
	hidden []int  // unexported: encoding/json never sees it
}

type jsonCase struct {
	payload string
	fast    bool // the plan accepts the payload
}

var flatCases = []jsonCase{
	{`{"ts":1,"k":2,"v":3.5,"name":"a","ok":true}`, true},
	{`{"name":"b","v":-1e-3,"ts":-7}`, true}, // any key order
	{`{}`, true},
	{" \t\r\n{ \"ts\" : 1 ,\n\"k\" : 2 } \n", true},
	// keys
	{`{"TS":1}`, false},           // case-folded match
	{`{"ts":1,"extra":2}`, false}, // unknown key, skipped by the oracle
	{`{"extra":{"a":[1,{"b":null}]},"ts":1}`, false},
	{`{"ts":1,"ts":2}`, true}, // duplicate: last wins
	{`{"ok":true,"ok":false}`, true},
	{`{"ts":1,"TS":2}`, false},
	{`{"na\u006de":"x"}`, false}, // escaped key
	{`{"":1}`, false},
	{`{ts:1}`, false},
	// null, for each kind and at the top
	{`{"ts":null}`, false},
	{`{"k":null}`, false},
	{`{"v":null}`, false},
	{`{"name":null}`, false},
	{`{"ok":null}`, false},
	{`{"ts":5,"name":null}`, false},
	{`null`, false},
	// strings
	{`{"name":""}`, true},
	{`{"name":"a\"b"}`, false},
	{`{"name":"\u00e9"}`, false},
	{`{"name":"é✓𝄞"}`, true},
	{"{\"name\":\"a\x7fb\"}", true},
	{"{\"name\":\"a\xffb\"}", false},       // invalid UTF-8: the oracle substitutes U+FFFD
	{"{\"name\":\"\xed\xa0\x80\"}", false}, // UTF-8-encoded surrogate
	{"{\"name\":\"\xef\xbf\xbd\"}", true},  // a literal U+FFFD is valid
	{"{\"name\":\"a\x01b\"}", false},       // control byte: syntax error
	{"{\"name\":\"a\nb\"}", false},         // raw newline: syntax error
	{"{\"n\xc3\xa9\":1}", false},           // non-ASCII key
	{`{"name":"a\\"}`, false},              // escape at the end
	{`{"name":"a\"}`, false},               // unterminated after an escape
	{`{"name":"abc`, false},                // unterminated
	{`{"name":'a'}`, false},                // wrong quotes
	{`{"name":"a","name":"b"}`, true},
	{`{"ts":1,"name":"a","v":1,"k":x}`, false}, // refused after fields were written
	// numbers
	{`{"ts":0,"k":0,"v":0}`, true},
	{`{"ts":-0,"v":-0}`, true},
	{`{"k":-0}`, false},
	{`{"k":-1}`, false},
	{`{"ts":01}`, false},
	{`{"v":01}`, false},
	{`{"v":-01.5}`, false},
	{`{"ts":-}`, false},
	{`{"v":-}`, false},
	{`{"ts":1e3}`, false}, // a float literal into an int: type error
	{`{"ts":1.0}`, false},
	{`{"ts":1.5}`, false},
	{`{"v":1e3}`, true},
	{`{"v":1E+3}`, true},
	{`{"v":1.25e-3}`, true},
	{`{"v":0.1}`, true},
	{`{"v":123456789012345678901234567890}`, true},
	{`{"v":1e400}`, false},
	{`{"v":-1e400}`, false},
	{`{"v":1e-400}`, true}, // underflows to zero without an error
	{`{"v":1.}`, false},
	{`{"v":.5}`, false},
	{`{"v":+1}`, false},
	{`{"v":1e}`, false},
	{`{"v":1e+}`, false},
	{`{"v":0x10}`, false},
	{`{"v":1_0}`, false},
	{`{"v":Infinity}`, false},
	{`{"v":NaN}`, false},
	{`{"v":inf}`, false},
	{`{"ts":9223372036854775807}`, true},
	{`{"ts":9223372036854775808}`, false},
	{`{"ts":-9223372036854775808}`, true},
	{`{"ts":-9223372036854775809}`, false},
	{`{"k":18446744073709551615}`, true},
	{`{"k":18446744073709551616}`, false},
	{`{"k":184467440737095516150}`, false},
	{`{"k":99999999999999999999999999999999}`, false},
	// wrong value types
	{`{"ts":"1"}`, false},
	{`{"ts":true}`, false},
	{`{"ts":{}}`, false},
	{`{"ts":[1]}`, false},
	{`{"v":"1.5"}`, false},
	{`{"name":1}`, false},
	{`{"name":true}`, false},
	{`{"ok":1}`, false},
	{`{"ok":"true"}`, false},
	{`{"ok":truex}`, false},
	{`{"ok":tru}`, false},
	{`{"ok":True}`, false},
	{`[]`, false},
	{`"x"`, false},
	{`1`, false},
	{`true`, false},
	// trailing bytes and truncation
	{`{"ts":1}x`, false},
	{`{"ts":1}{}`, false},
	{`{"ts":1},`, false},
	{`{"ts":1}}`, false},
	{`{"ts":1,}`, false},
	{`{,"ts":1}`, false},
	{`{"ts":1 "k":2}`, false},
	{`{"ts" 1}`, false},
	{`{"ts":1;"k":2}`, false},
	{``, false},
	{` `, false},
	{`{`, false},
	{`{"ts"`, false},
	{`{"ts":`, false},
	{`{"ts":1`, false},
	{`{"ts":1,`, false},
	{`{"ts":1,"k"`, false},
	{"\xef\xbb\xbf{\"ts\":1}", false}, // byte-order mark
	{"{\"ts\":1}\x00", false},
	{"{\"ts\":1\v}", false}, // vertical tab is not JSON whitespace
}

var nestedCases = []jsonCase{
	{`{"id":1,"pos":{"X":1.5,"Y":-2},"tag":"t"}`, true},
	{`{"pos":{"X":1},"pos":{"Y":2}}`, true}, // a repeated object merges
	{`{"pos":{"X":1,"Y":5},"pos":{"Y":2}}`, true},
	{`{"pos":{}}`, true},
	{`{"pos":{ }, "id":3}`, true},
	{`{"pos":null}`, false},
	{`{"pos":{"x":1}}`, false},
	{`{"pos":{"X":1,"Z":2}}`, false},
	{`{"pos":[]}`, false},
	{`{"pos":1}`, false},
	{`{"pos":{"X":1}`, false},
	{`{"pos":{"X":1}}}`, false},
	{`{"pos":{"X":"1"},"id":2}`, false},
	{`{"hidden":[1]}`, false}, // unknown to both; the oracle skips it
	{`{"X":1}`, false},
}

var float64Cases = []jsonCase{
	{`1.5`, true},
	{` 2 `, true},
	{`-0`, true},
	{`1e308`, true},
	{`1e309`, false},
	{`"1"`, false},
	{`null`, false},
	{`1 2`, false},
	{`1,`, false},
	{`{}`, false},
	{``, false},
	{`-`, false},
	{`1.5x`, false},
}

// widthCases builds, for every sized integer field, the payloads at and one
// past each limit.
func widthCases() []jsonCase {
	var cases []jsonCase
	one := big.NewInt(1)
	for _, f := range []struct {
		name   string
		bits   uint
		signed bool
	}{
		{"I8", 8, true}, {"I16", 16, true}, {"I32", 32, true}, {"I64", 64, true}, {"I", uint(reflect.TypeFor[int]().Bits()), true},
		{"U8", 8, false}, {"U16", 16, false}, {"U32", 32, false}, {"U64", 64, false}, {"U", uint(reflect.TypeFor[uint]().Bits()), false},
	} {
		lo, hi := big.NewInt(0), new(big.Int).Lsh(one, f.bits)
		if f.signed {
			hi.Rsh(hi, 1)
			lo.Neg(hi)
		}
		hi.Sub(hi, one)
		add := func(v *big.Int, fast bool) {
			cases = append(cases, jsonCase{fmt.Sprintf(`{"%s":%s}`, f.name, v), fast})
		}
		add(lo, true)
		add(hi, true)
		add(new(big.Int).Sub(lo, one), false)
		add(new(big.Int).Add(hi, one), false)
	}
	return append(cases,
		jsonCase{`{"F32":3.4028235e38}`, true},
		jsonCase{`{"F32":3.5e38}`, false},
		jsonCase{`{"F32":0.1,"F64":0.1}`, true}, // rounded at the field's width
		jsonCase{`{"F32":16777217}`, true},
		jsonCase{`{"F32":1e-50}`, true},
		jsonCase{`{"I8":1.0}`, false},
		jsonCase{`{"U8":1e2}`, false},
		jsonCase{`{"I8":-128,"I8":127,"U8":255}`, true},
	)
}

// sameJSONValue compares decoded values bit for bit as far as a payload can
// tell them apart: DeepEqual, and the re-encoded form for the sign of a zero.
func sameJSONValue(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && string(ja) == string(jb)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkJSONDecode runs one payload through the oracle, the plan and the entry
// point. It reports whether the plan accepted the payload.
func checkJSONDecode[T any](t testing.TB, payload []byte) bool {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(payload, &want)

	dec := newJSONDecoder[T]()
	got, err := dec.decode(payload)
	if errText(err) != errText(wantErr) || !sameJSONValue(got, want) {
		t.Errorf("%T %q: decode = %+v, %v; encoding/json = %+v, %v", want, payload, got, err, want, wantErr)
	}
	if dec.plan == nil {
		return false
	}
	// The plan alone, on a payload with no spare capacity and hostile bytes
	// right behind it: a read past the end would change the result.
	buf := append(append(make([]byte, 0, len(payload)+8), payload...), `9"}e9"}`...)
	var fast T
	if !dec.plan.decode(buf[:len(payload):len(payload)], unsafe.Pointer(&fast)) {
		return false
	}
	if wantErr != nil || !sameJSONValue(fast, want) {
		t.Errorf("%T %q: plan accepted with %+v; encoding/json = %+v, %v", want, payload, fast, want, wantErr)
	}
	return true
}

func runJSONCases[T any](t *testing.T, cases []jsonCase) {
	t.Helper()
	if compileJSONPlan(reflect.TypeFor[T]()) == nil {
		t.Fatalf("%s has no plan", reflect.TypeFor[T]())
	}
	for _, c := range cases {
		if fast := checkJSONDecode[T](t, []byte(c.payload)); fast != c.fast {
			t.Errorf("%s %q: plan accepted = %v, want %v", reflect.TypeFor[T](), c.payload, fast, c.fast)
		}
	}
}

func TestJSONDecodeMatchesEncodingJSON(t *testing.T) {
	runJSONCases[flatEvent](t, flatCases)
	runJSONCases[nestedEvent](t, nestedCases)
	runJSONCases[widthsEvent](t, widthCases())
	runJSONCases[float64](t, float64Cases)
	runJSONCases[string](t, []jsonCase{{`"abc"`, true}, {` "é" `, true}, {`"a\nb"`, false}, {`abc`, false}, {`1`, false}, {`"a""b"`, false}})
	runJSONCases[bool](t, []jsonCase{{`true`, true}, {` false `, true}, {`truex`, false}, {`tru`, false}, {`fals`, false}, {`0`, false}})
	runJSONCases[int](t, []jsonCase{{`42`, true}, {`-7`, true}, {`4 2`, false}, {`42.0`, false}, {`--7`, false}})
	runJSONCases[uint8](t, []jsonCase{{`255`, true}, {`256`, false}, {`-1`, false}})
	runJSONCases[time.Duration](t, []jsonCase{{`1500`, true}, {`"1.5s"`, false}}) // a named int64 without methods
	runJSONCases[struct{}](t, []jsonCase{{`{}`, true}, {`{"a":1}`, false}})
}

type (
	ptrUnmarshaler  struct{ N int }
	textUnmarshaler int
	embeddedInner   struct{ A int }
)

func (p *ptrUnmarshaler) UnmarshalJSON(b []byte) error { p.N = len(b); return nil }
func (textUnmarshaler) UnmarshalText([]byte) error     { return nil }

// checkNoPlan asserts that T decodes through encoding/json alone, and that
// the entry point still agrees with it.
func checkNoPlan[T any](t *testing.T, payloads ...string) {
	t.Helper()
	if p := compileJSONPlan(reflect.TypeFor[T]()); p != nil {
		t.Errorf("%s has a plan, want none", reflect.TypeFor[T]())
	}
	for _, p := range payloads {
		checkJSONDecode[T](t, []byte(p))
	}
}

// One type per reason a plan is withheld.
func TestJSONDecodeNoPlan(t *testing.T) {
	checkNoPlan[struct{ P *int }](t, `{"P":1}`, `{"P":null}`)
	checkNoPlan[struct{ S []int }](t, `{"S":[1,2]}`)
	checkNoPlan[struct{ M map[string]int }](t, `{"M":{"a":1}}`)
	checkNoPlan[struct{ A any }](t, `{"A":1.5}`)
	checkNoPlan[struct{ A [2]int }](t, `{"A":[1,2,3]}`)
	checkNoPlan[struct{ U uintptr }](t, `{"U":1}`)
	checkNoPlan[struct{ embeddedInner }](t, `{"A":1}`)
	checkNoPlan[struct {
		N int `json:",string"`
	}](t, `{"N":"12"}`, `{"N":12}`)
	checkNoPlan[struct {
		N int `json:"-"`
	}](t, `{"N":1,"-":2}`)
	checkNoPlan[struct {
		N int `json:"-,"`
	}](t, `{"N":1,"-":2}`)
	checkNoPlan[struct {
		N int `json:"é"`
	}](t, `{"é":1}`, `{"É":2}`)
	checkNoPlan[struct {
		N int `json:"a'b"` // not a valid tag name: encoding/json uses "N"
	}](t, `{"N":1}`, `{"a'b":2}`)
	checkNoPlan[struct{ Ünï int }](t, `{"Ünï":1}`, `{"ünï":2}`)
	checkNoPlan[struct {
		A int `json:"ab"`
		B int `json:"AB"`
	}](t, `{"ab":1,"AB":2}`, `{"Ab":3}`)
	checkNoPlan[ptrUnmarshaler](t, `{"N":1}`)
	checkNoPlan[struct{ P ptrUnmarshaler }](t, `{"P":[1,2]}`)
	checkNoPlan[struct{ L textUnmarshaler }](t, `{"L":"x"}`, `{"L":1}`)
	checkNoPlan[struct{ At time.Time }](t, `{"At":"2024-01-02T03:04:05Z"}`)
	checkNoPlan[time.Time](t, `"2024-01-02T03:04:05Z"`)
	checkNoPlan[struct{ N json.Number }](t, `{"N":12}`, `{"N":"12"}`, `{"N":"x"}`)
	checkNoPlan[[]int](t, `[1,2]`)
	checkNoPlan[map[string]int](t, `{"a":1}`)
	checkNoPlan[*flatEvent](t, `{"ts":1}`, `null`)
	checkNoPlan[any](t, `{"ts":1}`)
	checkNoPlan[complex128](t, `1`)
}

// The Kelvin sign folds to "k" in encoding/json, so it reaches the Key field
// there; the plan's keys are ASCII and exact, so it refuses and falls back.
func TestJSONDecodeUnicodeFoldedKeyFallsBack(t *testing.T) {
	if checkJSONDecode[flatEvent](t, []byte("{\"K\":7}")) {
		t.Fatal("plan accepted a key that only matches under Unicode folding")
	}
}

// The fast path allocates nothing for a payload without strings, and only
// the strings' bytes otherwise.
func TestJSONDecodeAllocs(t *testing.T) {
	dec := newJSONDecoder[flatEvent]()
	for _, c := range []struct {
		payload string
		allocs  float64
	}{
		{`{"ts":1700000000000,"k":42,"v":3.25}`, 0},
		{`{"ts":1700000000000,"k":42,"v":3.25,"name":"sensor-17"}`, 1},
	} {
		payload := []byte(c.payload)
		got := testing.AllocsPerRun(100, func() {
			if _, err := dec.decode(payload); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.allocs {
			t.Errorf("%s: %v allocs per decode, want %v", c.payload, got, c.allocs)
		}
	}
}

// FuzzJSONDecode: whatever the bytes, the plan never panics or reads past
// the payload, what it accepts is encoding/json's value with a nil error,
// and the entry point agrees with encoding/json on value and error text.
func FuzzJSONDecode(f *testing.F) {
	for _, cases := range [][]jsonCase{flatCases, nestedCases, widthCases(), float64Cases} {
		for _, c := range cases {
			f.Add([]byte(c.payload))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkJSONDecode[flatEvent](t, payload)
		checkJSONDecode[nestedEvent](t, payload)
		checkJSONDecode[float64](t, payload)
	})
}
