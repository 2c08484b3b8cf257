package streamline

import (
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// The at-rest decode: Topic and JSONL payloads are JSON documents decoded
// into T. encoding/json is the definition of that decode — and, per record,
// a reflective walk with a validating pre-scan and a heap-allocated target.
// For the payload types the engine actually replays (flat structs of numbers
// and strings) jsonDecoder compiles the walk once per T into a plan: a list
// of (json name, field offset, kind). The plan decodes the payloads it can
// reproduce bit for bit and refuses every other one, which then takes
// json.Unmarshal on a fresh zero T — so results and errors are
// encoding/json's by construction, for every T and every payload. All of the
// package's unsafe lives in this file.

// jsonDecoder decodes JSON payloads into T. The zero value always takes
// encoding/json; newJSONDecoder adds the plan when T has one.
type jsonDecoder[T any] struct {
	plan *jsonPlan
}

func newJSONDecoder[T any]() jsonDecoder[T] {
	return jsonDecoder[T]{plan: compileJSONPlan(reflect.TypeFor[T]())}
}

// decode is the one decode entry point of the at-rest readers. The returned
// value never aliases data (readers reuse the payload buffer).
func (d jsonDecoder[T]) decode(data []byte) (T, error) {
	if d.plan != nil {
		var v T
		if d.plan.decode(data, unsafe.Pointer(&v)) {
			return v, nil
		}
		// The refused attempt may have written some fields: start over.
	}
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

type jsonKind uint8

const (
	jsonBool jsonKind = iota
	jsonInt
	jsonUint
	jsonFloat
	jsonString
	jsonStruct
)

// jsonPlan describes how one value is decoded: a scalar leaf, or a struct
// with one sub-plan per exported field. The root plan has offset 0.
type jsonPlan struct {
	name   string // json object key; empty at the root
	offset uintptr
	kind   jsonKind
	bits   uint8      // width of an int, uint or float
	fields []jsonPlan // kind == jsonStruct
}

var (
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	jsonNumberType      = reflect.TypeFor[json.Number]()
)

// compileJSONPlan returns the plan for t, or nil when decoding t needs
// anything beyond scalar leaves addressed by plain, unambiguous names: then
// encoding/json decodes every payload.
func compileJSONPlan(t reflect.Type) *jsonPlan {
	var p jsonPlan
	if !p.compile(t) {
		return nil
	}
	return &p
}

func (p *jsonPlan) compile(t reflect.Type) bool {
	// *T's method set includes T's. json.Number has no methods, but
	// encoding/json knows it by type.
	pt := reflect.PointerTo(t)
	if pt.Implements(jsonUnmarshalerType) || pt.Implements(textUnmarshalerType) || t == jsonNumberType {
		return false
	}
	switch t.Kind() {
	case reflect.Bool:
		p.kind = jsonBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind, p.bits = jsonInt, uint8(t.Bits())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.kind, p.bits = jsonUint, uint8(t.Bits())
	case reflect.Float32, reflect.Float64:
		p.kind, p.bits = jsonFloat, uint8(t.Bits())
	case reflect.String:
		p.kind = jsonString
	case reflect.Struct:
		p.kind = jsonStruct
		folded := make(map[string]bool, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if sf.Anonymous {
				return false
			}
			if !sf.IsExported() {
				continue // encoding/json never sees it
			}
			name, ok := jsonFieldName(sf)
			fold := strings.ToLower(name)
			f := jsonPlan{name: name, offset: sf.Offset}
			if !ok || folded[fold] || !f.compile(sf.Type) {
				return false
			}
			folded[fold] = true
			p.fields = append(p.fields, f)
		}
	default:
		return false
	}
	return true
}

// jsonFieldName returns the object key encoding/json uses for sf, or false
// when the tag asks for anything but a plain name: "-", the ",string" (or an
// unknown) option, or a name outside the ASCII set that needs neither
// escaping in a payload nor Unicode case folding to match.
func jsonFieldName(sf reflect.StructField) (string, bool) {
	name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o != "omitempty" && o != "omitzero" {
			return "", false
		}
	}
	if name == "" {
		name = sf.Name
	}
	if name == "-" {
		return "", false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) >= 0:
		default:
			return "", false
		}
	}
	return name, true
}

// decode parses data as exactly one value of the plan's shape into dst,
// which must point at a zero value of the plan's type. False means the
// payload is not one the plan reproduces; dst may then be partly written.
func (p *jsonPlan) decode(data []byte, dst unsafe.Pointer) bool {
	i, ok := p.value(data, skipJSONSpace(data, 0), dst)
	return ok && skipJSONSpace(data, i) == len(data)
}

func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// value decodes the value starting at data[i] into dst and returns the index
// after it. What follows the value is the caller's to check.
func (p *jsonPlan) value(data []byte, i int, dst unsafe.Pointer) (int, bool) {
	switch p.kind {
	case jsonStruct:
		return p.object(data, i, dst)
	case jsonString:
		s, end, ok := scanJSONString(data, i)
		if ok {
			*(*string)(dst) = string(s)
		}
		return end, ok
	case jsonBool:
		if rest := data[i:]; len(rest) >= 4 && string(rest[:4]) == "true" {
			*(*bool)(dst) = true
			return i + 4, true
		} else if len(rest) >= 5 && string(rest[:5]) == "false" {
			*(*bool)(dst) = false // a repeated key overwrites
			return i + 5, true
		}
		return i, false
	}
	// A number. strconv is what encoding/json itself calls, with the field's
	// bit size, so range checks and rounding are its own; a fraction or
	// exponent in an integer field is a type error there, a refusal here.
	end := scanJSONNumber(data, i)
	if end == i {
		return i, false
	}
	lit := unsafe.String(&data[i], end-i)
	var word uint64 // the value's bits, in the low p.bits
	var err error
	switch p.kind {
	case jsonInt:
		var n int64
		n, err = strconv.ParseInt(lit, 10, int(p.bits))
		word = uint64(n)
	case jsonUint:
		word, err = strconv.ParseUint(lit, 10, int(p.bits))
	default:
		var f float64
		f, err = strconv.ParseFloat(lit, int(p.bits))
		if word = math.Float64bits(f); p.bits == 32 {
			word = uint64(math.Float32bits(float32(f)))
		}
	}
	if err != nil {
		return i, false
	}
	switch p.bits {
	case 8:
		*(*uint8)(dst) = uint8(word)
	case 16:
		*(*uint16)(dst) = uint16(word)
	case 32:
		*(*uint32)(dst) = uint32(word)
	default:
		*(*uint64)(dst) = word
	}
	return end, true
}

// object decodes {"name":value,...} into the struct at dst. Keys must equal
// a field name exactly; a key repeated overwrites (or, for a nested struct,
// merges), as in encoding/json.
func (p *jsonPlan) object(data []byte, i int, dst unsafe.Pointer) (int, bool) {
	if i >= len(data) || data[i] != '{' {
		return i, false
	}
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for next := 0; ; {
		key, end, ok := scanJSONString(data, i)
		if !ok {
			return i, false
		}
		// Writers emit keys in field order: try the expected field first.
		var f *jsonPlan
		for n := range p.fields {
			k := next + n
			if k >= len(p.fields) {
				k -= len(p.fields)
			}
			if p.fields[k].name == string(key) {
				f, next = &p.fields[k], k+1
				break
			}
		}
		if f == nil {
			return i, false
		}
		i = skipJSONSpace(data, end)
		if i >= len(data) || data[i] != ':' {
			return i, false
		}
		i, ok = f.value(data, skipJSONSpace(data, i+1), unsafe.Add(dst, f.offset))
		if !ok {
			return i, false
		}
		i = skipJSONSpace(data, i)
		if i >= len(data) {
			return i, false
		}
		switch data[i] {
		case ',':
			i = skipJSONSpace(data, i+1)
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// scanJSONString scans the string literal at data[i] and returns its
// contents (aliasing data) and the index after the closing quote. Only
// literals that are their own decoding are accepted: no escape, no control
// byte, valid UTF-8.
func scanJSONString(data []byte, i int) ([]byte, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	ascii := true
	for i = start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			s := data[start:i]
			return s, i + 1, ascii || utf8.Valid(s)
		case c < ' ' || c == '\\':
			return nil, i, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, i, false
}

// scanJSONNumber returns the index after the JSON number starting at
// data[i], or i when there is none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// — strconv accepts more (hex, underscores, "inf", "1.", ".5", "+1").
func scanJSONNumber(data []byte, i int) int {
	digits := func(j int) int {
		for j < len(data) && '0' <= data[j] && data[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	end := digits(j)
	if end == j || (data[j] == '0' && end > j+1) {
		return i
	}
	if end < len(data) && data[end] == '.' {
		j = end + 1
		if end = digits(j); end == j {
			return i
		}
	}
	if end < len(data) && (data[end] == 'e' || data[end] == 'E') {
		j = end + 1
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if end = digits(j); end == j {
			return i
		}
	}
	return end
}
