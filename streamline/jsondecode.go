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

// The at-rest payload: Topic and JSONL decode JSON documents into T, and
// Persist writes them. encoding/json is the definition of both directions —
// and, per record, a reflective walk (with, to decode, a validating pre-scan
// and a heap-allocated target). For the payload types the engine actually
// replays (flat structs of numbers and strings) the walk is compiled once
// per T into a plan: a list of (json name, field offset, kind). The plan
// decodes the payloads it can reproduce bit for bit and refuses every other
// one, which then takes json.Unmarshal on a fresh zero T; it encodes the
// values whose json.Marshal bytes it can reproduce and hands every other
// one to json.Marshal. So results and errors are encoding/json's by
// construction, for every T, payload and value. All of the package's unsafe
// lives in this file.

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

// newJSONEncoder returns Persist's encode for T: it appends json.Marshal(v)'s
// bytes to b, through the plan when T has one that encodes, or returns b as
// it was with encoding/json's error. v must hold a T.
func newJSONEncoder[T any]() func(b []byte, v any) ([]byte, error) {
	plan := compileJSONPlan(reflect.TypeFor[T]())
	if plan != nil && plan.decodeOnly {
		plan = nil
	}
	return func(b []byte, v any) ([]byte, error) {
		if plan != nil {
			t := v.(T)
			if out, ok := plan.encode(b, unsafe.Pointer(&t)); ok {
				return out, nil
			}
			// The refused attempt may have appended some bytes: start over.
		}
		data, err := json.Marshal(v)
		if err != nil {
			return b, err
		}
		return append(b, data...), nil
	}
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
	key    string     // `"name":`, as encoding/json writes the key
	// decodeOnly: json.Marshal writes this type or a field's through a
	// Marshaler, or omits an empty field, or escapes a name.
	decodeOnly bool
}

var (
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	jsonNumberType      = reflect.TypeFor[json.Number]()
	jsonMarshalerType   = reflect.TypeFor[json.Marshaler]()
	textMarshalerType   = reflect.TypeFor[encoding.TextMarshaler]()
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
	p.decodeOnly = pt.Implements(jsonMarshalerType) || pt.Implements(textMarshalerType)
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
			name, omit, ok := jsonFieldName(sf)
			fold := strings.ToLower(name)
			f := jsonPlan{name: name, offset: sf.Offset, key: `"` + name + `":`}
			if !ok || folded[fold] || !f.compile(sf.Type) {
				return false
			}
			folded[fold] = true
			p.decodeOnly = p.decodeOnly || f.decodeOnly || omit || strings.ContainsAny(name, "<>&")
			p.fields = append(p.fields, f)
		}
	default:
		return false
	}
	return true
}

// jsonFieldName returns the object key encoding/json uses for sf and
// whether the tag omits the field when empty, or false when the tag asks for
// anything but a plain name: "-", the ",string" (or an unknown) option, or a
// name outside the ASCII set that needs neither JSON escaping in a payload
// nor Unicode case folding to match.
func jsonFieldName(sf reflect.StructField) (name string, omit, ok bool) {
	name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o != "omitempty" && o != "omitzero" {
			return "", false, false
		}
		omit = true
	}
	if name == "" {
		name = sf.Name
	}
	if name == "-" {
		return "", false, false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) >= 0:
		default:
			return "", false, false
		}
	}
	return name, omit, true
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

// encode appends the JSON encoding of the value at src, which must be of the
// plan's type, to b: json.Marshal's bytes. False means the value is one the
// plan does not reproduce — a NaN or infinite float (an error there) or a
// string encoding/json escapes; the returned bytes are then garbage.
func (p *jsonPlan) encode(b []byte, src unsafe.Pointer) ([]byte, bool) {
	switch p.kind {
	case jsonStruct:
		b = append(b, '{')
		for i := range p.fields {
			f := &p.fields[i]
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = f.encode(append(b, f.key...), unsafe.Add(src, f.offset)); !ok {
				return b, false
			}
		}
		return append(b, '}'), true
	case jsonString:
		s := *(*string)(src)
		if !plainJSONString(s) {
			return b, false
		}
		return append(append(append(b, '"'), s...), '"'), true
	case jsonBool:
		return strconv.AppendBool(b, *(*bool)(src)), true
	}
	var word uint64 // the value's bits, in the low p.bits
	switch p.bits {
	case 8:
		word = uint64(*(*uint8)(src))
	case 16:
		word = uint64(*(*uint16)(src))
	case 32:
		word = uint64(*(*uint32)(src))
	default:
		word = *(*uint64)(src)
	}
	switch p.kind {
	case jsonInt:
		shift := 64 - p.bits
		return strconv.AppendInt(b, int64(word<<shift)>>shift, 10), true
	case jsonUint:
		return strconv.AppendUint(b, word, 10), true
	}
	f := math.Float64frombits(word)
	if p.bits == 32 {
		f = float64(math.Float32frombits(uint32(word)))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	// An integer below 2^24 (2^53 at 64 bits), -0 aside, is its own
	// shortest %f form, which strconv's integer path writes faster.
	abs, format := math.Abs(f), byte('f')
	if n := int64(f); float64(n) == f && (n != 0 || !math.Signbit(f)) && (abs < 1<<24 || p.bits == 64 && abs < 1<<53) {
		return strconv.AppendInt(b, n, 10), true
	}
	// Otherwise encoding/json's format switch: %f, or %e outside
	// [1e-6, 1e21) as compared at the field's width, with a one-digit
	// negative exponent unpadded.
	if abs != 0 && (p.bits == 64 && (abs < 1e-6 || abs >= 1e21) || p.bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, int(p.bits))
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// plainJSONString reports whether encoding/json writes s as its own bytes
// between quotes: valid UTF-8 with no control byte, quote, backslash, '<',
// '>' or '&', and neither U+2028 nor U+2029.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}
