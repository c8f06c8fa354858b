// Package ocr implements the Opera Canonical Representation (OCR), the
// process language of BioOpera (§3.1 of the paper).
//
// An OCR process is an annotated directed graph: nodes are tasks
// (activities, blocks, subprocesses) and arcs are control connectors with
// activation conditions plus data-flow bindings. Processes carry a global
// data area — the whiteboard — through which tasks exchange values.
//
// The package provides:
//
//   - the process model (Process, Task, Connector),
//   - a dynamically typed value system used on whiteboards (Value),
//   - a small expression language for activation conditions and data
//     bindings (Parse/Eval),
//   - a textual OCR syntax with parser (ParseProcess) and printer (Format),
//   - static validation (Process.Validate).
package ocr

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a whiteboard value can take.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindList
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed OCR value. The zero Value is null.
// Values are immutable by convention: List returns a copy.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
	l    []Value
}

// Null is the null value.
var Null = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Num returns a numeric value.
func Num(n float64) Value { return Value{kind: KindNumber, n: n} }

// Int returns a numeric value from an int.
func Int(n int) Value { return Num(float64(n)) }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// List returns a list value. The slice is copied.
func List(vs ...Value) Value {
	return Value{kind: KindList, l: append([]Value(nil), vs...)}
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean content (false for non-bools).
func (v Value) AsBool() bool { return v.kind == KindBool && v.b }

// AsNum returns the numeric content (0 for non-numbers).
func (v Value) AsNum() float64 {
	if v.kind == KindNumber {
		return v.n
	}
	return 0
}

// AsInt returns the numeric content truncated to int.
func (v Value) AsInt() int { return int(v.AsNum()) }

// AsStr returns the string content ("" for non-strings).
func (v Value) AsStr() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// AsList returns a copy of the list content (nil for non-lists).
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return append([]Value(nil), v.l...)
}

// Len returns the list length, or 0 for non-lists.
func (v Value) Len() int {
	if v.kind != KindList {
		return 0
	}
	return len(v.l)
}

// At returns element i of a list, or null when out of range or not a list.
func (v Value) At(i int) Value {
	if v.kind != KindList || i < 0 || i >= len(v.l) {
		return Null
	}
	return v.l[i]
}

// Truthy reports the value's boolean interpretation: null and false are
// falsy; numbers are truthy when non-zero; strings and lists when
// non-empty. This drives activation conditions like `IF queue_file`.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.b
	case KindNumber:
		return v.n != 0
	case KindString:
		return v.s != ""
	case KindList:
		return len(v.l) > 0
	}
	return false
}

// Equal reports deep equality. NaN compares unequal to everything,
// matching expression-language semantics.
func (v Value) Equal(u Value) bool {
	if v.kind != u.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool:
		return v.b == u.b
	case KindNumber:
		return v.n == u.n
	case KindString:
		return v.s == u.s
	case KindList:
		if len(v.l) != len(u.l) {
			return false
		}
		for i := range v.l {
			if !v.l[i].Equal(u.l[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value in OCR literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		if v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 {
			return strconv.FormatInt(int64(v.n), 10)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range v.l {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(']')
		return sb.String()
	}
	return "?"
}

// jsonValue is the wire form used to persist values in the store.
type jsonValue struct {
	K Kind              `json:"k"`
	B bool              `json:"b,omitempty"`
	N float64           `json:"n,omitempty"`
	S string            `json:"s,omitempty"`
	L []json.RawMessage `json:"l,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	jv := jsonValue{K: v.kind, B: v.b, N: v.n, S: v.s}
	for _, e := range v.l {
		raw, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		jv.L = append(jv.L, raw)
	}
	return json.Marshal(jv)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	v.kind, v.b, v.n, v.s, v.l = jv.K, jv.B, jv.N, jv.S, nil
	for _, raw := range jv.L {
		var e Value
		if err := json.Unmarshal(raw, &e); err != nil {
			return err
		}
		v.l = append(v.l, e)
	}
	return nil
}

// Env is the evaluation environment for expressions: whiteboard names plus
// qualified task outputs ("task.field").
type Env interface {
	// Lookup resolves name (possibly "task.field") to a value. The
	// second result reports whether the name is defined.
	Lookup(name string) (Value, bool)
}

// MapEnv is an Env backed by a map, handy in tests and for whiteboards.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}
