package ocr

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Bool(true), KindBool},
		{Num(3.5), KindNumber},
		{Int(7), KindNumber},
		{Str("x"), KindString},
		{List(Int(1), Int(2)), KindList},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{Bool(false), false},
		{Bool(true), true},
		{Num(0), false},
		{Num(-1), true},
		{Str(""), false},
		{Str("a"), true},
		{List(), false},
		{List(Null), true},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("Truthy(%v) = %v, want %v", c.v, !c.want, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Int(42), "42"},
		{Num(2.5), "2.5"},
		{Str(`a"b`), `"a\"b"`},
		{List(Int(1), Str("x")), `[1, "x"]`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !List(Int(1), Str("a")).Equal(List(Int(1), Str("a"))) {
		t.Error("equal lists compare unequal")
	}
	if List(Int(1)).Equal(List(Int(2))) {
		t.Error("different lists compare equal")
	}
	if Int(1).Equal(Str("1")) {
		t.Error("cross-kind equality")
	}
	if !Null.Equal(Null) {
		t.Error("null != null")
	}
}

func TestListAccess(t *testing.T) {
	l := List(Int(10), Int(20), Int(30))
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.At(1).AsInt() != 20 {
		t.Fatalf("At(1) = %v", l.At(1))
	}
	if !l.At(-1).IsNull() || !l.At(3).IsNull() {
		t.Fatal("out-of-range At should be null")
	}
	if !Str("x").At(0).IsNull() || Str("x").Len() != 0 {
		t.Fatal("non-list access should be null/0")
	}
	// AsList copies.
	cp := l.AsList()
	cp[0] = Int(99)
	if l.At(0).AsInt() != 10 {
		t.Fatal("AsList aliased internal slice")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		Bool(true),
		Num(-2.75),
		Str("héllo\nworld"),
		List(Int(1), List(Str("nested"), Bool(false)), Null),
	}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var got Value
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(n float64, s string, b bool, xs []float64) bool {
		var elems []Value
		for _, x := range xs {
			elems = append(elems, Num(x))
		}
		v := List(Num(n), Str(s), Bool(b), List(elems...))
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var got Value
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapEnv(t *testing.T) {
	env := MapEnv{"b": Int(2), "a": Int(1)}
	if v, ok := env.Lookup("a"); !ok || v.AsInt() != 1 {
		t.Fatal("Lookup failed")
	}
	if _, ok := env.Lookup("zz"); ok {
		t.Fatal("Lookup of missing name succeeded")
	}
}
