package codec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bioopera/internal/ocr"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	e := Get()
	defer Put(e)
	e.Begin(7)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Int(-1)
	e.Int(1 << 40)
	e.Int(math.MinInt64)
	e.Bool(true)
	e.Bool(false)
	e.Float(3.25)
	e.Float(math.Inf(-1))
	e.String("hello")
	e.String("hello") // back-reference
	e.String("")
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.End()

	d, kind, err := NewDecoder(e.Span(0))
	if err != nil {
		t.Fatal(err)
	}
	if kind != 7 {
		t.Fatalf("kind = %d", kind)
	}
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.Int(); got != -1 {
		t.Fatalf("int = %d", got)
	}
	if got := d.Int(); got != 1<<40 {
		t.Fatalf("int = %d", got)
	}
	if got := d.Int(); got != math.MinInt64 {
		t.Fatalf("int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools")
	}
	if got := d.Float(); got != 3.25 {
		t.Fatalf("float = %v", got)
	}
	if got := d.Float(); !math.IsInf(got, -1) {
		t.Fatalf("float = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("interned string = %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string = %q", got)
	}
	if got := d.Bytes(); string(got) != "\x01\x02\x03" {
		t.Fatalf("bytes = %v", got)
	}
	if got := d.Bytes(); got != nil {
		t.Fatalf("nil bytes = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestInterningShrinksRepeats(t *testing.T) {
	long := "a-reasonably-long-scope-name[17]"
	one := Get()
	one.Begin(1)
	one.String(long)
	one.End()
	repeated := Get()
	repeated.Begin(1)
	for i := 0; i < 10; i++ {
		repeated.String(long)
	}
	repeated.End()
	oneLen, repLen := len(one.Span(0)), len(repeated.Span(0))
	Put(one)
	Put(repeated)
	// 9 repeats should cost one byte each (back-reference to slot 0).
	if want := oneLen + 9; repLen != want {
		t.Fatalf("10x interned string = %d bytes, want %d", repLen, want)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	vals := []ocr.Value{
		ocr.Null,
		ocr.Bool(true),
		ocr.Bool(false),
		ocr.Num(0),
		ocr.Num(-12.5),
		ocr.Num(math.NaN()), // JSON cannot persist this; the codec can
		ocr.Str(""),
		ocr.Str("x"),
		ocr.List(),
		ocr.List(ocr.Num(1), ocr.Str("two"), ocr.List(ocr.Bool(true))),
	}
	m := map[string]ocr.Value{"b": ocr.Num(2), "a": ocr.Str("one"), "c": ocr.List(ocr.Null)}
	e := Get()
	defer Put(e)
	e.Begin(1)
	for _, v := range vals {
		e.Value(v)
	}
	e.ValueMap(m)
	e.ValueMap(nil)
	e.ValueSlice(vals[:3])
	e.ValueSlice(nil)
	e.StringSlice([]string{"x", "y", "x"})
	e.StringSlice(nil)
	e.End()

	d, _, err := NewDecoder(e.Span(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got := d.Value()
		if i == 5 { // NaN compares unequal to itself
			if !math.IsNaN(got.AsNum()) {
				t.Fatalf("value %d = %v, want NaN", i, got)
			}
			continue
		}
		if got.String() != want.String() || got.Kind() != want.Kind() {
			t.Fatalf("value %d = %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}
	gm := d.ValueMap()
	if len(gm) != len(m) {
		t.Fatalf("map = %v", gm)
	}
	for k, want := range m {
		if gm[k].String() != want.String() {
			t.Fatalf("map[%q] = %v, want %v", k, gm[k], want)
		}
	}
	if d.ValueMap() != nil {
		t.Fatal("empty map should decode nil")
	}
	if got := d.ValueSlice(); len(got) != 3 {
		t.Fatalf("value slice = %v", got)
	}
	if d.ValueSlice() != nil {
		t.Fatal("empty value slice should decode nil")
	}
	if got := d.StringSlice(); len(got) != 3 || got[2] != "x" {
		t.Fatalf("string slice = %v", got)
	}
	if d.StringSlice() != nil {
		t.Fatal("empty string slice should decode nil")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestValueMapDeterministic(t *testing.T) {
	m := map[string]ocr.Value{}
	for _, k := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		m[k] = ocr.Str(k)
	}
	enc := func() []byte {
		e := Get()
		defer Put(e)
		e.Begin(1)
		e.ValueMap(m)
		e.End()
		return append([]byte(nil), e.Span(0)...)
	}
	first := enc()
	for i := 0; i < 20; i++ {
		if string(enc()) != string(first) {
			t.Fatal("map encoding depends on iteration order")
		}
	}
}

func TestSpansAcrossRecords(t *testing.T) {
	e := Get()
	defer Put(e)
	for i := 0; i < 5; i++ {
		e.Begin(byte(i))
		e.Uvarint(uint64(i) * 1000)
		e.End()
	}
	if e.Records() != 5 {
		t.Fatalf("records = %d", e.Records())
	}
	for i := 0; i < 5; i++ {
		d, kind, err := NewDecoder(e.Span(i))
		if err != nil {
			t.Fatal(err)
		}
		if kind != byte(i) {
			t.Fatalf("record %d kind = %d", i, kind)
		}
		if got := d.Uvarint(); got != uint64(i)*1000 {
			t.Fatalf("record %d payload = %d", i, got)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEncodeAllocFree(t *testing.T) {
	m := map[string]ocr.Value{"alpha": ocr.Num(1), "beta": ocr.Str("two"), "gamma": ocr.List(ocr.Num(3))}
	e := Get()
	defer Put(e)
	run := func() {
		e.Reset()
		e.Begin(1)
		e.String("scope-name")
		e.String("scope-name")
		e.Int(-42)
		e.Float(1.5)
		e.ValueMap(m)
		e.StringSlice([]string{"a", "b"})
		e.End()
	}
	run() // warm the scratch slices and intern table
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("steady-state encode = %v allocs/record, want 0", allocs)
	}
}

func TestCorruptInputsNeverPanic(t *testing.T) {
	// Hand-crafted near-records: truncations, bad back-references,
	// oversized counts. Every one must error (or decode), never panic.
	cases := [][]byte{
		nil,
		{},
		{Magic},
		{Magic, Version},
		{Magic, 99, 1},                 // unknown version
		{0x7B, Version, 1},             // not magic
		{Magic, Version, 1, 0xFF},      // torn uvarint
		{Magic, Version, 1, 0x04, 'a'}, // string length 2, one byte left
		{Magic, Version, 1, 0x03},      // back-reference into empty table
		{Magic, Version, 1, 0xFF, 0xFF, 0xFF, 0x7F},     // huge count
		{Magic, Version, 1, byte(ocr.KindList), 0x20},   // list of 16, no elements
		{Magic, Version, 1, byte(ocr.KindNumber), 1, 2}, // truncated float
		{Magic, Version, 1, 200},                        // unknown value kind
	}
	for i, data := range cases {
		d, _, err := NewDecoder(data)
		if err != nil {
			continue // header rejected: fine
		}
		d.Uvarint()
		_ = d.String()
		d.Value()
		d.ValueMap()
		d.ValueSlice()
		d.StringSlice()
		d.Bytes()
		d.Bool()
		d.Float()
		if err := d.Finish(); err == nil && len(data) > 3 {
			t.Errorf("case %d: corrupt record decoded cleanly", i)
		}
	}
}

// TestNewDecoderRefusesNonBinary: the header check is the one place a
// record of another format is turned away. JSON is named as what it is;
// everything else is bad magic; neither panics.
func TestNewDecoderRefusesNonBinary(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{nil, "bad magic"},
		{[]byte("PROCESS P {}"), "bad magic"},
		{[]byte(`{"id":"x"}`), "pre-codec JSON record"},
		{[]byte("{"), "pre-codec JSON record"},
	} {
		_, _, err := NewDecoder(tc.data)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewDecoder(%q) = %v, want ErrCorrupt mentioning %q", tc.data, err, tc.want)
		}
	}
	e := Get()
	defer Put(e)
	e.Begin(1)
	e.End()
	if _, kind, err := NewDecoder(e.Span(0)); err != nil || kind != 1 {
		t.Fatalf("binary record refused: kind=%d err=%v", kind, err)
	}
}

// TestDecoderReset: one decoder reads record after record. Each Reset starts
// a fresh intern table (slot 0 is the new record's first string, not the
// last one's), keeps the table's capacity so the decoder itself allocates
// nothing, and after a refused record every read fails.
func TestDecoderReset(t *testing.T) {
	record := func(kind byte, ss ...string) []byte {
		e := Get()
		defer Put(e)
		e.Begin(kind)
		for _, s := range ss {
			e.String(s)
		}
		e.End()
		return append([]byte(nil), e.Buf...)
	}
	first, second := record(7, "alpha", "beta", "alpha"), record(9, "gamma", "gamma")
	var d Decoder
	if kind, err := d.Reset(first); kind != 7 || err != nil {
		t.Fatalf("Reset = kind %d, %v", kind, err)
	}
	if a, b, c := d.String(), d.String(), d.String(); a != "alpha" || b != "beta" || c != "alpha" || d.Finish() != nil {
		t.Fatalf("first record read %q %q %q, %v", a, b, c, d.Finish())
	}
	if kind, err := d.Reset(second); kind != 9 || err != nil {
		t.Fatalf("second Reset = kind %d, %v", kind, err)
	}
	if a, b := d.String(), d.String(); a != "gamma" || b != "gamma" || d.Finish() != nil {
		t.Fatalf("second record read %q %q, %v", a, b, d.Finish())
	}

	if _, err := d.Reset([]byte(`{"id":"p1"}`)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "pre-codec JSON") {
		t.Fatalf("Reset on JSON = %v", err)
	}
	if d.Uvarint(); d.Err() == nil || d.Finish() == nil {
		t.Fatal("a decoder whose Reset failed still reads")
	}
	if _, err := d.Reset(first); err != nil || d.String() != "alpha" {
		t.Fatalf("a good record after a refused one: %v", err)
	}

	ints := func() []byte {
		e := Get()
		defer Put(e)
		e.Begin(3)
		e.Uvarint(7)
		e.Int(-9)
		e.RawString("job")
		e.End()
		return append([]byte(nil), e.Buf...)
	}()
	if allocs := testing.AllocsPerRun(100, func() {
		d.Reset(ints)
		if d.Uvarint() != 7 || d.Int() != -9 || string(d.Bytes()) != "job" || d.Finish() != nil {
			t.Fatal("scalar record misread")
		}
	}); allocs != 0 {
		t.Errorf("Reset + scalar reads = %v allocs, want 0", allocs)
	}
}

// TestCountBoundsAllocation: a count larger than the bytes left is corrupt.
func TestCountBoundsAllocation(t *testing.T) {
	d, _, err := NewDecoder([]byte{Magic, Version, 1, 0x03, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Count("list"); n != 3 || d.Err() != nil {
		t.Fatalf("Count = %d, %v", n, d.Err())
	}
	d, _, _ = NewDecoder([]byte{Magic, Version, 1, 0x04, 1, 2, 3})
	if n := d.Count("list"); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("oversized Count = %d, %v", n, d.Err())
	}
}
