// Package codec is the compact binary wire format for the engine's durable
// hot path: checkpoint delta records, WAL frames, and log-shipping payloads.
//
// Every persisted record used to be encoding/json-marshaled; profiling the
// checkpoint flusher showed reflection and string escaping dominating the
// marshal cost once PR 5 had flattened record *size*. This package replaces
// that with a hand-rolled, versioned, length-prefixed binary layout:
//
//	magic(0xBF) version(1) kind(1) fields...
//
// Field primitives are uvarint (lengths, counts, enums), zigzag varint
// (signed ints, timestamps, durations), 8-byte little-endian IEEE-754
// (numbers), and length-prefixed byte strings. Strings are interned per
// record: the first occurrence is written literally and enters the string
// table, repeats are written as a 1-2 byte back-reference — repeated scope
// and task names cost almost nothing. Each record carries its own table, so
// every record decodes standalone. The encoder's table is a slice in slot
// order, scanned while it holds at most 16 strings — no record the engine
// writes holds more than about ten — and indexed by a map past that, so a
// large record stays linear; the map is cleared only when a record used it.
//
// Encoders are pooled and append into one reusable buffer with explicit
// record marks, so steady-state encoding of a whole checkpoint batch is
// allocation-free. Decoders never panic on corrupt input: every read is
// bounds-checked and errors are sticky.
//
// This is the only on-disk record format. Version is bumped on any layout
// change; decoders reject versions they do not know — and anything that does
// not start with Magic — rather than misparse them.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"bioopera/internal/ocr"
)

const (
	// Magic is the first byte of every binary record. Interned process
	// texts are printable program text, so they can never carry it.
	Magic byte = 0xBF
	// Version is the current layout version, the second byte of every
	// record.
	Version byte = 1
	// headerLen is Magic + Version + kind.
	headerLen = 3
)

// ErrCorrupt is wrapped by every decode error.
var ErrCorrupt = errors.New("codec: corrupt record")

// Encoder appends binary records to one reusable buffer. Begin/End bracket
// each record; Span returns the bytes of a finished record. The zero value
// is ready to use; Get/Put recycle encoders (buffer, mark slice, and
// intern table included) so steady-state encoding allocates nothing.
type Encoder struct {
	// Buf holds every record encoded since the last Reset, back to back.
	// Appending may relocate the backing array, so take Span slices only
	// after all records of a batch are encoded.
	Buf   []byte
	marks []int
	strs  []string          // per-record intern table, in slot order
	idx   map[string]uint64 // string -> slot, kept only past scanMax strings
	keys  []string          // scratch for sorted map iteration
}

// scanMax is the intern table size up to which String scans the table: a
// scan of a few strings, most of other lengths, costs less than hashing one.
const scanMax = 16

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// Get returns a pooled Encoder, reset and ready for Begin.
func Get() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Put recycles an Encoder. The caller must be done with every Span slice:
// they alias the encoder's buffer.
func Put(e *Encoder) { encPool.Put(e) }

// Reset drops all encoded records but keeps the allocated capacity.
func (e *Encoder) Reset() {
	e.Buf = e.Buf[:0]
	e.marks = e.marks[:0]
}

// Begin starts a new record of the given kind: it writes the header and
// clears the intern table (records decode standalone).
func (e *Encoder) Begin(kind byte) {
	if e.strs == nil {
		e.strs = make([]string, 0, scanMax)
	} else {
		clear(e.strs) // the table must not pin the previous record's strings
		e.strs = e.strs[:0]
	}
	if len(e.idx) > 0 {
		clear(e.idx)
	}
	e.Buf = AppendHeader(e.Buf, kind)
}

// End finishes the current record and returns its index for Span.
func (e *Encoder) End() int {
	e.marks = append(e.marks, len(e.Buf))
	return len(e.marks) - 1
}

// Records reports how many records have been finished since Reset.
func (e *Encoder) Records() int { return len(e.marks) }

// Span returns the encoded bytes of record i. The slice aliases the
// encoder's buffer: it is valid until the next Reset/Put, and must only be
// taken once the batch's records are all encoded (End moves the marks, and
// appending can relocate the buffer).
func (e *Encoder) Span(i int) []byte {
	start := 0
	if i > 0 {
		start = e.marks[i-1]
	}
	return e.Buf[start:e.marks[i]:e.marks[i]]
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) {
	e.Buf = binary.AppendUvarint(e.Buf, u)
}

// Int appends a signed int as a zigzag varint.
func (e *Encoder) Int(v int64) { e.Buf = AppendInt(e.Buf, v) }

// Bool appends one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Float appends an IEEE-754 double, little-endian.
func (e *Encoder) Float(f float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(f))
}

// String appends an interned string. The head uvarint's low bit
// discriminates: even = literal of length head>>1 follows (and the string
// joins the record's table), odd = back-reference to table slot head>>1.
func (e *Encoder) String(s string) {
	if len(e.strs) <= scanMax {
		for slot, t := range e.strs {
			if t == s {
				e.Uvarint(uint64(slot)<<1 | 1)
				return
			}
		}
	} else if slot, ok := e.idx[s]; ok {
		e.Uvarint(slot<<1 | 1)
		return
	}
	e.strs = append(e.strs, s)
	switch n := len(e.strs); {
	case n == scanMax+1: // the table outgrows the scan: index all of it
		if e.idx == nil {
			e.idx = make(map[string]uint64, 2*scanMax)
		}
		for slot, t := range e.strs {
			e.idx[t] = uint64(slot)
		}
	case n > scanMax+1:
		e.idx[s] = uint64(n - 1)
	}
	e.Buf = AppendString(e.Buf, s)
}

// AppendHeader, AppendInt and AppendString write a record of flat fields
// straight into a caller's buffer, without an Encoder: a record the caller
// owns, with no Begin/End marks and no intern table. AppendHeader starts a
// record of the given kind.
func AppendHeader(buf []byte, kind byte) []byte { return append(buf, Magic, Version, kind) }

// AppendInt appends a signed int as a zigzag varint, as Encoder.Int does.
func AppendInt(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

// AppendString appends s as a literal string, which Decoder.String reads
// like any literal Encoder.String writes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s))<<1)
	return append(buf, s...)
}

// Bytes appends a length-prefixed byte string (not interned).
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// RawString appends a string in the wire form of Bytes: length-prefixed,
// outside the intern table. It is for a field the reader looks up in place
// (Decoder.Bytes aliases the record) instead of keeping.
func (e *Encoder) RawString(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Value appends one dynamically typed whiteboard value. Strings go through
// the record's intern table, so an output echoing an input costs two bytes.
func (e *Encoder) Value(v ocr.Value) {
	k := v.Kind()
	e.Buf = append(e.Buf, byte(k))
	switch k {
	case ocr.KindBool:
		e.Bool(v.AsBool())
	case ocr.KindNumber:
		e.Float(v.AsNum())
	case ocr.KindString:
		e.String(v.AsStr())
	case ocr.KindList:
		n := v.Len()
		e.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			e.Value(v.At(i))
		}
	}
}

// ValueSlice appends a counted list of values. nil and empty both encode
// as count 0 and decode as nil, matching the JSON omitempty round-trip.
func (e *Encoder) ValueSlice(vs []ocr.Value) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Value(v)
	}
}

// StringSlice appends a counted list of interned strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// ValueMap appends a counted map in sorted key order, so identical maps
// encode to identical bytes regardless of Go's map iteration order.
func (e *Encoder) ValueMap(m map[string]ocr.Value) {
	e.Uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.Value(m[k])
	}
	e.keys = keys[:0]
}

// Decoder reads one binary record; the zero value is ready for Reset or
// Open. Errors are sticky: after the first malformed read every later read
// returns a zero value, and Err reports the failure — callers check once at
// the end. A Decoder never panics on corrupt input; every read is
// bounds-checked.
type Decoder struct {
	buf  []byte
	off  int
	strs []string // intern table, filled by literal strings in order
	err  error
}

// Reset points the decoder at another record: it validates the header,
// positions the decoder at the first field and returns the record kind. The
// intern table keeps its capacity, so a decoder that lives as long as its
// connection reads every frame without allocating anything of its own. This
// is the one place a record of another format is refused; a '{' first byte
// is named for what it is — a JSON record written before the codec existed —
// so the operator knows which side to upgrade. After an error the decoder
// holds no record: every read fails.
func (d *Decoder) Reset(data []byte) (kind byte, err error) {
	clear(d.strs) // the table must not pin the previous record's strings
	d.buf, d.off, d.strs = nil, 0, d.strs[:0]
	switch {
	case len(data) > 0 && data[0] == '{':
		d.err = fmt.Errorf("%w: pre-codec JSON record", ErrCorrupt)
	case len(data) < headerLen || data[0] != Magic:
		d.err = fmt.Errorf("%w: bad magic", ErrCorrupt)
	case data[1] != Version:
		d.err = fmt.Errorf("%w: unknown version %d", ErrCorrupt, data[1])
	default:
		d.buf, d.off, d.err = data, headerLen, nil
		return data[2], nil
	}
	return 0, d.err
}

// Open is Reset for a record whose kind its context dictates — a frame
// body's is its frame's kind, a store record's its key's family — and
// refuses a record of any other kind.
func (d *Decoder) Open(data []byte, want byte) error {
	kind, err := d.Reset(data)
	if err == nil && kind != want {
		err = fmt.Errorf("%w: a record of kind %d where kind %d belongs", ErrCorrupt, kind, want)
	}
	return err
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the sticky error, or an error if the record has trailing
// garbage — a full record must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return u
}

// Count reads an element count. Every element needs at least one byte, so
// a count beyond the bytes that remain is a corrupt length, not a huge
// allocation: it fails the decoder and reads as 0.
func (d *Decoder) Count(what string) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail(what)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// Float reads an IEEE-754 double.
func (d *Decoder) Float() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("float")
		return 0
	}
	u := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(u)
}

// String reads an interned string (literal or back-reference).
func (d *Decoder) String() string {
	head := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if head&1 == 1 { // back-reference
		slot := head >> 1
		if slot >= uint64(len(d.strs)) {
			d.fail("string backref")
			return ""
		}
		return d.strs[slot]
	}
	n := int(head >> 1)
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	d.strs = append(d.strs, s)
	return s
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the record buffer (no copy); a zero length decodes as nil.
func (d *Decoder) Bytes() []byte {
	n := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Value reads one dynamically typed value.
func (d *Decoder) Value() ocr.Value {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("value kind")
		return ocr.Null
	}
	k := ocr.Kind(d.buf[d.off])
	d.off++
	switch k {
	case ocr.KindNull:
		return ocr.Null
	case ocr.KindBool:
		return ocr.Bool(d.Bool())
	case ocr.KindNumber:
		return ocr.Num(d.Float())
	case ocr.KindString:
		return ocr.Str(d.String())
	case ocr.KindList:
		n := d.Count("value list")
		if d.err != nil {
			return ocr.Null
		}
		vs := make([]ocr.Value, 0, n)
		for i := 0; i < n; i++ {
			vs = append(vs, d.Value())
			if d.err != nil {
				return ocr.Null
			}
		}
		return ocr.List(vs...)
	}
	d.fail("value kind")
	return ocr.Null
}

// ValueSlice reads a counted list of values; count 0 decodes as nil.
func (d *Decoder) ValueSlice() []ocr.Value {
	n := d.Count("value slice")
	if n == 0 {
		return nil
	}
	vs := make([]ocr.Value, 0, n)
	for i := 0; i < n; i++ {
		vs = append(vs, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return vs
}

// StringSlice reads a counted list of interned strings; count 0 decodes as
// nil.
func (d *Decoder) StringSlice() []string {
	n := d.Count("string slice")
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ss = append(ss, d.String())
		if d.err != nil {
			return nil
		}
	}
	return ss
}

// ValueMap reads a counted map; count 0 decodes as nil.
func (d *Decoder) ValueMap() map[string]ocr.Value {
	n := d.Count("value map")
	if n == 0 {
		return nil
	}
	m := make(map[string]ocr.Value, n)
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.Value()
		if d.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
