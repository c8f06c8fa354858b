package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refEncoder interns with one map per record, string -> slot: the reference
// the scanned table and its index must agree with.
type refEncoder struct {
	buf  []byte
	strs map[string]uint64
}

func (r *refEncoder) begin(kind byte) {
	r.strs = make(map[string]uint64)
	r.buf = AppendHeader(r.buf, kind)
}

func (r *refEncoder) str(s string) {
	if slot, ok := r.strs[s]; ok {
		r.buf = binary.AppendUvarint(r.buf, slot<<1|1)
		return
	}
	r.strs[s] = uint64(len(r.strs))
	r.buf = AppendString(r.buf, s)
}

// TestInternMatchesMapReference: on seeded random records of 0–200 strings
// with repeats — many past the scanned table's 16 entries — the encoder
// writes the bytes the map-based table wrote, record after record in one
// encoder, so a record never sees the table or index of the one before.
func TestInternMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := Get()
	defer Put(e)
	var ref refEncoder
	crossed := 0
	for rec := 0; rec < 500; rec++ {
		n := rng.Intn(201)
		// A vocabulary smaller than the record forces repeats; its words
		// share lengths and prefixes, so the scan compares bytes.
		vocab := 1 + rng.Intn(n+1)
		ss := make([]string, n)
		for i := range ss {
			ss[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
		}
		if rng.Intn(4) == 0 && n > 0 {
			ss[rng.Intn(n)] = "" // the empty string interns like any other
		}
		kind := byte(1 + rng.Intn(5))
		e.Begin(kind)
		ref.begin(kind)
		for _, s := range ss {
			e.String(s)
			ref.str(s)
		}
		i := e.End()
		if len(ref.strs) > scanMax {
			crossed++
		}
		got := e.Span(i)
		want := ref.buf[len(ref.buf)-len(got):]
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d strings, %d distinct): encoder wrote %x, the map reference %x", rec, n, len(ref.strs), got, want)
		}
	}
	if !bytes.Equal(e.Buf, ref.buf) {
		t.Fatal("the batch differs from the map reference's")
	}
	if crossed < 100 {
		t.Fatalf("only %d of 500 records held more than %d distinct strings", crossed, scanMax)
	}
}

// BenchmarkEncoderStrings encodes one record of n distinct strings, each
// written twice (a literal, then a back-reference), and reports the cost per
// String call: it stays flat from the scanned table to the indexed one.
func BenchmarkEncoderStrings(b *testing.B) {
	for _, n := range []int{8, 64, 50000} {
		ss := make([]string, n)
		for i := range ss {
			ss[i] = fmt.Sprintf("scope-%06d", i)
		}
		b.Run(fmt.Sprintf("distinct=%d", n), func(b *testing.B) {
			e := Get()
			defer Put(e)
			record := func() {
				e.Reset()
				e.Begin(1)
				for _, s := range ss {
					e.String(s)
				}
				for _, s := range ss {
					e.String(s)
				}
				e.End()
			}
			record() // grow the buffer, the table and its index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				record()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/string")
		})
	}
}
