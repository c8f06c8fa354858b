package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestCrashAtEveryByte is the torn-write exhaustion test: a log of known
// records is truncated at *every* possible byte offset of its tail segment
// (simulating a crash mid-write), and reopening must always yield an exact
// prefix of the original records, never garbage, and must accept new
// appends afterwards.
func TestCrashAtEveryByte(t *testing.T) {
	// Build a reference log with varied record sizes in one segment.
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	for i := 0; i < 12; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i)}, 1+7*i)
		records = append(records, rec)
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := os.ReadDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (%v)", len(segs), err)
	}
	segName := segs[0].Name()
	full, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Offsets at which each record becomes complete.
	var boundaries []int
	off := 0
	for _, rec := range records {
		off += headerLen + len(rec)
		boundaries = append(boundaries, off)
	}

	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(cutDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		var got [][]byte
		if err := l2.Replay(1, func(r Record) error {
			got = append(got, r.Data)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		// Expected: the records whose boundary ≤ cut.
		wantN := sort.SearchInts(boundaries, cut+1)
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		// The repaired log accepts appends with the right sequence.
		seq, err := l2.Append([]byte("post-crash"))
		if err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if seq != uint64(wantN+1) {
			t.Fatalf("cut %d: post-crash seq = %d, want %d", cut, seq, wantN+1)
		}
		l2.Close()
	}
}

// TestCrashWithBitFlipTail extends the crash test: in addition to
// truncation, the final partial bytes are corrupted — recovery must still
// yield an exact record prefix.
func TestCrashWithBitFlipTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{NoSync: true})
	var records [][]byte
	for i := 0; i < 6; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i*5)))
		records = append(records, rec)
		l.Append(rec)
	}
	l.Close()
	segs, _ := os.ReadDir(dir)
	full, _ := os.ReadFile(filepath.Join(dir, segs[0].Name()))

	var boundaries []int
	off := 0
	for _, rec := range records {
		off += headerLen + len(rec)
		boundaries = append(boundaries, off)
	}

	for _, cut := range []int{5, 17, 40, 63, len(full) - 3} {
		if cut > len(full) {
			continue
		}
		data := append([]byte(nil), full[:cut]...)
		if cut > 0 {
			data[cut-1] ^= 0x55 // the very last byte is garbage
		}
		cutDir := t.TempDir()
		os.WriteFile(filepath.Join(cutDir, segs[0].Name()), data, 0o644)
		l2, err := Open(cutDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var got int
		l2.Replay(1, func(r Record) error {
			if !bytes.Equal(r.Data, records[got]) {
				t.Fatalf("cut %d: record %d corrupted", cut, got)
			}
			got++
			return nil
		})
		// The flipped byte invalidates at most the record containing
		// it; everything before its record boundary survives.
		maxComplete := sort.SearchInts(boundaries, cut+1)
		if got < maxComplete-1 || got > maxComplete {
			t.Fatalf("cut %d: recovered %d records, want %d or %d", cut, got, maxComplete-1, maxComplete)
		}
		l2.Close()
	}
}

// FuzzSegment: a segment's bytes are whatever the disk kept — torn, flipped
// or foreign — so the frame walker must never panic or hand out bytes beyond
// its input, and a log opened over them as its only (tail) segment must
// replay exactly the records Open counted. The same bytes as a log's only
// base must be taken only when they are whole frames whose last is the seal
// of the base's sequence, and then replay as the records before it.
func FuzzSegment(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte("alpha"))
	l.AppendBatch([][]byte{[]byte("b0"), nil, []byte("b2-middle")})
	l.Append(bytes.Repeat([]byte("z"), 40))
	l.Close()
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:headerLen+5+headerLen+2]) // inside the batch
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	const baseSeq = 42
	base := sealedBase(f, [][]byte{[]byte("alpha"), nil, []byte("b2-middle")}, baseSeq)
	f.Add(base)
	f.Add(base[:len(base)-headerLen-8])             // the seal cut off
	f.Add(sealedBase(f, nil, baseSeq))              // the empty store
	f.Add(sealedBase(f, [][]byte{base}, baseSeq+1)) // sealed for another sequence
	path := filepath.Join(dir, segName(1))
	baseDir := f.TempDir()
	basePath := filepath.Join(baseDir, baseName(baseSeq))
	f.Fuzz(func(t *testing.T, seg []byte) {
		off := 0
		var frames [][]byte
		n, valid, walkErr := walk(seg, math.MaxUint64, func(data []byte, _ bool) error {
			start := off + headerLen
			if cap(data) != len(data) || start+len(data) > len(seg) || !bytes.Equal(data, seg[start:start+len(data)]) {
				t.Fatalf("frame at %d: %d bytes (cap %d) are not the segment's", off, len(data), cap(data))
			}
			off = start + len(data)
			frames = append(frames, data)
			return nil
		})
		if valid > off || n > uint64(len(seg)/headerLen) {
			t.Fatalf("walk committed %d records up to byte %d of %d walked", n, valid, off)
		}
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open of a lone tail segment: %v", err)
		}
		defer l.Close()
		var got uint64
		if err := l.Replay(1, func(Record) error { got++; return nil }); err != nil {
			t.Fatalf("Replay after Open: %v", err)
		}
		if got != n || l.NextSeq() != n+1 {
			t.Fatalf("Open counted %d records (NextSeq %d), Replay yielded %d, the walk %d", l.NextSeq()-1, l.NextSeq(), got, n)
		}

		if err := os.WriteFile(basePath, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		sealed := walkErr == nil && len(frames) > 0 && bytes.Equal(frames[len(frames)-1], binary.LittleEndian.AppendUint64(nil, baseSeq))
		b, err := Open(baseDir, Options{NoSync: true})
		if (err == nil) != sealed {
			t.Fatalf("Open of a lone base = %v, sealed = %v", err, sealed)
		}
		if err != nil {
			return
		}
		defer b.Close()
		var records [][]byte
		if seq, err := b.ReplayBase(func(recs [][]byte) error { records = recs; return nil }); err != nil || seq != baseSeq || b.NextSeq() != baseSeq {
			t.Fatalf("ReplayBase = %d, %v (NextSeq %d), want %d", seq, err, b.NextSeq(), baseSeq)
		}
		if len(records) != len(frames)-1 {
			t.Fatalf("the base replayed %d records, the walk saw %d before the seal", len(records), len(frames)-1)
		}
	})
}

// sealedBase returns the bytes Compact writes for records sealed with seq.
func sealedBase(tb testing.TB, records [][]byte, seq uint64) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	if err := l.Compact(seq, records); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, baseName(seq)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
