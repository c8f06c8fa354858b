package wal

import (
	"bytes"
	"fmt"
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

// FuzzDecodeRecords: the records-frame body arrives from the network, so
// its decoder must never panic or allocate past its input, and must read
// back what appendRecords wrote.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(appendRecords(nil, 42, [][]byte{[]byte("abc"), nil, []byte("de")}))
	f.Add(appendRecords(nil, 1, nil))
	f.Add([]byte{0x2a, 0xff, 0xff, 0xff, 0xff, 0x0f}) // count far beyond the body
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, records, err := decodeRecords(data); err == nil && len(records) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(records), len(data))
		}
		records := bytes.Split(data, []byte{0})
		first, got, err := decodeRecords(appendRecords(nil, uint64(len(data)), records))
		if err != nil || first != uint64(len(data)) || len(got) != len(records) {
			t.Fatalf("round trip: first %d, %d records, err %v", first, len(got), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], records[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
			}
		}
	})
}
