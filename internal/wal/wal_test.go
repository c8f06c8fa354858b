package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"bioopera/internal/codec"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	recs := collect(t, l, 1)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("record-%d", i)
		if string(r.Data) != want || r.Seq != uint64(i+1) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.Seq, r.Data, i+1, want)
		}
	}
}

func TestReplayFrom(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs := collect(t, l, 15)
	if len(recs) != 6 {
		t.Fatalf("replayed %d, want 6", len(recs))
	}
	if recs[0].Seq != 15 || recs[0].Data[0] != 14 {
		t.Fatalf("first = (%d, %v)", recs[0].Seq, recs[0].Data)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]byte("x"))
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	if l2.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", l2.NextSeq())
	}
	seq, err := l2.Append([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after reopen seq = %d, want 6", seq)
	}
	if got := len(collect(t, l2, 1)); got != 6 {
		t.Fatalf("replayed %d, want 6", got)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("expected several segments, got %d", n)
	}
	recs := collect(t, l, 1)
	if len(recs) != 30 {
		t.Fatalf("replayed %d across segments, want 30", len(recs))
	}
	for i, r := range recs {
		if r.Data[0] != byte(i) {
			t.Fatalf("record %d has wrong payload", i)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte("good"))
	}
	l.Close()

	// Simulate a crash mid-append: append garbage (a partial frame) to
	// the tail segment.
	segs, _ := os.ReadDir(dir)
	tail := filepath.Join(dir, segs[len(segs)-1].Name())
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated header+data
	f.Close()

	l2 := openT(t, dir, Options{})
	recs := collect(t, l2, 1)
	if len(recs) != 5 {
		t.Fatalf("after torn tail, replayed %d records, want 5", len(recs))
	}
	// And the log accepts new appends with the right sequence.
	seq, err := l2.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("seq after repair = %d, want 6", seq)
	}
	recs = collect(t, l2, 1)
	if len(recs) != 6 || string(recs[5].Data) != "after-crash" {
		t.Fatalf("post-repair replay wrong: %d records", len(recs))
	}
}

func TestTornChecksumTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("one"))
	l.Append([]byte("two"))
	l.Close()

	// Flip a bit in the *last* record's data: treated as torn, dropped.
	segs, _ := os.ReadDir(dir)
	tail := filepath.Join(dir, segs[0].Name())
	data, _ := os.ReadFile(tail)
	data[len(data)-1] ^= 0xff
	os.WriteFile(tail, data, 0o644)

	l2 := openT(t, dir, Options{})
	recs := collect(t, l2, 1)
	if len(recs) != 1 || string(recs[0].Data) != "one" {
		t.Fatalf("replayed %v, want just 'one'", recs)
	}
}

func TestInteriorCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentSize: 32})
	for i := 0; i < 10; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 16))
	}
	l.Close()

	// Corrupt the FIRST segment (not the tail).
	segs, _ := os.ReadDir(dir)
	first := filepath.Join(dir, segs[0].Name())
	data, _ := os.ReadFile(first)
	data[len(data)-1] ^= 0xff
	os.WriteFile(first, data, 0o644)

	_, err := Open(dir, Options{SegmentSize: 32})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with interior corruption = %v, want ErrCorrupt", err)
	}
}

// TestTruncateBefore: Compact removes the segments wholly below its base's
// sequence and keeps the rest replayable and appendable.
func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 40})
	for i := 0; i < 20; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 16))
	}
	before := len(l.Segments())
	if before < 4 {
		t.Fatalf("want several segments, got %d", before)
	}
	if err := l.Compact(15, nil); err != nil {
		t.Fatal(err)
	}
	after := len(l.Segments())
	if after >= before {
		t.Fatalf("Compact removed nothing (%d -> %d)", before, after)
	}
	// Records ≥ 15 still replayable.
	recs := collect(t, l, 15)
	if len(recs) != 6 {
		t.Fatalf("replayed %d records from 15, want 6", len(recs))
	}
	// Appends still work after truncation.
	if _, err := l.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRecord(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l, 1)
	if len(recs) != 1 || len(recs[0].Data) != 0 {
		t.Fatalf("empty record round-trip failed: %v", recs)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	l.Append([]byte("a"))
	sentinel := errors.New("stop")
	err := l.Replay(1, func(Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Replay error = %v, want sentinel", err)
	}
}

// Property: any sequence of payloads round-trips bit-exactly through
// append + reopen + replay, across segment rotations.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentSize: 128})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		l2, err := Open(dir, Options{SegmentSize: 128})
		if err != nil {
			return false
		}
		defer l2.Close()
		var got [][]byte
		l2.Replay(1, func(r Record) error {
			got = append(got, r.Data)
			return nil
		})
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendBatch(nil); err != nil || seq != 0 {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", seq, err)
	}
	syncsBefore := l.Syncs()
	batch := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	seq, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first batch seq = %d, want 1", seq)
	}
	if got := l.Syncs() - syncsBefore; got != 1 {
		t.Fatalf("batch of 3 took %d fsyncs, want 1", got)
	}
	// Sequence numbering continues past the whole batch.
	seq2, err := l.Append([]byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 4 {
		t.Fatalf("append after batch seq = %d, want 4", seq2)
	}
	l.Close()

	// Replay sees every record, flags masked.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	if err := l2.Replay(1, func(r Record) error {
		got = append(got, string(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three", "four"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

// TestCrashMidBatchAtEveryByte is the group-commit atomicity test: a log
// holding two single records followed by a 4-record batch is truncated at
// every byte offset. Recovery must see either none of the batch or all of
// it — never a partial batch — and single records recover individually as
// before.
func TestCrashMidBatchAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	singles := [][]byte{[]byte("alpha"), []byte("beta-beta")}
	for _, rec := range singles {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	batch := [][]byte{
		[]byte("b0"),
		bytes.Repeat([]byte("b1"), 9),
		[]byte("b2-middle"),
		bytes.Repeat([]byte("b3"), 4),
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
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

	// Byte offsets at which each single record commits, and the offset at
	// which the whole batch commits (its final frame's end).
	var commitPoints []int // commitPoints[i] = bytes needed for i+1 records
	off := 0
	for _, rec := range singles {
		off += headerLen + len(rec)
		commitPoints = append(commitPoints, off)
	}
	batchStart := off
	for _, rec := range batch {
		off += headerLen + len(rec)
	}
	batchEnd := off
	_ = batchStart

	want := func(cut int) int {
		n := 0
		for _, p := range commitPoints {
			if cut >= p {
				n++
			}
		}
		if cut >= batchEnd {
			n += len(batch)
		}
		return n
	}

	all := append(append([][]byte{}, singles...), batch...)
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
		wantN := want(cut)
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d (batch must be all-or-nothing)", cut, len(got), wantN)
		}
		for i := range got {
			if !bytes.Equal(got[i], all[i]) {
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

// TestReplayAllocs: replay reads a segment with one os.ReadFile and hands
// out records as subslices of it, so its allocations grow with the number of
// segments, not of records — a buffer per frame shows up at once.
func TestReplayAllocs(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true, SegmentSize: 16 << 10})
	data := make([]byte, 100)
	const records = 10000
	for i := 0; i < records; i += 4 {
		if _, err := l.AppendBatch([][]byte{data, data, data}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	segs := len(l.Segments())
	if segs < 10 {
		t.Fatalf("%d segments, want a multi-segment log", segs)
	}
	budget := float64(10*segs + 10)
	var n int
	if got := testing.AllocsPerRun(3, func() {
		n = 0
		if err := l.Replay(1, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}); n != records || got > budget {
		t.Errorf("Replay of %d records in %d segments = %.0f allocs (%d records seen), want <= %.0f", records, segs, got, n, budget)
	}
	if got := testing.AllocsPerRun(3, func() {
		n = 0
		if err := l.ReplayBatches(1, func(_ uint64, recs [][]byte) error { n += len(recs); return nil }); err != nil {
			t.Fatal(err)
		}
	}); n != records || got > budget {
		t.Errorf("ReplayBatches of %d records in %d segments = %.0f allocs (%d records seen), want <= %.0f", records, segs, got, n, budget)
	}
}

// truncatedMiddle builds a log of several segments, reopens it, and then —
// behind the open Log's back — cuts the last batch off its second segment,
// the way a disk fault or a shipper reading a live log would see it. It
// returns the reopened log and the cut segment's name.
func truncatedMiddle(t *testing.T) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{NoSync: true, SegmentSize: 64}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.AppendBatch([][]byte{{byte(i)}, bytes.Repeat([]byte{byte(i)}, 20)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l = openT(t, dir, opts)
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(segs))
	}
	name := segName(segs[1])
	path := filepath.Join(dir, name)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every batch is one 9-byte and one 28-byte frame.
	if err := os.Truncate(path, int64(len(seg)-(headerLen+1)-(headerLen+20))); err != nil {
		t.Fatal(err)
	}
	return l, name
}

// TestReplayShortSegmentIsCorrupt: a closed segment that yields fewer records
// than its successor's first sequence says is corruption, not a shorter
// replay that carries on into the next segment.
func TestReplayShortSegmentIsCorrupt(t *testing.T) {
	l, name := truncatedMiddle(t)
	var seen []uint64
	err := l.Replay(1, func(r Record) error {
		seen = append(seen, r.Seq)
		return nil
	})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("Replay = %v, want ErrCorrupt naming %s", err, name)
	}
	if last := seen[len(seen)-1]; last >= l.Segments()[2] {
		t.Fatalf("replay went on into the next segment (record %d)", last)
	}
	if err := l.ReplayBatches(1, func(uint64, [][]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayBatches = %v, want ErrCorrupt", err)
	}
	if _, err := Open(l.dir, Options{NoSync: true, SegmentSize: 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestShippingRefusesShortSegment: a follower catching up across the cut
// segment gets the batches before it and then loses the stream; the shipper
// reports the corruption and ships nothing from the segments after it.
func TestShippingRefusesShortSegment(t *testing.T) {
	l, name := truncatedMiddle(t)
	var mu sync.Mutex
	var logged []string
	sh, err := NewShipper("127.0.0.1:0", ShipperOptions{Log: l, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var last uint64
	f, err := DialFollower(sh.Addr(), FollowerOptions{From: 1, ApplyBatch: func(first uint64, records [][]byte) error {
		last = first + uint64(len(records)) - 1
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err == nil {
		t.Fatal("follower's stream ended cleanly across a short segment")
	}
	if last >= l.Segments()[2] {
		t.Fatalf("shipped record %d from beyond the short segment", last)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(strings.Join(logged, "\n"), name) {
		t.Fatalf("shipper never reported %s: %q", name, logged)
	}
}

func TestAppendAllocs(t *testing.T) {
	// The frame encode buffer is pooled: steady-state appends must not
	// allocate (NoSync isolates the encode path from fsync syscalls).
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 256)
	batch := [][]byte{data, data, data, data}
	if _, err := l.Append(data); err != nil {
		t.Fatal(err) // warm the pool
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(data); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Append = %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("AppendBatch(4) = %.1f allocs/op, want <= 1", got)
	}
}

// TestFollowerRefusesCorruptFrames: a shipped record carries its WAL checksum
// over the wire, in a records frame and in a base alike, so a byte flipped
// on the way stops the follower with ErrCorrupt before anything is applied.
func TestFollowerRefusesCorruptFrames(t *testing.T) {
	var applied []string
	f := &Follower{opts: FollowerOptions{
		ApplyBatch: func(first uint64, records [][]byte) error {
			applied = append(applied, fmt.Sprintf("batch %d: %q", first, records))
			return nil
		},
		ApplySnapshot: func(seq uint64, records [][]byte) error {
			applied = append(applied, fmt.Sprintf("base %d: %q", seq, records))
			return nil
		},
	}}
	records := [][]byte{[]byte("alpha"), []byte("beta")}
	for _, c := range []struct {
		kind byte
		body []byte
		want string
	}{
		{codec.FrameShipRecords, appendFrames([]byte{7}, records, false), `batch 7: ["alpha" "beta"]`},
		{codec.FrameShipSnapshot, append([]byte{7}, sealedBase(t, records, 7)...), `base 7: ["alpha" "beta"]`},
	} {
		applied = nil
		if err := f.Frame(c.kind, c.body); err != nil || len(applied) != 1 || applied[0] != c.want {
			t.Fatalf("kind %d: Frame = %v, applied %q, want %q", c.kind, err, applied, c.want)
		}
		applied = nil
		c.body[1+headerLen] ^= 0x20 // the first record's first byte, after the uvarint 7
		if err := f.Frame(c.kind, c.body); !errors.Is(err, ErrCorrupt) || len(applied) != 0 {
			t.Fatalf("kind %d with a flipped byte: Frame = %v, applied %q; want ErrCorrupt and nothing", c.kind, err, applied)
		}
	}
}
