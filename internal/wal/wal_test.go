package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
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
	if err := replay(l, from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// appendOne writes data as a batch of its own.
func appendOne(l *Log, data []byte) (uint64, error) { return l.AppendBatch([][]byte{data}) }

// replay calls fn for every record with sequence ≥ from, in order; each
// record's Data is a copy fn may keep.
func replay(l *Log, from uint64, fn func(Record) error) error {
	return l.replayFlagged(from, func(r Record, _ bool) error {
		r.Data = bytes.Clone(r.Data)
		return fn(r)
	})
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		seq, err := appendOne(l, []byte(fmt.Sprintf("record-%d", i)))
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
		if _, err := appendOne(l, []byte{byte(i)}); err != nil {
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
		appendOne(l, []byte("x"))
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	if l2.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", l2.NextSeq())
	}
	seq, err := appendOne(l2, []byte("y"))
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
		if _, err := appendOne(l, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
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
		appendOne(l, []byte("good"))
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
	seq, err := appendOne(l2, []byte("after-crash"))
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
	appendOne(l, []byte("one"))
	appendOne(l, []byte("two"))
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
		appendOne(l, bytes.Repeat([]byte{byte(i)}, 16))
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
		appendOne(l, bytes.Repeat([]byte{byte(i)}, 16))
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
	if _, err := appendOne(l, []byte("post")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRecord(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	if _, err := appendOne(l, nil); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l, 1)
	if len(recs) != 1 || len(recs[0].Data) != 0 {
		t.Fatalf("empty record round-trip failed: %v", recs)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	appendOne(l, []byte("a"))
	sentinel := errors.New("stop")
	err := replay(l, 1, func(Record) error { return sentinel })
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
			if _, err := appendOne(l, p); err != nil {
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
		replay(l2, 1, func(r Record) error {
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
	seq2, err := appendOne(l, []byte("four"))
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
	if err := replay(l2, 1, func(r Record) error {
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
		if _, err := appendOne(l, rec); err != nil {
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
		if err := replay(l2, 1, func(r Record) error {
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
		seq, err := appendOne(l2, []byte("post-crash"))
		if err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if seq != uint64(wantN+1) {
			t.Fatalf("cut %d: post-crash seq = %d, want %d", cut, seq, wantN+1)
		}
		l2.Close()
	}
}

// TestReplayAllocs: replay reads a segment with one read into a buffer and
// hands out records as subslices of it, so its allocations grow with the
// number of segments, not of records — a buffer per frame shows up at once.
// A segment costs 8: its name (fmt.Sprintf, 2), its path, the open file (3),
// its Stat and its buffer. Under the race detector slices.Grow allocates a
// temporary too, and fmt's pooled printer is dropped at random, so the budget
// there is looser.
func TestReplayAllocs(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true, SegmentSize: 16 << 10})
	data := make([]byte, 100)
	const records = 10000
	for i := 0; i < records; i += 4 {
		if _, err := l.AppendBatch([][]byte{data, data, data}); err != nil {
			t.Fatal(err)
		}
		if _, err := appendOne(l, data); err != nil {
			t.Fatal(err)
		}
	}
	segs := len(l.Segments())
	if segs < 10 {
		t.Fatalf("%d segments, want a multi-segment log", segs)
	}
	budget := float64(8*segs + 10)
	if raceEnabled {
		budget = float64(12*segs + 10)
	}
	var n int
	if got := testing.AllocsPerRun(3, func() {
		n = 0
		if err := l.replayFlagged(1, func(Record, bool) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}); n != records || got > budget {
		t.Errorf("replayFlagged of %d records in %d segments = %.0f allocs (%d records seen), want <= %.0f", records, segs, got, n, budget)
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

// TestSegmentAllocsIndependentOfFrames: a segment is read whole and walked
// in place, so opening a log or replaying it allocates no more for a segment
// of many frames than for one of few. A frame read or allocated on its own
// (io.ReadFull into a header, make([]byte) for a body) costs one allocation a
// frame, thousands here. Under the race detector fmt's pooled printer is
// dropped at random, so the budget there allows for it.
func TestSegmentAllocsIndependentOfFrames(t *testing.T) {
	parent := t.TempDir()
	allocs := func(frames int) (open, replay float64) {
		dir := filepath.Join(parent, fmt.Sprintf("wal%d", frames))
		l := openT(t, dir, Options{NoSync: true})
		for i := 0; i < frames; i++ {
			if _, err := appendOne(l, []byte{byte(i), 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		open = testing.AllocsPerRun(10, func() {
			l, err := Open(dir, Options{NoSync: true})
			if err == nil {
				err = l.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		l = openT(t, dir, Options{NoSync: true})
		replay = testing.AllocsPerRun(10, func() {
			n := 0
			if err := l.ReplayBatches(1, func(_ uint64, recs [][]byte) error { n += len(recs); return nil }); err != nil || n != frames {
				t.Fatalf("replayed %d of %d records: %v", n, frames, err)
			}
		})
		return open, replay
	}
	slack := 0.0
	if raceEnabled {
		slack = 4
	}
	fewOpen, fewReplay := allocs(4)
	manyOpen, manyReplay := allocs(4000)
	if manyOpen > fewOpen+slack || manyReplay > fewReplay+slack {
		t.Fatalf("a segment of 4000 frames: Open %.0f, ReplayBatches %.0f allocations; of 4 frames: %.0f and %.0f",
			manyOpen, manyReplay, fewOpen, fewReplay)
	}
}

// TestOpenAllocsIndependentOfSiblings: Open reads the log's own directory
// and nothing beside it, so opening the same log allocates as much with 50
// sibling directories next to it as with none. Under the race detector fmt's
// pooled printer is dropped at random, so the budget there allows for it.
func TestOpenAllocsIndependentOfSiblings(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "wal")
	l := openT(t, dir, Options{NoSync: true})
	if _, err := appendOne(l, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() float64 {
		return testing.AllocsPerRun(10, func() {
			l, err := Open(dir, Options{NoSync: true})
			if err == nil {
				err = l.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	alone := open()
	for i := 0; i < 50; i++ {
		if err := os.Mkdir(filepath.Join(parent, fmt.Sprintf("sibling%02d", i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	slack := 0.0
	if raceEnabled {
		slack = 4
	}
	if crowded := open(); crowded > alone+slack {
		t.Fatalf("Open allocates %.0f times beside 50 sibling directories, %.0f beside none", crowded, alone)
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
	err := replay(l, 1, func(r Record) error {
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
	if _, err := appendOne(l, data); err != nil {
		t.Fatal(err) // warm the pool
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := appendOne(l, data); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("a batch of one = %.1f allocs/op, want <= 1", got)
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

// faultFS is the log's file system with a hand on every call: it counts
// each call by operation and base name, and fails the calls fail picks —
// set, replaced or cleared while the log runs. A failed Write first writes
// half its bytes, as a disk that fills up part-way through does; a failed
// Close still releases the file, as close(2) does.
type faultFS struct {
	osFS
	mu    sync.Mutex
	calls map[string]int // "Sync wal-00000000000000000002.log" → count
	fail  func(op, name string) error
}

func newFaultFS() *faultFS { return &faultFS{calls: make(map[string]int)} }

// setFail installs the fault picker; nil fails nothing.
func (fs *faultFS) setFail(fail func(op, name string) error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fail = fail
}

// failOn fails every op call on the file or directory named base with err.
func (fs *faultFS) failOn(op, base string, err error) {
	fs.setFail(func(o, n string) error {
		if o == op && n == base {
			return err
		}
		return nil
	})
}

// count reports how many times op was called on base.
func (fs *faultFS) count(op, base string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.calls[op+" "+base]
}

// call records op on path and returns the fault picked for it, if any.
func (fs *faultFS) call(op, path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	base := filepath.Base(path)
	fs.calls[op+" "+base]++
	if fs.fail == nil {
		return nil
	}
	return fs.fail(op, base)
}

func (fs *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := fs.call("MkdirAll", path); err != nil {
		return err
	}
	return fs.osFS.MkdirAll(path, perm)
}

func (fs *faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := fs.call("ReadDir", dir); err != nil {
		return nil, err
	}
	return fs.osFS.ReadDir(dir)
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := fs.call("OpenFile", name); err != nil {
		return nil, err
	}
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (fs *faultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := fs.call("CreateTemp", dir); err != nil {
		return nil, err
	}
	f, err := fs.osFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (fs *faultFS) Truncate(name string, size int64) error {
	if err := fs.call("Truncate", name); err != nil {
		return err
	}
	return fs.osFS.Truncate(name, size)
}

func (fs *faultFS) Rename(from, to string) error {
	if err := fs.call("Rename", from); err != nil {
		return err
	}
	return fs.osFS.Rename(from, to)
}

func (fs *faultFS) Remove(name string) error {
	if err := fs.call("Remove", name); err != nil {
		return err
	}
	return fs.osFS.Remove(name)
}

// faultFile is a file opened through a faultFS.
type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) Write(b []byte) (int, error) {
	if err := f.fs.call("Write", f.Name()); err != nil {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, err
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	if err := f.fs.call("Sync", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.call("Truncate", f.Name()); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Close() error {
	err := f.fs.call("Close", f.Name())
	return errors.Join(err, f.File.Close())
}

// replayed reopens dir and returns its records as "seq:data" strings.
func replayed(t *testing.T, dir string, opts Options) []string {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	for _, r := range collect(t, l, 1) {
		got = append(got, fmt.Sprintf("%d:%s", r.Seq, r.Data))
	}
	return got
}

// TestShortWriteThenAcknowledgedBatch: a batch whose write fails part-way
// through a frame leaves nothing behind, so the batch acknowledged after it
// is not mistaken for a torn tail and cut away on reopen.
func TestShortWriteThenAcknowledgedBatch(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, []byte("a")); err != nil {
		t.Fatal(err)
	}
	fs.failOn("Write", segName(1), syscall.ENOSPC)
	if _, err := l.AppendBatch([][]byte{[]byte("lost-1"), []byte("lost-2")}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write: err = %v, want ENOSPC", err)
	}
	fs.setFail(nil)
	seq, err := appendOne(l, []byte("c"))
	if err != nil || seq != 2 {
		t.Fatalf("append after the short write = %d, %v; want 2, nil", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := replayed(t, dir, Options{}), []string{"1:a", "2:c"}; !slices.Equal(got, want) {
		t.Fatalf("reopened log replays %q, want %q", got, want)
	}
}

// TestFailedSyncPoisonsUntilReopen: a batch whose write succeeds but whose
// fsync fails is taken back and poisons the log — every later append fails
// with ErrPoisoned, and Poisoned says why — until it is reopened; then three acknowledged batches,
// across a rotation, replay under the sequences they were given, with the
// failed batch nowhere.
func TestFailedSyncPoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 64}
	fs := newFaultFS()
	l, err := Open(dir, Options{SegmentSize: opts.SegmentSize, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, []byte("a")); err != nil {
		t.Fatal(err)
	}
	fs.failOn("Sync", segName(1), syscall.EIO)
	if _, err := appendOne(l, []byte("failed")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed fsync: err = %v, want EIO", err)
	}
	if _, err := appendOne(l, []byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on a poisoned log: err = %v, want ErrPoisoned", err)
	}
	if err := l.Poisoned(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Poisoned() = %v, want ErrPoisoned wrapping EIO", err)
	}
	fs.setFail(nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Poisoned(); err != nil {
		t.Fatalf("Poisoned() after reopen = %v, want nil", err)
	}
	want := []string{"1:a"}
	for i := 0; i < 3; i++ {
		data := fmt.Sprintf("acknowledged-%d-%s", i, strings.Repeat("x", 40))
		seq, err := appendOne(l, []byte(data))
		if err != nil || seq != uint64(2+i) {
			t.Fatalf("append %d after reopen = %d, %v; want %d, nil", i, seq, err, 2+i)
		}
		want = append(want, fmt.Sprintf("%d:%s", seq, data))
	}
	if n := len(l.Segments()); n < 2 {
		t.Fatalf("%d segments, want a rotation between the acknowledged batches", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, dir, opts); !slices.Equal(got, want) {
		t.Fatalf("reopened log replays %q, want %q", got, want)
	}
}

// rotated opens a log over a fault file system with 64-byte segments and
// fills its first segment, so the next append rotates.
func rotated(t *testing.T, dir string) (*Log, *faultFS) {
	t.Helper()
	fs := newFaultFS()
	l, err := Open(dir, Options{SegmentSize: 64, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatal(err)
	}
	return l, fs
}

// TestRotationDirSyncFailurePoisons: a rotation whose directory sync fails
// poisons the log. Were the next batch acknowledged into the new segment, a
// power loss could drop the segment's name and every batch inside it.
func TestRotationDirSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	l, fs := rotated(t, dir)
	synced := fs.count("Sync", filepath.Base(dir))
	fs.failOn("Sync", filepath.Base(dir), syscall.EIO)
	if _, err := appendOne(l, []byte("b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append across a failed directory sync: err = %v, want EIO", err)
	}
	if n := fs.count("Sync", filepath.Base(dir)); n != synced+1 {
		t.Fatalf("%d directory syncs during the rotation, want 1", n-synced)
	}
	fs.setFail(nil)
	if seq, err := appendOne(l, []byte("c")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after the failed rotation = %d, %v; want ErrPoisoned", seq, err)
	}
	if err := l.Poisoned(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Poisoned() = %v, want ErrPoisoned wrapping EIO", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, dir, Options{}); len(got) != 1 || !strings.HasPrefix(got[0], "1:") {
		t.Fatalf("reopened log replays %q, want only record 1", got)
	}
}

// TestRotationCloseFailurePoisons: a rotation whose old segment fails to
// close poisons the log with that error, and the log lets go of the file:
// later appends fail with ErrPoisoned, not with "file already closed".
func TestRotationCloseFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	l, fs := rotated(t, dir)
	fs.failOn("Close", segName(1), syscall.EIO)
	if _, err := appendOne(l, []byte("b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append across a failed close: err = %v, want EIO", err)
	}
	fs.setFail(nil)
	if _, err := appendOne(l, []byte("c")); !errors.Is(err, ErrPoisoned) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after the failed rotation: err = %v, want ErrPoisoned wrapping EIO", err)
	}
	if n := fs.count("OpenFile", segName(2)); n != 0 {
		t.Fatalf("the failed rotation went on to open %s", segName(2))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after the failed rotation: %v", err)
	}
	if got := replayed(t, dir, Options{}); len(got) != 1 || !strings.HasPrefix(got[0], "1:") {
		t.Fatalf("reopened log replays %q, want only record 1", got)
	}
}

// TestOpenRemovesCrashedCompactionBase: a compaction that dies between
// writing its temporary base and renaming it leaves the file behind; the
// next Open removes it, and the log it opens is the one before.
func TestOpenRemovesCrashedCompactionBase(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := appendOne(l, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The crash: the rename never happens, and neither does the cleanup.
	fs.setFail(func(op, name string) error {
		if (op == "Rename" || op == "Remove") && strings.HasSuffix(name, tmpSuffix) {
			return syscall.EIO
		}
		return nil
	})
	if err := l.Compact(3, [][]byte{[]byte("image")}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact with a failing rename: err = %v, want EIO", err)
	}
	fs.setFail(nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stray, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if len(stray) != 1 {
		t.Fatalf("temporary bases after the crash: %v, want one", stray)
	}
	if got, want := replayed(t, dir, Options{}), []string{"1:a", "2:b", "3:c"}; !slices.Equal(got, want) {
		t.Fatalf("reopened log replays %q, want %q", got, want)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(left) != 0 {
		t.Fatalf("Open left %v behind", left)
	}
}
