package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// compactingOps is batch i of the self-compaction tests' workload: it
// rewrites one of 16 instance records and one of 7 history records, deletes
// another instance record, and every eighth batch appends to the journal — a
// small image under a long log.
func compactingOps(i int) []Op {
	ops := []Op{
		{Space: Instance, Key: fmt.Sprintf("inst/%02d", i%16), Value: []byte(fmt.Sprintf("turn %d", i))},
		{Space: History, Key: fmt.Sprintf("hist/%d", i%7), Value: bytes.Repeat([]byte{byte(i)}, i%40)},
		{Space: Instance, Key: fmt.Sprintf("inst/%02d", (i+5)%16), Delete: true},
	}
	if i%8 == 0 {
		ops = append(ops, EventOp([]byte(fmt.Sprintf("event %d", i))))
	}
	return ops
}

func digest(t *testing.T, s interface{ Digest() (string, error) }) string {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskCompactsItself: with 256-byte segments the trigger is 4 KiB or
// the base's bytes, whichever is larger. Nothing calls Snapshot, yet after
// every commit the log bytes since the base are under the trigger, the
// segments stay as few as those bytes need, and the base moves on; a reopen
// replays from the newest base onto the state of a twin that never
// compacted.
func TestDiskCompactsItself(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{NoSync: true, SegmentSize: 256}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := OpenDisk(t.TempDir(), DiskOptions{NoSync: true}) // a 64 MiB trigger
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	var bases int
	var last uint64
	for i := 0; i < 2000; i++ {
		for _, s := range []*Disk{d, twin} {
			if err := s.Batch(compactingOps(i)); err != nil {
				t.Fatal(err)
			}
		}
		s := d.Stats()
		if s.WALBytesSinceBase >= s.WALCompactAt || s.WALCompactAt < 16*256 {
			t.Fatalf("after batch %d: %d log bytes since the base, trigger %d", i, s.WALBytesSinceBase, s.WALCompactAt)
		}
		if most := int(s.WALCompactAt/256) + 2; s.WALSegments > most {
			t.Fatalf("after batch %d: %d segments, want at most %d", i, s.WALSegments, most)
		}
		if s.SnapshotSeq != last {
			bases, last = bases+1, s.SnapshotSeq
		}
	}
	if bases < 5 || d.Stats().SnapshotFailures != 0 || twin.Stats().SnapshotSeq != 0 {
		t.Fatalf("%d bases, %d failures; the twin's snapshot seq %d", bases, d.Stats().SnapshotFailures, twin.Stats().SnapshotSeq)
	}
	want := digest(t, twin)
	if got := digest(t, d); got != want {
		t.Fatalf("digest %s, the never-compacted twin's %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if s := re.Stats(); s.SnapshotSeq != last || s.WALBytesSinceBase >= s.WALCompactAt {
		t.Fatalf("reopened at base %d with %d log bytes after it; closed at base %d", s.SnapshotSeq, s.WALBytesSinceBase, last)
	}
	if got := digest(t, re); got != want {
		t.Fatalf("reopened digest %s, the never-compacted twin's %s", got, want)
	}
}

// TestSelfCompactionUnderConcurrentCommits: writers commit while the store
// compacts itself — and while a caller snapshots by hand, so bases finish
// out of order — and readers read. Each writer owns its keys, so the final
// state is a sequential twin's, before and after a reopen. Run it under
// -race.
func TestSelfCompactionUnderConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{NoSync: true, SegmentSize: 256}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 6, 300
	ops := func(w, i int) []Op {
		return []Op{
			{Space: Instance, Key: fmt.Sprintf("w%d/%d", w, i%8), Value: []byte(fmt.Sprintf("round %d", i))},
			{Space: History, Key: fmt.Sprintf("w%d", w), Value: bytes.Repeat([]byte{byte(w)}, i%50)},
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.Batch(ops(w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.Stats()
			if _, err := d.List(Instance); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()

	twin := NewMem()
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			if err := twin.Batch(ops(w, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := digest(t, twin)
	if s := d.Stats(); s.SnapshotSeq == 0 || s.SnapshotFailures != 0 {
		t.Fatalf("snapshot seq %d, %d failures", s.SnapshotSeq, s.SnapshotFailures)
	}
	if got := digest(t, d); got != want {
		t.Fatalf("digest %s, the sequential twin's %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := digest(t, re); got != want {
		t.Fatalf("reopened digest %s, the sequential twin's %s", got, want)
	}
}

// TestStandbyCompactsItself: a primary and its standby each compact their
// own log by the same rule and still digest alike. A standby that stops
// following while the primary compacts on has lost the records it needs
// from the primary's log, and catches up from the primary's base.
func TestStandbyCompactsItself(t *testing.T) {
	opts := DiskOptions{NoSync: true, SegmentSize: 256}
	p, err := OpenDisk(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()
	sdir := t.TempDir()
	follow := func() (*Standby, chan error) {
		sb, err := OpenStandby(sdir, opts)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- sb.Follow(shipper.Addr()) }()
		return sb, done
	}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			if err := p.Batch(compactingOps(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	sb, done := follow()
	write(0, 1500)
	waitDigest(t, sb.Store(), digest(t, p))
	ps, ss := p.Stats(), sb.Store().Stats()
	if ps.SnapshotSeq == 0 || ss.SnapshotSeq == 0 || ss.SnapshotFailures != 0 {
		t.Fatalf("primary base %d, standby base %d (%d failures): both must have compacted", ps.SnapshotSeq, ss.SnapshotSeq, ss.SnapshotFailures)
	}
	lagging := ss.WALNextSeq
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	write(1500, 3000)
	if oldest := p.log.OldestSeq(); oldest <= lagging {
		t.Fatalf("the primary still holds record %d from %d on; the lagging follower would not need its base", lagging, oldest)
	}
	sb, done = follow()
	waitDigest(t, sb.Store(), digest(t, p))
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFailedSelfCompactionFailsNoBatch: a directory squatting on the name
// of the base each batch would cut makes every self-compaction fail. The
// batches that trigger them are durable and succeed; each failure is
// counted, and the first commit past the trigger without a squatter
// compacts.
func TestFailedSelfCompactionFailsNoBatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{NoSync: true, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	twin := NewMem()
	i := 0
	for ; d.Stats().SnapshotFailures < 3; i++ {
		if i == 2000 {
			t.Fatal("no failed self-compaction after 2000 batches")
		}
		ops := compactingOps(i)
		base := filepath.Join(dir, "wal", fmt.Sprintf("snap-%020d.snap", d.Stats().WALNextSeq+uint64(len(ops))))
		if err := os.Mkdir(base, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := d.Batch(ops); err != nil {
			t.Fatalf("batch %d failed with its compaction: %v", i, err)
		}
		if err := os.Remove(base); err != nil {
			t.Fatal(err)
		}
		if err := twin.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.SnapshotSeq != 0 || s.WALBytesSinceBase < s.WALCompactAt || s.SnapshotFailures != 3 {
		t.Fatalf("after the failures: base %d, %d log bytes since it, trigger %d, %d failures",
			s.SnapshotSeq, s.WALBytesSinceBase, s.WALCompactAt, s.SnapshotFailures)
	}
	ops := compactingOps(i)
	if err := d.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if err := twin.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.SnapshotSeq == 0 || s.WALBytesSinceBase != 0 || s.SnapshotFailures != 3 {
		t.Fatalf("the retry: base %d, %d log bytes since it, %d failures", s.SnapshotSeq, s.WALBytesSinceBase, s.SnapshotFailures)
	}
	if got, want := digest(t, d), digest(t, twin); got != want {
		t.Fatalf("digest %s, the twin's %s", got, want)
	}
}
