package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"bioopera/internal/codec"
	"bioopera/internal/wal"
)

// backends returns both implementations so every behavioural test runs
// against each.
func backends(t *testing.T) map[string]func() Store {
	return map[string]func() Store{
		"mem": func() Store { return NewMem() },
		"disk": func() Store {
			d, err := OpenDisk(t.TempDir(), DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func TestPutGetDelete(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if err := s.Put(Template, "p1", []byte("def")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get(Template, "p1")
			if err != nil || !ok || string(v) != "def" {
				t.Fatalf("Get = (%q, %v, %v)", v, ok, err)
			}
			// Other spaces are isolated.
			if _, ok, _ := s.Get(Instance, "p1"); ok {
				t.Fatal("key leaked across spaces")
			}
			if err := s.Delete(Template, "p1"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get(Template, "p1"); ok {
				t.Fatal("key survived delete")
			}
			// Deleting a missing key is fine.
			if err := s.Delete(Template, "nope"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPutOverwrites(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			s.Put(Instance, "k", []byte("v1"))
			s.Put(Instance, "k", []byte("v2"))
			v, _, _ := s.Get(Instance, "k")
			if string(v) != "v2" {
				t.Fatalf("got %q, want v2", v)
			}
		})
	}
}

func TestListSorted(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for _, k := range []string{"zeta", "alpha", "mid"} {
				s.Put(Configuration, k, []byte(k))
			}
			kvs, err := s.List(Configuration)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"alpha", "mid", "zeta"}
			if len(kvs) != 3 {
				t.Fatalf("List len = %d", len(kvs))
			}
			for i, kv := range kvs {
				if kv.Key != want[i] {
					t.Fatalf("List order %v", kvs)
				}
			}
		})
	}
}

func TestEvents(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for i := 0; i < 5; i++ {
				seq, err := s.AppendEvent([]byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("event seq = %d, want %d", seq, i+1)
				}
			}
			var got []byte
			if err := s.Events(3, func(e Event) error {
				got = append(got, e.Data[0])
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{2, 3, 4}) {
				t.Fatalf("Events(3) = %v", got)
			}
		})
	}
}

func TestInvalidSpace(t *testing.T) {
	s := NewMem()
	if err := s.Put(Space(99), "k", nil); err == nil {
		t.Fatal("Put to invalid space succeeded")
	}
	if _, _, err := s.Get(Space(99), "k"); err == nil {
		t.Fatal("Get from invalid space succeeded")
	}
}

func TestClosed(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Close()
			if err := s.Put(Template, "k", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Put after close = %v, want ErrClosed", err)
			}
			if _, err := s.AppendEvent(nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("AppendEvent after close = %v", err)
			}
		})
	}
}

func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put(Template, "allvsall", []byte("process"))
	d.Put(Instance, "inst-1", []byte("running"))
	d.Put(Instance, "inst-2", []byte("doomed"))
	d.Delete(Instance, "inst-2")
	d.AppendEvent([]byte("started"))
	d.AppendEvent([]byte("node failed"))
	d.Close()

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	v, ok, _ := d2.Get(Template, "allvsall")
	if !ok || string(v) != "process" {
		t.Fatalf("template lost: (%q,%v)", v, ok)
	}
	if _, ok, _ := d2.Get(Instance, "inst-2"); ok {
		t.Fatal("deleted instance resurrected")
	}
	var n int
	d2.Events(1, func(e Event) error { n++; return nil })
	if n != 2 {
		t.Fatalf("recovered %d events, want 2", n)
	}
	// Event sequence continues.
	seq, _ := d2.AppendEvent([]byte("resumed"))
	if seq != 3 {
		t.Fatalf("event seq after recovery = %d, want 3", seq)
	}
}

// TestOpenDiskRefusesPreCodecJSONWAL: WAL replay reads codec frames only. A
// committed frame in the JSON shape an engine from before the codec wrote
// fails the open with an error saying so, instead of being replayed.
func TestOpenDiskRefusesPreCodecJSONWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(Instance, "inst-1", []byte("running")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte(`{"op":"put","sp":1,"k":"inst-2","v":"cnVubmluZw=="}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, DiskOptions{})
	if err == nil {
		d2.Close()
		t.Fatal("OpenDisk replayed a JSON WAL frame")
	}
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "pre-codec JSON") {
		t.Fatalf("OpenDisk = %v, want a pre-codec JSON refusal", err)
	}
}

func TestSnapshotAndRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d.Put(History, fmt.Sprintf("h-%02d", i), []byte(strings.Repeat("x", 20)))
	}
	d.AppendEvent([]byte("pre-snapshot"))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations land in the WAL only.
	d.Put(History, "post", []byte("after"))
	d.Delete(History, "h-00")
	d.AppendEvent([]byte("post-snapshot"))
	d.Close()

	d2, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	kvs, _ := d2.List(History)
	if len(kvs) != 50 { // 50 - deleted h-00 + post
		t.Fatalf("recovered %d history keys, want 50", len(kvs))
	}
	if _, ok, _ := d2.Get(History, "h-00"); ok {
		t.Fatal("post-snapshot delete lost")
	}
	if v, ok, _ := d2.Get(History, "post"); !ok || string(v) != "after" {
		t.Fatal("post-snapshot put lost")
	}
	var evs []string
	d2.Events(1, func(e Event) error { evs = append(evs, string(e.Data)); return nil })
	if len(evs) != 2 || evs[0] != "pre-snapshot" || evs[1] != "post-snapshot" {
		t.Fatalf("events after snapshot recovery = %v", evs)
	}
}

func TestSnapshotGCsWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 100; i++ {
		d.Put(Instance, "k", bytes.Repeat([]byte{byte(i)}, 32))
	}
	before := countWALFiles(t, dir)
	if before < 3 {
		t.Fatalf("want several WAL segments before snapshot, got %d", before)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := countWALFiles(t, dir)
	if after >= before {
		t.Fatalf("snapshot did not GC WAL segments: %d -> %d", before, after)
	}
}

func countWALFiles(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, _ := OpenDisk(dir, DiskOptions{})
	d.Put(Template, "k", []byte("v"))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Corrupt the snapshot file: recovery should still work because the
	// WAL was already truncated... so instead we verify graceful failure
	// mode: a *partially written* (unsealed) snapshot alongside a
	// complete WAL is skipped.
	d2dir := t.TempDir()
	d2, _ := OpenDisk(d2dir, DiskOptions{})
	d2.Put(Template, "k", []byte("v"))
	d2.Close()
	// Write garbage pretending to be a newer snapshot.
	os.WriteFile(filepath.Join(d2dir, "wal", "snap-09999999999999999999.snap"), []byte("{not json"), 0o644)
	d3, err := OpenDisk(d2dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if v, ok, _ := d3.Get(Template, "k"); !ok || string(v) != "v" {
		t.Fatal("corrupt snapshot prevented WAL recovery")
	}
}

// TestOpenDiskRefusesHole: once a snapshot has let the WAL be truncated,
// that snapshot is the only copy of the records before it. If it is
// unreadable — what a power loss leaves of a file nobody synced: cut
// mid-frame, empty, or whole frames without the seal — the store must
// refuse to open, naming it, not come up, without a word, holding only the
// handful of records the surviving WAL tail happens to carry.
func TestOpenDiskRefusesHole(t *testing.T) {
	for name, cut := range map[string]func(size int64) int64{
		"mid-frame":   func(int64) int64 { return 10 },
		"zero-length": func(int64) int64 { return 0 },
		"no seal":     func(size int64) int64 { return size - 16 }, // the seal is one 8-byte frame
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := d.Put(Instance, fmt.Sprintf("k%02d", i), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := d.Put(Instance, "tail", []byte("value")); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, _ := filepath.Glob(filepath.Join(dir, "wal", "snap-*.snap"))
			if len(snaps) != 1 {
				t.Fatalf("snapshots on disk: %v, want one", snaps)
			}
			info, err := os.Stat(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(snaps[0], cut(info.Size())); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
			if err == nil {
				kvs, _ := re.List(Instance)
				re.Close()
				t.Fatalf("opened with %d of 51 records and no error", len(kvs))
			}
			if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(snaps[0])) {
				t.Fatalf("OpenDisk = %v, want the refusal naming %s", err, filepath.Base(snaps[0]))
			}
		})
	}
}

// TestOpenDiskRefusesJSONSnapshot: before snapshots were framed, a store kept
// them as JSON beside its log. This build reads only framed ones, so such a
// store is refused by name instead of opened without its snapshot.
func TestOpenDiskRefusesJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(Instance, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", 2))
	if err := os.WriteFile(old, []byte(`{"walSeq":2,"eventSeq":0,"spaces":[[],[{"Key":"k","Value":"dg=="}],[],[]],"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, DiskOptions{})
	if err == nil {
		re.Close()
		t.Fatal("opened a store holding a JSON snapshot")
	}
	if !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "reads only framed snapshots") {
		t.Fatalf("OpenDisk = %v, want a refusal naming %s", err, old)
	}
}

// TestOpenDiskRefusesShortSegment: a WAL segment that is not the newest and
// lost its last commit unit — a cut at a frame boundary, so every frame left
// is whole — holds fewer records than its successor's first sequence says.
// The store must refuse to open, naming the segment, instead of replaying
// around the gap.
func TestOpenDiskRefusesShortSegment(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{SegmentSize: 256}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Put(Instance, fmt.Sprintf("k%02d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("%d WAL segments, want at least 3", len(segs))
	}
	middle := segs[1]
	data, err := os.ReadFile(middle)
	if err != nil {
		t.Fatal(err)
	}
	last := 0 // start of the segment's last frame: a Put is a one-frame unit
	for off := 0; off < len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])&^(1<<31)) {
		last = off
	}
	if err := os.Truncate(middle, int64(last)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, opts)
	if err == nil {
		kvs, _ := re.List(Instance)
		re.Close()
		t.Fatalf("opened with %d of 50 records and no error", len(kvs))
	}
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(middle)) {
		t.Fatalf("OpenDisk = %v, want ErrCorrupt naming %s", err, filepath.Base(middle))
	}
}

// TestValueIsolation: no slice crosses the store's boundary in either
// direction. A record is rewritten in its own buffer and a batch's journal
// entries share one, so what matters is that nothing a caller holds is that
// buffer: not the value it passed in, not a value it read before a rewrite.
func TestValueIsolation(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			buf := []byte("original")
			s.Put(Template, "k", buf)
			buf[0] = 'X'
			v, _, _ := s.Get(Template, "k")
			if string(v) != "original" {
				t.Fatal("Put aliased caller's buffer")
			}
			v[0] = 'Y'
			v2, _, _ := s.Get(Template, "k")
			if string(v2) != "original" {
				t.Fatal("Get aliased internal buffer")
			}

			// Reads taken before a shorter and a longer rewrite keep what
			// they read; the batch's own buffers can be reused once it returns.
			for _, next := range []string{"short", "a good deal longer than the original"} {
				got, _, _ := s.Get(Template, "k")
				want := string(got)
				kvs, _ := s.List(Template)
				val, ev := []byte(next), []byte("ev:"+next)
				if err := s.Batch([]Op{{Space: Template, Key: "k", Value: val}, EventOp(ev)}); err != nil {
					t.Fatal(err)
				}
				for i := range val {
					val[i] = '#'
				}
				for i := range ev {
					ev[i] = '#'
				}
				if string(got) != want || len(kvs) != 1 || string(kvs[0].Value) != want {
					t.Fatalf("rewrite to %q reached earlier reads: Get %q, List %q, want %q", next, got, kvs[0].Value, want)
				}
				if now, _, _ := s.Get(Template, "k"); string(now) != next {
					t.Fatalf("after rewrite k = %q, want %q", now, next)
				}
			}

			// Journal data read before later appends is unchanged after them,
			// even when a reader appends to what it was handed.
			var first []Event
			s.Events(1, func(ev Event) error { first = append(first, ev); return nil })
			_ = append(first[0].Data, "overrun"...)
			if err := s.Batch([]Op{EventOp([]byte("third")), EventOp([]byte("fourth"))}); err != nil {
				t.Fatal(err)
			}
			var all []string
			s.Events(1, func(ev Event) error { all = append(all, string(ev.Data)); return nil })
			want := []string{"ev:short", "ev:a good deal longer than the original", "third", "fourth"}
			if !reflect.DeepEqual(all, want) || string(first[0].Data) != want[0] || string(first[1].Data) != want[1] {
				t.Fatalf("journal = %q (read earlier: %q, %q), want %q", all, first[0].Data, first[1].Data, want)
			}
		})
	}
}

// TestRewritesPinNothing: a record rewritten 2,000 times with a growing value,
// beside 2,000 records written once in the same batches, leaves the heap near
// the live bytes. An apply that carved each batch's values from one slab would
// have every write-once record pin the dead copy of the hot one written beside
// it — here 70 MB instead of 1 — which on a month-long instance is every
// finished task pinning a copy of its scope's whiteboard record.
func TestRewritesPinNothing(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			const rounds, onceLen = 2000, 512
			once := bytes.Repeat([]byte{'t'}, onceLen)
			var hot []byte
			heap := func() uint64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			live := 0
			for i := 0; i < rounds; i++ {
				hot = append(hot, "grows by this much every turn......"...)
				key := fmt.Sprintf("once/%04d", i)
				if err := s.Batch([]Op{
					{Space: Instance, Key: "hot", Value: hot},
					{Space: Instance, Key: key, Value: once},
				}); err != nil {
					t.Fatal(err)
				}
				live += len(key) + onceLen
			}
			live += len(hot)
			after := heap()
			runtime.KeepAlive(s)
			if grew := int64(after) - int64(before); grew > 2*int64(live) {
				t.Errorf("heap grew %d bytes for %d live: dead copies are pinned", grew, live)
			} else {
				t.Logf("heap grew %d bytes for %d live", grew, live)
			}
		})
	}
}

// Property: a random sequence of puts, deletes, batches, journal appends
// and mid-sequence snapshots leaves Mem, Disk, the same Disk reopened, and
// a Standby that followed it (joining half-way, so a snapshot taken before
// then bootstraps it) with identical contents — Digest on the image all
// three share, and the journal event for event.
func TestBackendsEquivalentProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Space uint8
		Key   uint8
		Val   byte
	}
	journal := func(s Store) (evs []Event) {
		s.Events(0, func(e Event) error { evs = append(evs, e); return nil })
		return evs
	}
	f := func(ops []op) bool {
		if len(ops) == 0 {
			return true
		}
		dir := t.TempDir()
		mem := NewMem()
		disk, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
		if err != nil {
			return false
		}
		shipper, err := disk.StartShipping("127.0.0.1:0", t.Logf)
		if err != nil {
			return false
		}
		standby, err := OpenStandby(t.TempDir(), DiskOptions{SegmentSize: 256})
		if err != nil {
			shipper.Close()
			return false
		}
		var followed chan error
		defer func() {
			standby.Close()
			shipper.Close()
			if followed != nil {
				<-followed // Follow logs through t: it must be gone before the test is
			}
		}()
		for i, o := range ops {
			if i == len(ops)/2 {
				followed = make(chan error, 1)
				go func() { followed <- standby.Follow(shipper.Addr(), t.Logf) }()
			}
			sp := Space(o.Space % uint8(numSpaces))
			key := fmt.Sprintf("k%d", o.Key%8)
			for _, s := range []Store{mem, disk} {
				switch o.Kind % 8 {
				case 0, 1, 2:
					err = s.Put(sp, key, []byte{o.Val})
				case 3:
					err = s.Delete(sp, key)
				case 4:
					err = s.Batch([]Op{
						{Space: sp, Key: key, Value: []byte{o.Val}},
						{Space: (sp + 1) % numSpaces, Key: key, Delete: true},
						{Space: sp, Key: fmt.Sprintf("k%d", o.Val%8), Value: []byte{o.Key, o.Val}},
					})
				case 5, 6:
					_, err = s.AppendEvent([]byte{o.Key, o.Val})
				case 7:
					if s == Store(disk) {
						err = disk.Snapshot()
					}
				}
				if err != nil {
					t.Logf("op %d (%+v): %v", i, o, err)
					return false
				}
			}
		}
		want, _ := mem.Digest()
		if got, _ := disk.Digest(); got != want {
			t.Logf("disk digest %s, mem %s", got, want)
			return false
		}
		waitDigest(t, standby.Store(), want)
		wantJournal := journal(mem)
		if !reflect.DeepEqual(journal(standby.Store()), wantJournal) {
			t.Logf("standby journal differs from mem's")
			return false
		}
		disk.Close()
		re, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
		if err != nil {
			return false
		}
		defer re.Close()
		if got, _ := re.Digest(); got != want {
			t.Logf("reopened disk digest %s, mem %s", got, want)
			return false
		}
		return reflect.DeepEqual(journal(re), wantJournal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAtomicAcrossSpaces(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			s.Put(Instance, "gone", []byte("old"))
			ops := []Op{
				{Space: Instance, Key: "inst/p1", Value: []byte("meta")},
				{Space: Instance, Key: "scope/p1/-", Value: []byte("root")},
				{Space: History, Key: "inst/p0", Value: []byte("done")},
				{Space: Instance, Key: "gone", Delete: true},
			}
			if err := s.Batch(ops); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get(Instance, "inst/p1"); !ok || string(v) != "meta" {
				t.Fatalf("batch put missing: (%q,%v)", v, ok)
			}
			if v, ok, _ := s.Get(History, "inst/p0"); !ok || string(v) != "done" {
				t.Fatalf("cross-space batch put missing: (%q,%v)", v, ok)
			}
			if _, ok, _ := s.Get(Instance, "gone"); ok {
				t.Fatal("batch delete not applied")
			}
		})
	}
}

func TestBatchEmpty(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if err := s.Batch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := s.Batch([]Op{}); err != nil {
				t.Fatalf("zero-length batch: %v", err)
			}
		})
	}
}

func TestBatchInvalidSpaceRejectsWhole(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			ops := []Op{
				{Space: Instance, Key: "good", Value: []byte("v")},
				{Space: Space(99), Key: "bad", Value: []byte("v")},
			}
			if err := s.Batch(ops); err == nil {
				t.Fatal("batch with invalid space succeeded")
			}
			if _, ok, _ := s.Get(Instance, "good"); ok {
				t.Fatal("partial batch applied despite invalid op")
			}
		})
	}
}

func TestBatchSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put(Instance, "stale", []byte("x"))
	err = d.Batch([]Op{
		{Space: Instance, Key: "a", Value: []byte("1")},
		{Space: Configuration, Key: "b", Value: []byte("2")},
		{Space: Instance, Key: "stale", Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, _, _ := d2.Get(Instance, "a"); string(v) != "1" {
		t.Fatalf("batch put lost across reopen: %q", v)
	}
	if v, _, _ := d2.Get(Configuration, "b"); string(v) != "2" {
		t.Fatalf("cross-space batch put lost across reopen: %q", v)
	}
	if _, ok, _ := d2.Get(Instance, "stale"); ok {
		t.Fatal("batch delete lost across reopen")
	}
}

func TestBatchGroupCommitsSyncs(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := d.WALSyncs()
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Space: Instance, Key: fmt.Sprintf("k%02d", i), Value: []byte("v")}
	}
	if err := d.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if got := d.WALSyncs() - before; got != 1 {
		t.Fatalf("batch of 16 ops took %d fsyncs, want 1", got)
	}
}

// TestGroupCommitFollowers makes one group with followers on purpose: the test
// holds wmu the way a previous group's fsync does, so the first caller leads
// and blocks there while the rest enroll behind it. The group then costs one
// fsync and every caller gets the leader's result — each AppendEvent its own
// journal sequence — or, when the store is closed under the group, the same
// error, with none of their ops in the log.
func TestGroupCommitFollowers(t *testing.T) {
	const callers = 6
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			// A commit nobody followed leaves its group as the spare: the
			// group under test is a reused one.
			if err := d.Put(Instance, "before", []byte("v")); err != nil {
				t.Fatal(err)
			}
			syncs, groups := d.WALSyncs(), d.Stats().CommitGroups

			d.wmu.Lock()
			errs, seqs := make([]error, callers), make([]uint64, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					key := fmt.Sprintf("k%d", i)
					if i%2 == 0 {
						errs[i] = d.Batch([]Op{
							{Space: Instance, Key: key, Value: []byte(key)},
							{Space: History, Key: key, Value: []byte(key)},
						})
					} else {
						seqs[i], errs[i] = d.AppendEvent([]byte(key))
					}
				}(i)
			}
			for enrolled := 0; enrolled < callers; runtime.Gosched() {
				d.gmu.Lock()
				if d.pending != nil {
					enrolled = len(d.pending.reqs)
				}
				d.gmu.Unlock()
			}
			if fail {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			d.wmu.Unlock()
			wg.Wait()

			if fail {
				for i, err := range errs {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("caller %d: err = %v, want ErrClosed like every other", i, err)
					}
				}
				if d, err = OpenDisk(dir, DiskOptions{}); err != nil {
					t.Fatal(err)
				}
				defer d.Close()
			} else {
				for i, err := range errs {
					if err != nil {
						t.Errorf("caller %d: %v", i, err)
					}
				}
				if got := d.WALSyncs() - syncs; got != 1 {
					t.Errorf("%d fsyncs for one group of %d callers, want 1", got, callers)
				}
				if got := d.Stats().CommitGroups - groups; got != 1 {
					t.Errorf("%d commit groups, want 1", got)
				}
				// The followed group is its followers' to read, not the next
				// leader's to reuse: a commit after it starts clean.
				if err := d.Put(Instance, "after", []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			journal := make(map[uint64]string)
			if err := d.Events(1, func(ev Event) error { journal[ev.Seq] = string(ev.Data); return nil }); err != nil {
				t.Fatal(err)
			}
			wantEvents := 0
			for i := 0; i < callers; i++ {
				key := fmt.Sprintf("k%d", i)
				if i%2 == 0 {
					_, inInst, _ := d.Get(Instance, key)
					_, inHist, _ := d.Get(History, key)
					if inInst != !fail || inHist != !fail {
						t.Errorf("%s visible = %v/%v, want %v in both spaces", key, inInst, inHist, !fail)
					}
				} else if !fail {
					wantEvents++
					if journal[seqs[i]] != key {
						t.Errorf("AppendEvent(%s) = seq %d, which holds %q", key, seqs[i], journal[seqs[i]])
					}
				}
			}
			if len(journal) != wantEvents {
				t.Errorf("journal = %v, want %d events", journal, wantEvents)
			}
			if _, ok, _ := d.Get(Instance, "before"); !ok {
				t.Error("the commit before the group is gone")
			}
		})
	}
}

// TestConcurrentBatchGroupCommit hammers Batch/Put/AppendEvent from many
// goroutines: every mutation must survive a reopen (each caller's ack means
// its ops are durable), journal sequences must be unique, and the commit
// groups formed under contention must cost no more fsyncs than there were
// callers.
func TestConcurrentBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := d.WALSyncs()
	const goroutines = 8
	const perG = 10
	seqs := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				err := d.Batch([]Op{
					{Space: Instance, Key: key, Value: []byte(key)},
					{Space: History, Key: key, Value: []byte(key)},
				})
				if err != nil {
					t.Errorf("Batch: %v", err)
					return
				}
				seq, err := d.AppendEvent([]byte(key))
				if err != nil {
					t.Errorf("AppendEvent: %v", err)
					return
				}
				seqs[g] = append(seqs[g], seq)
			}
		}(g)
	}
	wg.Wait()
	calls := uint64(goroutines * perG * 2) // one Batch + one AppendEvent each
	if got := d.WALSyncs() - before; got > calls {
		t.Errorf("%d fsyncs for %d mutation calls — group commit regressed", got, calls)
	}
	seen := make(map[uint64]bool)
	for _, ss := range seqs {
		for _, s := range ss {
			if seen[s] {
				t.Errorf("journal seq %d assigned twice", s)
			}
			seen[s] = true
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			key := fmt.Sprintf("g%d-i%d", g, i)
			for _, sp := range []Space{Instance, History} {
				v, ok, err := d2.Get(sp, key)
				if err != nil || !ok || string(v) != key {
					t.Fatalf("%s/%s lost after reopen (ok=%v err=%v)", sp, key, ok, err)
				}
			}
		}
	}
	events := 0
	if err := d2.Events(1, func(Event) error { events++; return nil }); err != nil {
		t.Fatal(err)
	}
	if events != goroutines*perG {
		t.Errorf("journal has %d events after reopen, want %d", events, goroutines*perG)
	}
}
