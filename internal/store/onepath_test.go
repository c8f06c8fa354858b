package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The bytes TestWALBytesGolden's fixed sequence leaves on disk at four
// points — before and after each Snapshot compacts the log, and after Close
// — hashed apart: the name and bytes of every WAL segment, and of every
// base. The segment hash is what the code wrote before snapshots became
// bases (67301c5), unchanged since the write path was rebuilt around Op
// (4ac61c9); the base hash was captured with the first framed base. A
// refactor may move code, it may not move a byte on disk.
const (
	walSegmentsGolden = "ad25d872e68d71e3362b0579b53bbe759f6e2b50a6419d6b5b6d873a8d9e964a"
	walBasesGolden    = "4ab90e90495cc3f70d2fc43d0cb5ce8b3897c8e01418e0dee4c452c03f248d30"
)

// hashStoreFiles folds the name and content of every file under dir matching
// pattern, in name order, into h.
func hashStoreFiles(t *testing.T, h hash.Hash, dir, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		names = append(names, fmt.Sprintf("%s(%d)", filepath.ToSlash(rel), len(data)))
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return names
}

func TestWALBytesGolden(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	segs, bases := sha256.New(), sha256.New()
	var files []string
	mark := func() {
		files = append(files, hashStoreFiles(t, segs, dir, "wal/wal-*.log")...)
		files = append(files, hashStoreFiles(t, bases, dir, "wal/snap-*.snap")...)
	}
	event := func(s string) {
		t.Helper()
		_, err := d.AppendEvent([]byte(s))
		must(err)
	}
	must(d.Put(Template, "proc/align", []byte("PROCESS Align {}")))
	must(d.Put(Instance, "inst/p0001/meta", []byte{0, 1, 2, 3}))
	must(d.Batch([]Op{
		{Space: Instance, Key: "inst/p0001/task/A", Value: []byte("running")},
		{Space: Configuration, Key: "node/n1", Value: []byte(`{"cpus":4}`)},
		{Space: Instance, Key: "inst/p0001/meta", Delete: true, Value: []byte("ignored")},
		{Space: History, Key: "inst/p0001/meta", Value: []byte("done")},
		{Space: Template, Key: "never-existed", Delete: true},
	}))
	event(`{"kind":"instance-started","instance":"p0001"}`)
	event("")
	mark()
	must(d.Snapshot())
	mark()
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("inst/p%04d/meta", i+2)
		must(d.Batch([]Op{
			{Space: Instance, Key: key, Value: []byte(strings.Repeat("x", i*7))},
			{Space: History, Key: key, Delete: true},
		}))
		event(key)
	}
	must(d.Delete(Configuration, "node/n1"))
	mark()
	must(d.Snapshot()) // supersedes the first snapshot
	must(d.Put(History, "inst/p0002/meta", nil))
	must(d.Delete(Instance, "inst/p0003/meta"))
	event(`{"kind":"instance-finished","instance":"p0002"}`)
	must(d.Batch([]Op{{Space: Template, Key: "proc/align", Delete: true}}))
	must(d.Close())

	mark()
	if got := hex.EncodeToString(segs.Sum(nil)); got != walSegmentsGolden {
		t.Errorf("WAL segment bytes changed:\n got %s\nwant %s\nfiles: %v", got, walSegmentsGolden, files)
	}
	if got := hex.EncodeToString(bases.Sum(nil)); got != walBasesGolden {
		t.Errorf("base bytes changed:\n got %s\nwant %s\nfiles: %v", got, walBasesGolden, files)
	}
}

// TestStoreWriteAllocs pins the write path's allocations per call at what a
// write must cost. A batch that rewrites existing records and has no follower
// allocates nothing: its commit group is the spare one, its frames live in a
// pooled encoder, and each record is rewritten in its own buffer — one more
// means a per-batch request, frame slice, group or done channel is back, or
// apply copies again. A journal append pays for the batch's journal slab, and
// through the AppendEvent wrapper for the one-op slice that escapes into the
// group. Mem pays what Disk pays less the commit machinery: nothing to rewrite
// a record, one buffer for the first write of a key, one slab per appending
// batch.
func TestStoreWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	d, err := OpenDisk(t.TempDir(), DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := NewMem()
	ops := []Op{
		{Space: Instance, Key: "inst/p0001/meta", Value: []byte("meta")},
		{Space: Instance, Key: "inst/p0001/task/A", Value: []byte("task")},
		{Space: Instance, Key: "inst/p0001/gone", Delete: true},
	}
	data := []byte(`{"kind":"activity-ended"}`)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Disk.Batch(3 ops)", 1, func() { d.Batch(ops) }},
		{"Disk.AppendEvent", 2, func() { d.AppendEvent(data) }},
		{"Mem.AppendEvent", 1, func() { m.AppendEvent(data) }},
		{"Mem.Put", 0, func() { m.Put(Instance, "inst/p0001/meta", data) }},
		{"Mem.Put(new key)", 1, func() { m.Delete(Instance, "fresh"); m.Put(Instance, "fresh", data) }},
	} {
		c.run() // warm the encoder pool and the maps
		got := testing.AllocsPerRun(200, c.run)
		t.Logf("%s = %.1f allocs", c.name, got)
		if got > c.max {
			t.Errorf("%s = %.1f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}

// TestOpenDiskAllocs pins replay at open at what a replayed op must cost:
// its decoded key string and, spread over the ops, each batch's journal slab
// and the first write of each key. A segment is read whole with one read and
// the ops of a unit decode into one reused slice, so a per-frame or per-batch
// buffer shows up here.
func TestOpenDiskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	dir := t.TempDir()
	opts := DiskOptions{NoSync: true, SegmentSize: 64 << 10}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("p%04d", i%100)
		batch := []Op{
			{Space: Instance, Key: "inst/" + id, Value: []byte(strings.Repeat("m", 30+i%7))},
			{Space: Instance, Key: "task/" + id + "/-/S1", Value: []byte(strings.Repeat("t", 60+i%5))},
			EventOp([]byte(`{"kind":"task-ended","instance":"` + id + `"}`)),
		}
		if err := d.Batch(batch); err != nil {
			t.Fatal(err)
		}
		ops += len(batch)
	}
	if segs := len(d.log.Segments()); segs < 3 {
		t.Fatalf("%d WAL segments, want several", segs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	perOp := testing.AllocsPerRun(5, func() {
		d, err := OpenDisk(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	}) / float64(ops)
	t.Logf("OpenDisk = %.3f allocs per replayed op", perOp)
	if perOp > 1.5 {
		t.Errorf("OpenDisk = %.3f allocs per replayed op, want <= 1.5", perOp)
	}
}

// TestBatchCarriesJournalAppends: a journal append inside a Batch (EventOp)
// takes the journal's next sequence in op order, commits with the batch's
// puts, and comes back on replay — on Disk one commit group, not one per op.
func TestBatchCarriesJournalAppends(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, s Store) {
		t.Helper()
		var got []string
		if err := s.Events(1, func(ev Event) error {
			got = append(got, fmt.Sprintf("%d:%s", ev.Seq, ev.Data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := "1:first 2:second 3:alone"; strings.Join(got, " ") != want {
			t.Errorf("journal = %q, want %q", got, want)
		}
		if v, ok, _ := s.Get(Instance, "k"); !ok || string(v) != "v2" {
			t.Errorf("k = %q, %v; want v2", v, ok)
		}
	}
	for name, s := range map[string]Store{"mem": NewMem(), "disk": d} {
		t.Run(name, func(t *testing.T) {
			ops := []Op{
				{Space: Instance, Key: "k", Value: []byte("v1")},
				EventOp([]byte("first")),
				{Space: Instance, Key: "k", Value: []byte("v2")},
				EventOp([]byte("second")),
			}
			if !ops[1].IsEvent() || ops[0].IsEvent() {
				t.Fatal("IsEvent does not tell a journal append from a put")
			}
			if err := s.Batch(ops); err != nil {
				t.Fatal(err)
			}
			if seq, err := s.AppendEvent([]byte("alone")); err != nil || seq != 3 {
				t.Fatalf("AppendEvent = %d, %v; want 3", seq, err)
			}
			check(t, s)
		})
	}
	if st := d.Stats(); st.CommitGroups != 2 || st.WALSyncs != 2 {
		t.Errorf("%d commit groups, %d fsyncs for one batch and one append; want 2 and 2", st.CommitGroups, st.WALSyncs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check(t, d)
}
