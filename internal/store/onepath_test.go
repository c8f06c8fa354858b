package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// walBytesGolden is the hash of every wal-*.log and snap-*.snap file (name
// and bytes) on disk at four points of TestWALBytesGolden's fixed sequence —
// before and after each Snapshot truncates the log, and after Close. It was
// captured at 4ac61c9, before the write path was rebuilt around Op: the
// refactor may move code, it may not move a byte on disk.
const walBytesGolden = "47d37769ef0bebf43d4dd4232fcccde3e4d67c422e4872e1c64a260552bfdf36"

// hashStoreFiles folds the name and content of every WAL segment and
// snapshot file under dir, in name order, into h.
func hashStoreFiles(t *testing.T, h hash.Hash, dir string) []string {
	t.Helper()
	var paths []string
	for _, pat := range []string{"wal/wal-*.log", "snap-*.snap"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
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
	h := sha256.New()
	var files []string
	mark := func() { files = append(files, hashStoreFiles(t, h, dir)...) }
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
	d.SetSnapshotExtra("procrefs", []byte(`{"abc":2}`))
	d.SetSnapshotExtra("alpha", []byte(`[1,2]`))
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
	must(d.Snapshot()) // carries the extras; supersedes the first snapshot
	must(d.Put(History, "inst/p0002/meta", nil))
	must(d.Delete(Instance, "inst/p0003/meta"))
	event(`{"kind":"instance-finished","instance":"p0002"}`)
	must(d.Batch([]Op{{Space: Template, Key: "proc/align", Delete: true}}))
	must(d.Close())

	mark()
	if got := hex.EncodeToString(h.Sum(nil)); got != walBytesGolden {
		t.Fatalf("on-disk bytes changed:\n got %s\nwant %s\nfiles: %v", got, walBytesGolden, files)
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
