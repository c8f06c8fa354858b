package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"bioopera/internal/codec"
	"bioopera/internal/wal"
)

// countFS is the operating system's file system, counting the bytes read
// from each file (by base name) and the files open now.
type countFS struct {
	wal.FS
	mu   sync.Mutex
	read map[string]int64
	open int
}

func newCountFS() *countFS { return &countFS{FS: wal.OS, read: make(map[string]int64)} }

func (fs *countFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.open++
	fs.mu.Unlock()
	return &countFile{File: f, fs: fs}, nil
}

func (fs *countFS) openFiles() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.open
}

type countFile struct {
	wal.File
	fs *countFS
}

func (f *countFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(b, off)
	f.fs.mu.Lock()
	f.fs.read[filepath.Base(f.Name())] += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Close() error {
	f.fs.mu.Lock()
	f.fs.open--
	f.fs.mu.Unlock()
	return f.File.Close()
}

// putKeys writes n one-record batches, key<from> to key<from+n-1>.
func putKeys(t *testing.T, d *Disk, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := d.Put(Instance, fmt.Sprintf("key%03d", i), []byte(strings.Repeat("v", 40))); err != nil {
			t.Fatal(err)
		}
	}
}

// fileSizes returns the size of every file in dir, by name.
func fileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = info.Size()
	}
	return sizes
}

// TestOpenDiskReadsEachFileOnce: opening a store checks and replays its log
// in one pass, so the base, every closed segment and the torn tail are each
// read exactly once — not once to check and again to replay — and the store
// that opens holds the base's records and every committed batch after it.
func TestOpenDiskReadsEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{NoSync: true, SegmentSize: 512}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, d, 0, 20)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	n := 20
	for len(d.log.Segments()) < 3 {
		putKeys(t, d, n, 1)
		n++
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	bases, _ := filepath.Glob(filepath.Join(walDir, "snap-*.snap"))
	if len(segs) < 3 || len(bases) != 1 {
		t.Fatalf("%d segments and %d bases, want a base, two closed segments and a tail", len(segs), len(bases))
	}
	// A torn tail: a frame header promising more bytes than follow.
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write([]byte{100, 0, 0, 0, 1, 2, 3, 4, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	if err := tail.Close(); err != nil {
		t.Fatal(err)
	}
	sizes := fileSizes(t, walDir)

	fs := newCountFS()
	opts.FS = fs
	re, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, size := range sizes {
		if got := fs.read[name]; got != size {
			t.Errorf("%s: read %d bytes of %d, want each byte once", name, got, size)
		}
	}
	kvs, err := re.List(Instance)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n || kvs[0].Key != "key000" || kvs[n-1].Key != fmt.Sprintf("key%03d", n-1) {
		t.Fatalf("reopened store holds %d records, want key000 to key%03d", len(kvs), n-1)
	}
}

// TestOpenDiskRefusalClosesFiles: a failure inside the one pass refuses the
// open with the failure's own error — a well-framed record that is no WAL op
// in the first closed segment, a checksum that fails in a later one — and
// the refused open returns no store and leaves no file open.
func TestOpenDiskRefusalClosesFiles(t *testing.T) {
	opts := DiskOptions{NoSync: true, SegmentSize: 256}
	refused := func(t *testing.T, dir string) error {
		t.Helper()
		fs := newCountFS()
		o := opts
		o.FS = fs
		d, err := OpenDisk(dir, o)
		if err == nil {
			d.Close()
			t.Fatal("OpenDisk opened")
		}
		if d != nil {
			t.Errorf("a refused OpenDisk returned a store")
		}
		if open := fs.openFiles(); open != 0 {
			t.Errorf("a refused OpenDisk left %d files open", open)
		}
		return err
	}

	t.Run("undecodable record", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true, SegmentSize: opts.SegmentSize})
		if err != nil {
			t.Fatal(err)
		}
		var e codec.Encoder
		e.Begin(99)
		e.Uvarint(uint64(Instance))
		e.String("key")
		e.End()
		encodeOp(&e, Op{Space: Instance, Key: "key", Value: []byte(strings.Repeat("v", 40))})
		if _, err := l.AppendBatch([][]byte{e.Span(0)}); err != nil {
			t.Fatal(err)
		}
		for len(l.Segments()) < 3 {
			if _, err := l.AppendBatch([][]byte{e.Span(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		err = refused(t, dir)
		if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "kind 99 is not a wal record") {
			t.Fatalf("OpenDisk = %v, want the decode error of kind 99", err)
		}
	})

	t.Run("checksum in a later segment", func(t *testing.T) {
		dir := t.TempDir()
		d, err := OpenDisk(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; len(d.log.Segments()) < 4; n++ {
			putKeys(t, d, n, 1)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
		slices.Sort(segs)
		later := segs[len(segs)-2] // closed, not the first
		data, err := os.ReadFile(later)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(later, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err = refused(t, dir)
		if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(later)) {
			t.Fatalf("OpenDisk = %v, want ErrCorrupt naming %s", err, filepath.Base(later))
		}
	})
}
