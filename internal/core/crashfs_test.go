package core

import (
	"errors"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bioopera/internal/wal"
)

// errCrashed is what every call of a crashFS returns once the machine it
// models has died.
var errCrashed = errors.New("crashfs: the machine has crashed")

// crashFS is a file system in memory that keeps apart what its files and
// directories hold now and what a crash would leave of them: each file's
// bytes as of its last Sync, and each directory's entries as of the last Sync
// of the directory. It counts its calls — every wal.FS and wal.File method is
// one — and the crashAt-th is the last that happens: from then on every call
// fails with errCrashed and changes nothing, so the state stays as the crash
// found it. reboot builds what the machine finds when it comes back.
// Directories themselves are durable once made.
type crashFS struct {
	mu      sync.Mutex
	dirs    map[string]bool
	names   map[string]*memInode // path → file, as its directory holds it now
	durable map[string]*memInode // path → file, as its directory's last Sync left it
	temps   int

	calls   int // calls made so far
	crashAt int // the call after which the machine dies; 0 = never
	crashed bool
	// last is the latest Write: the bytes [off, off+n) of ino.
	last struct {
		ino    *memInode
		off, n int
	}
}

// memInode is one file: what it holds, and what its last Sync made durable.
type memInode struct {
	data, synced []byte
}

func newCrashFS() *crashFS {
	return &crashFS{dirs: map[string]bool{}, names: map[string]*memInode{}, durable: map[string]*memInode{}}
}

// begin starts a call: it takes the lock and refuses once crashed.
func (c *crashFS) begin() error {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return errCrashed
	}
	return nil
}

// end finishes a call begin admitted, counting it; the crashAt-th is the
// machine's last.
func (c *crashFS) end() {
	c.calls++
	if c.calls == c.crashAt {
		c.crashed = true
	}
	c.mu.Unlock()
}

// dead reports whether the machine has crashed.
func (c *crashFS) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// reboot returns what the machine finds when it comes back: the files the
// durable directory entries name, each holding its synced bytes. With tear
// > 0 the latest Write, when none of it was synced, survives torn: its first
// tear bytes are on disk too. ok is false when there is no such write in a
// file the durable entries name, or it is shorter than tear. The image counts its calls afresh and never crashes.
func (c *crashFS) reboot(tear int) (img *crashFS, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.last
	torn := last.ino != nil && tear > 0 && tear < last.n && len(last.ino.synced) == last.off &&
		len(last.ino.data) >= last.off+last.n && slices.Contains(slices.Collect(maps.Values(c.durable)), last.ino)
	if tear > 0 && !torn {
		return nil, false
	}
	img = newCrashFS()
	for d := range c.dirs {
		img.dirs[d] = true
	}
	img.temps = c.temps
	copies := map[*memInode]*memInode{}
	for path, ino := range c.durable {
		cp := copies[ino]
		if cp == nil {
			kept := ino.synced
			if torn && ino == last.ino {
				kept = ino.data[:last.off+tear]
			}
			cp = &memInode{data: slices.Clone(kept), synced: slices.Clone(kept)}
			copies[ino] = cp
		}
		img.names[path], img.durable[path] = cp, cp
	}
	return img, true
}

// entries lists the names of the files directory dir holds now, sorted.
func (c *crashFS) entries(dir string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for path := range c.names {
		if filepath.Dir(path) == dir {
			out = append(out, filepath.Base(path))
		}
	}
	slices.Sort(out)
	return out
}

func pathErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

func (c *crashFS) MkdirAll(path string, _ os.FileMode) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	for p := filepath.Clean(path); !c.dirs[p]; p = filepath.Dir(p) {
		c.dirs[p] = true
	}
	return nil
}

func (c *crashFS) Glob(pattern string) ([]string, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.end()
	var out []string
	for path := range c.names {
		if ok, err := filepath.Match(pattern, path); err != nil {
			return nil, err
		} else if ok {
			out = append(out, path)
		}
	}
	slices.Sort(out)
	return out, nil
}

func (c *crashFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.end()
	dir = filepath.Clean(dir)
	if !c.dirs[dir] {
		return nil, pathErr("readdir", dir, fs.ErrNotExist)
	}
	var out []os.DirEntry
	for path, ino := range c.names {
		if filepath.Dir(path) == dir {
			out = append(out, memInfo{name: filepath.Base(path), size: int64(len(ino.data))})
		}
	}
	slices.SortFunc(out, func(a, b os.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (c *crashFS) OpenFile(name string, flag int, _ os.FileMode) (wal.File, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.end()
	return c.open(filepath.Clean(name), flag)
}

// open is OpenFile's body. Caller holds mu.
func (c *crashFS) open(name string, flag int) (wal.File, error) {
	if c.dirs[name] {
		return &memFile{c: c, name: name, dir: true}, nil
	}
	ino := c.names[name]
	switch {
	case ino != nil && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, fs.ErrExist)
	case ino == nil && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case ino == nil && !c.dirs[filepath.Dir(name)]:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case ino == nil:
		ino = &memInode{}
		c.names[name] = ino
	}
	return &memFile{c: c, name: name, ino: ino}, nil
}

func (c *crashFS) CreateTemp(dir, pattern string) (wal.File, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.end()
	c.temps++
	base := strings.Replace(pattern, "*", strconv.Itoa(c.temps), 1)
	return c.open(filepath.Join(filepath.Clean(dir), base), os.O_CREATE|os.O_EXCL|os.O_WRONLY)
}

func (c *crashFS) Truncate(name string, size int64) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	ino := c.names[filepath.Clean(name)]
	if ino == nil {
		return pathErr("truncate", name, fs.ErrNotExist)
	}
	ino.resize(size)
	return nil
}

func (c *crashFS) Rename(from, to string) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	from, to = filepath.Clean(from), filepath.Clean(to)
	ino := c.names[from]
	if ino == nil {
		return pathErr("rename", from, fs.ErrNotExist)
	}
	delete(c.names, from)
	c.names[to] = ino
	return nil
}

func (c *crashFS) Remove(name string) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	name = filepath.Clean(name)
	if c.names[name] == nil {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(c.names, name)
	return nil
}

func (ino *memInode) resize(size int64) {
	if int(size) <= len(ino.data) {
		ino.data = ino.data[:size]
		return
	}
	ino.data = append(ino.data, make([]byte, int(size)-len(ino.data))...)
}

// memFile is an open file or directory of a crashFS. Writes append.
type memFile struct {
	c      *crashFS
	name   string
	ino    *memInode // nil for a directory
	dir    bool
	closed bool
}

// check starts a call on the file.
func (f *memFile) check(op string, file bool) error {
	if err := f.c.begin(); err != nil {
		return err
	}
	switch {
	case f.closed:
		f.c.end()
		return pathErr(op, f.name, os.ErrClosed)
	case file && f.dir:
		f.c.end()
		return pathErr(op, f.name, errors.New("is a directory"))
	}
	return nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(b []byte) (int, error) {
	if err := f.check("write", true); err != nil {
		return 0, err
	}
	defer f.c.end()
	f.c.last.ino, f.c.last.off, f.c.last.n = f.ino, len(f.ino.data), len(b)
	f.ino.data = append(f.ino.data, b...)
	return len(b), nil
}

// Sync makes a file's bytes durable, or a directory's entries.
func (f *memFile) Sync() error {
	if err := f.check("sync", false); err != nil {
		return err
	}
	defer f.c.end()
	if !f.dir {
		f.ino.synced = append(f.ino.synced[:0], f.ino.data...)
		return nil
	}
	for path := range f.c.durable {
		if filepath.Dir(path) == f.name && f.c.names[path] == nil {
			delete(f.c.durable, path)
		}
	}
	for path, ino := range f.c.names {
		if filepath.Dir(path) == f.name {
			f.c.durable[path] = ino
		}
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if err := f.check("truncate", true); err != nil {
		return err
	}
	defer f.c.end()
	f.ino.resize(size)
	return nil
}

func (f *memFile) ReadAt(b []byte, off int64) (int, error) {
	if err := f.check("read", true); err != nil {
		return 0, err
	}
	defer f.c.end()
	if int(off) >= len(f.ino.data) {
		return 0, io.EOF
	}
	n := copy(b, f.ino.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	if err := f.check("stat", false); err != nil {
		return nil, err
	}
	defer f.c.end()
	if f.dir {
		return memInfo{name: filepath.Base(f.name), dir: true}, nil
	}
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.ino.data))}, nil
}

func (f *memFile) Close() error {
	if err := f.check("close", false); err != nil {
		return err
	}
	defer f.c.end()
	f.closed = true
	return nil
}

// memInfo describes a crashFS file or directory, as os.FileInfo and as
// os.DirEntry.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) IsDir() bool                { return i.dir }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Type() os.FileMode          { return i.Mode().Type() }
func (i memInfo) Info() (os.FileInfo, error) { return i, nil }
