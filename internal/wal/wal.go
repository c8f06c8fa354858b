// Package wal implements a segmented write-ahead log.
//
// The BioOpera store appends every state transition of every process
// instance to this log before acting on it; crash recovery replays the log
// over the latest snapshot. Records are length-prefixed and CRC-32
// checksummed so a torn write at the tail (the only corruption an
// append-only file can suffer from a crash) is detected and the log is
// truncated to the last complete record.
//
// On-disk layout of a directory managed by this package:
//
//	snap-00000000000000000040.snap the base: the state of records 1..39
//	wal-00000000000000000001.log   records 1..n
//	wal-00000000000000000042.log   records 42..m
//
// Each segment file, and the base, is a sequence of frames:
//
//	uint32 little-endian length | uint32 little-endian CRC-32 (IEEE) of data | data
//
// The high bit of the length word is the batch-continuation flag: a frame
// with the flag set belongs to an atomic batch whose remaining frames
// follow (the final frame of a batch has the flag clear, as does every
// standalone record). A batch is committed only by its final frame, so a
// crash in the middle of a group-committed batch truncates the log back to
// the batch's first frame — batches replay all-or-nothing.
//
// Sequence numbers are implicit: the first record of a segment has the
// sequence encoded in the file name, and records are dense within and
// across segments.
//
// A base (Compact) is one batch: a store image's records, then a seal — the
// sequence in its name, 8 bytes little-endian — that closes it, so an empty,
// torn or cut base fails the walk that checks segments.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bioopera/internal/obs"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	basePrefix = "snap-"
	baseSuffix = ".snap"
	tmpSuffix  = ".tmp" // a base being written: snap-<seq>.snap.<random>.tmp
	headerLen  = 8      // length + crc

	// batchFlag marks a frame whose batch continues in the next frame.
	batchFlag    uint32 = 1 << 31
	maxRecordLen        = 1<<31 - 1
)

// DefaultSegmentSize is the byte threshold after which a new segment file
// is started. Exported so tests can exercise rotation with tiny segments.
const DefaultSegmentSize = 4 << 20

// ErrCorrupt is returned when a record in the interior of the log (not the
// tail) fails its checksum, which indicates real corruption rather than a
// torn write.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrPoisoned is returned by every append after one whose fsync failed, or
// whose partial write could not be cut off again, until the log is reopened:
// after a failed fsync the kernel may already have dropped the dirty pages, so
// a later fsync that succeeds proves nothing, and only reopening re-verifies
// what the segment holds.
var ErrPoisoned = errors.New("wal: log poisoned by a failed append; reopen it")

// FS is every directory and file call the log makes, and the Glob with
// which the store that owns it looks for snapshots of the pre-framing
// format. osFS is the only implementation programs use; tests open a log
// over one that records the calls and fails the ones they pick, or one that
// keeps what a crash would (Options.FS).
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Glob(pattern string) ([]string, error)
	ReadDir(dir string) ([]os.DirEntry, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Truncate(name string, size int64) error
	Rename(from, to string) error
	Remove(name string) error
}

// File is an open segment, base or directory.
type File interface {
	Name() string
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	ReadAt(b []byte, off int64) (int, error)
	Stat() (os.FileInfo, error)
	Close() error
}

// OS is the operating system's file system, the one a log opened without
// Options.FS uses.
var OS FS = osFS{}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)    { return os.ReadDir(dir) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Rename(from, to string) error                 { return os.Rename(from, to) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil file
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// framePool recycles AppendBatch's frame-encoding buffer. The buffer lives
// only between frame assembly and the file write, so pooling it removes the
// per-append allocation from the engine's checkpoint hot path.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// framePoolMax is the largest buffer the pool retains: an occasional huge
// batch should not pin its buffer for the rest of the process's life.
const framePoolMax = 1 << 20

// Record is one entry read back from the log.
type Record struct {
	Seq  uint64 // 1-based, dense
	Data []byte
}

// Options configure a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes. Zero means
	// DefaultSegmentSize.
	SegmentSize int64
	// NoSync disables fsync after each append. No program sets it;
	// benchmarks and tests that do not test durability do.
	NoSync bool
	// AppendLatency, when non-nil, observes the wall time of each
	// AppendBatch call (seconds, fsync included).
	AppendLatency *obs.Histogram
	// SyncLatency, when non-nil, observes the fsync portion alone.
	SyncLatency *obs.Histogram
	// FS is the file system the log makes every call through; nil is the
	// operating system's. No program sets it: tests open a log over one
	// that injects faults, or one that keeps only what a crash would.
	FS FS
}

// Log is a segmented write-ahead log. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	file    File
	size    int64  // bytes written to current segment
	nextSeq uint64 // sequence the next appended record will get
	segs    []uint64
	base    uint64 // sequence of the base the log starts from (0 = none)
	syncs   uint64 // fsyncs issued by appends (group-commit metric)
	closed  bool
	// poisoned, once set, fails every append (ErrPoisoned wrapping the
	// failure that set it).
	poisoned error

	// commitC exists only while a WaitCommitted caller is blocked (the
	// shipping path's notification channel): the waiter allocates it, the
	// next commit closes and clears it. A log nobody follows never pays
	// for one.
	commitC chan struct{}
	// retain is the lowest sequence Compact must keep on disk
	// (0 = unconstrained). The shipper pins it to its slowest follower's
	// cursor so snapshots cannot truncate records a standby still needs.
	retain uint64
}

// Open opens (creating if necessary) the log in dir, checking it as
// OpenReplay does and replaying nothing.
func Open(dir string, opts Options) (*Log, error) { return OpenReplay(dir, opts, nil, nil) }

// OpenReplay opens (creating if necessary) the log in dir and replays it in
// the one pass that checks it. It removes the temporary file of a compaction
// that crashed and settles the base (openBase), whose records go to base with
// its sequence. Then it reads every segment once: a closed segment must be
// whole, the tail is truncated to its last commit, and each committed batch
// at or after the base goes to batch as the walk passes it. A nil base or
// batch is not called. Records are valid only during the call. A refused
// open — a lost-records gap, a short or corrupt closed segment, or base's or
// batch's own error — returns that error and leaves no file open; what the
// callbacks were already given is the caller's to drop.
func OpenReplay(dir string, opts Options, base, batch func(seq uint64, records [][]byte) error) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	if err := l.scan(base, batch); err != nil {
		return nil, errors.Join(err, l.Close())
	}
	return l, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func baseName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", basePrefix, seq, baseSuffix)
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	mid, hasPrefix := strings.CutPrefix(name, prefix)
	mid, hasSuffix := strings.CutSuffix(mid, suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	return n, hasPrefix && hasSuffix && err == nil
}

// scan discovers segments and bases, settles the base, checks and replays
// every segment, repairs the tail, and positions the writer after the last
// valid record. One buffer reads the base and every segment in turn.
func (l *Log) scan(base, batch func(uint64, [][]byte) error) error {
	entries, err := l.opts.FS.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if first, ok := parseName(name, segPrefix, segSuffix); ok {
			l.segs = append(l.segs, first)
		} else if seq, ok := parseName(name, basePrefix, baseSuffix); ok {
			bases = append(bases, seq)
		} else if strings.HasPrefix(name, basePrefix) && strings.HasSuffix(name, tmpSuffix) {
			// A base Compact was writing when it crashed: never renamed into
			// place, so nothing reads it.
			if err := l.opts.FS.Remove(filepath.Join(l.dir, name)); err != nil {
				return fmt.Errorf("wal: removing a crashed compaction's base: %w", err)
			}
		}
	}
	slices.Sort(l.segs)
	slices.Sort(bases)
	seg, err := l.openBase(bases, base)
	if err != nil {
		return err
	}
	// Records before the base are checked, not replayed.
	from, seq, b := max(l.base, 1), uint64(0), batcher{fn: batch}
	var fn func([]byte, bool) error
	if batch != nil {
		fn = func(data []byte, more bool) error {
			if seq++; seq < from {
				return nil
			}
			return b.frame(seq, data, more)
		}
	}
	for i, first := range l.segs {
		path := filepath.Join(l.dir, segName(first))
		if seg, err = l.readSegment(path, seg); err != nil {
			return err
		}
		seq = first - 1
		n, valid, err := walk(seg, math.MaxUint64, fn)
		if i+1 < len(l.segs) {
			// A closed segment is whole and holds exactly the records
			// before its successor's first.
			if err := segmentErr(path, err, n, l.segs[i+1]-first); err != nil {
				return err
			}
			continue
		}
		if _, torn := err.(badFrame); err != nil && !torn {
			return err // batch's own
		}
		// The tail: whatever stopped the walk is a torn write, rolled back
		// to the last commit point.
		if err := l.opts.FS.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.file = f
		l.size = int64(valid)
		l.nextSeq = first + n
	}
	if l.base > l.nextSeq {
		// A base past the log's end is a compaction (a standby's bootstrap)
		// that crashed before removing the segments it supersedes; finish it.
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.startAtLocked(l.base)
	}
	return nil
}

// openBase settles the base the log starts from — the newest that reads back
// sealed with its name's sequence — and hands its records to fn, if non-nil.
// A log that begins past it — at its oldest segment or, with none left,
// where its newest base is named — has lost the records between, and is
// refused naming the newest base it could not read. It returns its read
// buffer for the segments.
func (l *Log) openBase(bases []uint64, fn func(uint64, [][]byte) error) ([]byte, error) {
	var buf []byte
	var records [][]byte
	unreadable := "no base holds them"
	for i := len(bases) - 1; i >= 0 && l.base == 0; i-- {
		path := filepath.Join(l.dir, baseName(bases[i]))
		var err error
		if buf, err = l.readSegment(path, buf); err == nil {
			records, err = readBatch(buf, baseSeal(bases[i]))
		}
		if err == nil {
			l.base = bases[i]
		} else if i == len(bases)-1 {
			unreadable = fmt.Sprintf("%s is unreadable (%v)", path, err)
		}
	}
	from, oldest := max(l.base, 1), l.nextSeq
	if len(l.segs) > 0 {
		oldest = l.segs[0]
	} else if len(bases) > 0 {
		oldest = max(oldest, bases[len(bases)-1])
	}
	if oldest > from {
		return nil, fmt.Errorf("%w: records %d to %d are lost: the log begins at %d, and %s", ErrCorrupt, from, oldest-1, oldest, unreadable)
	}
	if l.base != 0 && fn != nil {
		if err := fn(l.base, records); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readSegment reads the whole segment (or base) at path into buf, grown to
// its size, with one read. Segments are about the same size — the rotation
// threshold plus one batch's overshoot — so one buffer serves a whole pass.
func (l *Log) readSegment(path string, buf []byte) ([]byte, error) {
	f, err := l.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return buf, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return buf, fmt.Errorf("wal: %w", err)
	}
	buf = slices.Grow(buf[:0], int(info.Size()))[:info.Size()]
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF { // EOF: the file shrank since Stat, and the walk finds it short
		return buf, fmt.Errorf("wal: %w", err)
	}
	return buf[:n], nil
}

// badFrame is why walk stopped before its limit.
type badFrame string

func (b badFrame) Error() string { return string(b) }

// walk is the one frame reader: OpenReplay checks and replays a segment with
// it, ReplayBatches (the shipper) reads records with it, and readBatch checks
// a base or a shipped batch with it. It checks the frames
// of seg, a whole file (readSegment) or frame body, in order and stops after
// limit records. fn, when non-nil, sees each frame once its checksum holds
// (more: its batch continues in the next frame); data is a subslice of seg
// capped at its length, not a copy: the store's replay copies in
// image.apply and the shipper re-frames into its send buffer. walk returns
// the committed records it passed (a record commits with the intact frame
// that closes its batch) and the offset just past the last. A short header
// or body, a checksum mismatch, or a batch still open where the walk ends
// stops it with a badFrame: a torn write in the tail at Open, corruption
// anywhere else. fn's own error is returned as is.
func walk(seg []byte, limit uint64, fn func(data []byte, more bool) error) (n uint64, valid int, err error) {
	var seen uint64 // frames passed, an open batch's included
	off := 0
	for seen < limit && off < len(seg) {
		if len(seg)-off < headerLen {
			return n, valid, badFrame("truncated header")
		}
		raw := binary.LittleEndian.Uint32(seg[off:])
		sum := binary.LittleEndian.Uint32(seg[off+4:])
		start := off + headerLen
		length := int(raw &^ batchFlag)
		if length > len(seg)-start {
			return n, valid, badFrame("truncated data")
		}
		data := seg[start : start+length : start+length]
		if crc32.ChecksumIEEE(data) != sum {
			return n, valid, badFrame("bad checksum")
		}
		more := raw&batchFlag != 0
		if fn != nil {
			if err := fn(data, more); err != nil {
				return n, valid, err
			}
		}
		off = start + length
		seen++
		if !more {
			n, valid = seen, off
		}
	}
	if seen != n {
		return n, valid, badFrame("unterminated batch")
	}
	return n, valid, nil
}

// segmentErr judges a walk over a segment that must hold exactly want
// committed records: a bad frame or a short count is ErrCorrupt naming the
// file; fn's own error passes through.
func segmentErr(path string, err error, n, want uint64) error {
	if bad, ok := err.(badFrame); ok {
		return fmt.Errorf("%w: %s after record %d of %d in %s", ErrCorrupt, bad, n, want, path)
	}
	if err == nil && n != want {
		err = fmt.Errorf("%w: %s ends after record %d of %d", ErrCorrupt, path, n, want)
	}
	return err
}

// readBatch returns the records of data, which must be whole frames with
// sound checksums ending a batch, or it is ErrCorrupt. With a seal (a base),
// the last record must be that seal, and is dropped. Records alias data.
func readBatch(data, seal []byte) ([][]byte, error) {
	var records [][]byte
	_, _, err := walk(data, math.MaxUint64, func(rec []byte, _ bool) error {
		records = append(records, rec)
		return nil
	})
	last := len(records) - 1
	if err == nil && (last < 0 || seal != nil && !bytes.Equal(records[last], seal)) {
		err = badFrame("empty or unsealed")
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if seal != nil {
		records = records[:last]
	}
	return records, nil
}

// baseSeal is the last record of the base at seq.
func baseSeal(seq uint64) []byte { return binary.LittleEndian.AppendUint64(nil, seq) }

// appendFrames appends records to buf as frames of one batch: all but the
// last carry the batch flag, and the last too when more is set.
func appendFrames(buf []byte, records [][]byte, more bool) []byte {
	for i, data := range records {
		length := uint32(len(data))
		if more || i < len(records)-1 {
			length |= batchFlag
		}
		buf = binary.LittleEndian.AppendUint32(buf, length)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
		buf = append(buf, data...)
	}
	return buf
}

// Size returns the bytes records take in a segment or a base: their frames,
// headers included.
func Size(records [][]byte) int64 {
	n := int64(headerLen * len(records))
	for _, r := range records {
		n += int64(len(r))
	}
	return n
}

// NextSeq returns the sequence number the next appended record will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// AppendBatch writes all records as one atomic batch with a single fsync
// (group commit) and returns the sequence number of the first record. A
// crash mid-batch replays as if the batch was never written. An empty
// batch is a no-op.
func (l *Log) AppendBatch(records [][]byte) (uint64, error) {
	if len(records) == 0 {
		return 0, nil
	}
	var start time.Time
	if l.opts.AppendLatency != nil {
		//bioopera:allow walltime latency histogram observes real I/O time; it never feeds back into replayable state
		start = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return 0, l.poisoned
	}
	if l.file == nil || l.size >= l.opts.SegmentSize {
		// Rotation happens only between batches, never inside one, so
		// a batch's frames are always contiguous in one segment (an
		// oversized batch just overshoots the threshold).
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	for _, data := range records {
		if len(data) > maxRecordLen {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds maximum", len(data))
		}
	}
	bufp := framePool.Get().(*[]byte)
	buf := appendFrames((*bufp)[:0], records, false)
	total := len(buf)
	_, err := l.file.Write(buf)
	// Return the buffer before the error check (no defer: the closure
	// would allocate on every append) — nothing below reads it.
	*bufp = buf
	if cap(buf) <= framePoolMax {
		framePool.Put(bufp)
	}
	if err != nil {
		return 0, l.undo(err, false)
	}
	if !l.opts.NoSync {
		var syncStart time.Time
		if l.opts.SyncLatency != nil {
			//bioopera:allow walltime latency histogram observes real fsync time; it never feeds back into replayable state
			syncStart = time.Now()
		}
		if err := l.file.Sync(); err != nil {
			return 0, l.undo(err, true)
		}
		if l.opts.SyncLatency != nil {
			//bioopera:allow walltime latency histogram observes real fsync time; it never feeds back into replayable state
			l.opts.SyncLatency.Observe(time.Since(syncStart).Seconds())
		}
		l.syncs++
	}
	l.size += int64(total)
	seq := l.nextSeq
	l.nextSeq += uint64(len(records))
	l.notifyLocked()
	if l.opts.AppendLatency != nil {
		//bioopera:allow walltime latency histogram observes real I/O time; it never feeds back into replayable state
		l.opts.AppendLatency.Observe(time.Since(start).Seconds())
	}
	return seq, nil
}

// undo takes back a failed append: the segment is cut back to the last
// acknowledged frame, so the bytes the failure left cannot end up in front of
// — or, as a torn tail, take away — the next batch. A failed fsync, or a cut
// that fails, also poisons the log. Caller holds mu.
func (l *Log) undo(err error, poison bool) error {
	err = fmt.Errorf("wal: %w", err)
	if terr := l.file.Truncate(l.size); terr != nil {
		err = fmt.Errorf("%w (truncating back: %v)", err, terr)
		poison = true
	}
	if poison {
		l.poisoned = fmt.Errorf("%w: %w", ErrPoisoned, err)
	}
	return err
}

// Syncs reports how many fsyncs the log has issued since Open (appends
// only; Close's final flush is not counted). Benchmarks use it to measure
// group-commit amortization.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Poisoned returns the error that poisoned the log — it wraps ErrPoisoned
// and the failure that set it — or nil while the log takes appends. Only
// reopening the log clears it.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned
}

// rotateLocked closes the current segment and opens a new one whose name
// carries the next sequence number. The new name is synced into the
// directory before the first append to it can be acknowledged. A failure at
// any step poisons the log, as a failed fsync does: an append acknowledged
// into a segment whose name may not be durable could be lost with it.
func (l *Log) rotateLocked() error {
	err := l.rotate()
	if err != nil {
		l.poisoned = fmt.Errorf("%w: %w", ErrPoisoned, err)
	}
	return err
}

func (l *Log) rotate() error {
	if l.file != nil {
		err := l.file.Close()
		l.file = nil // closed or not, it takes no more appends
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	path := filepath.Join(l.dir, segName(l.nextSeq))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.file = f
	l.size = 0
	l.segs = append(l.segs, l.nextSeq)
	return l.syncDir()
}

// syncDir makes the directory's entries — files created, renamed, removed —
// durable. NoSync skips it, as it skips append fsyncs.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	d, err := l.opts.FS.OpenFile(l.dir, os.O_RDONLY, 0)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
	}
	return nil
}

// replayFlagged calls fn for every record with sequence ≥ from, in order,
// with the batch-continuation flag (more: the record's batch continues in
// the next frame). One buffer reads every segment, so Data is valid only
// during fn. A segment must yield exactly the records up to the next
// segment's first (the committed frontier, for the tail): one that lost
// records since Open — a disk fault, a live log read by the shipper — is
// ErrCorrupt, not a shorter replay.
func (l *Log) replayFlagged(from uint64, fn func(r Record, more bool) error) error {
	l.mu.Lock()
	segs := append([]uint64(nil), l.segs...)
	end := l.nextSeq
	l.mu.Unlock()
	var seg []byte
	for i, first := range segs {
		segEnd := end
		if i+1 < len(segs) {
			segEnd = segs[i+1]
		}
		if segEnd <= from {
			continue // the whole segment is before from
		}
		path := filepath.Join(l.dir, segName(first))
		var err error
		if seg, err = l.readSegment(path, seg); err != nil {
			return err
		}
		seq := first - 1
		n, _, err := walk(seg, segEnd-first, func(data []byte, more bool) error {
			if seq++; seq < from {
				return nil
			}
			return fn(Record{Seq: seq, Data: data}, more)
		})
		if err := segmentErr(path, err, n, segEnd-first); err != nil {
			return err
		}
	}
	return nil
}

// notifyLocked wakes every WaitCommitted caller. Called with l.mu held
// whenever the committed frontier moves (append, compaction past it) or the
// log closes.
func (l *Log) notifyLocked() {
	if l.commitC != nil {
		close(l.commitC)
		l.commitC = nil
	}
}

// WaitCommitted blocks until the committed frontier exceeds after, the log
// closes, or stop is closed. It returns the current frontier and whether
// the caller should keep going (false on close or stop).
func (l *Log) WaitCommitted(after uint64, stop <-chan struct{}) (uint64, bool) {
	for {
		l.mu.Lock()
		committed := l.nextSeq - 1
		if l.closed || committed > after {
			open := !l.closed
			l.mu.Unlock()
			return committed, open
		}
		if l.commitC == nil {
			l.commitC = make(chan struct{})
		}
		ch := l.commitC
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return committed, false
		}
	}
}

// OldestSeq returns the sequence of the oldest record still on disk (the
// first record of the first segment), or the next append sequence when the
// log holds no segments. A follower whose cursor is below it must be
// bootstrapped from the base instead of replayed.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.nextSeq
	}
	return l.segs[0]
}

// SetRetainFloor pins records with sequence ≥ seq on disk: Compact will
// not remove a segment containing them even after a base supersedes them.
// Zero clears the pin. The shipper holds the floor at its slowest
// follower's cursor.
func (l *Log) SetRetainFloor(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = seq
}

// ReplayBatches calls fn once per committed batch whose first record has
// sequence ≥ from, preserving the atomic-batch grouping AppendBatch wrote
// (a standalone record is a batch of one). Shipping uses it so a standby
// re-appends exactly the primary's commit units and a crash on either side
// rolls back to the same batch boundary. from must itself be a batch
// boundary — cursors only ever advance across whole batches. records and
// the bytes they hold are valid only during fn: the slice is reused for the
// next batch, and one read buffer for every segment.
func (l *Log) ReplayBatches(from uint64, fn func(first uint64, records [][]byte) error) error {
	b := batcher{fn: fn}
	return l.replayFlagged(from, func(r Record, more bool) error { return b.frame(r.Seq, r.Data, more) })
}

// batcher gathers a walk's frames into the batches AppendBatch wrote and
// hands each to fn at its closing frame; a batch still open where the walk
// stops is never handed over. Its slice is reused from batch to batch.
type batcher struct {
	fn    func(first uint64, records [][]byte) error
	batch [][]byte
	first uint64
}

// frame takes the frame of record seq (more: its batch continues).
func (b *batcher) frame(seq uint64, data []byte, more bool) error {
	if len(b.batch) == 0 {
		b.first = seq
	}
	b.batch = append(b.batch, data)
	if more {
		return nil
	}
	err := b.fn(b.first, b.batch)
	clear(b.batch)
	b.batch = b.batch[:0]
	return err
}

// Compact makes records — a store image holding the effect of every record
// below seq — the log's base, and removes what it supersedes. It serves a
// primary's snapshot and a standby taking its primary's base alike, in the
// order a power loss needs:
//
//  1. the base is written to a temporary file, synced, renamed to
//     snap-<seq>.snap, and the directory synced;
//  2. a log that ends before seq (a standby's) moves to seq;
//  3. segments wholly below seq — or below the retain floor, if that is
//     lower — and older bases are removed (the active segment stays);
//  4. the directory is synced again.
func (l *Log) Compact(seq uint64, records [][]byte) error {
	seal := [][]byte{baseSeal(seq)}
	data := appendFrames(appendFrames(slices.Grow([]byte(nil), int(Size(records)+Size(seal))), records, true), seal, false)
	f, err := l.opts.FS.CreateTemp(l.dir, baseName(seq)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil && !l.opts.NoSync {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = l.opts.FS.Rename(f.Name(), filepath.Join(l.dir, baseName(seq)))
	}
	if err != nil {
		//bioopera:allow droppederr best-effort cleanup of the failed base; the write error is returned, and the next Open removes what is left
		l.opts.FS.Remove(f.Name())
		return fmt.Errorf("wal: writing base: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	return l.startAtLocked(seq)
}

// startAtLocked is Compact's steps 2–4, once the base at seq is durable.
func (l *Log) startAtLocked(seq uint64) error {
	keep := seq
	if l.retain != 0 && l.retain < seq {
		keep = l.retain
	}
	if seq > l.nextSeq { // every record this log holds is below the base
		if l.file != nil {
			if err := l.file.Close(); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.file = nil
		}
		l.nextSeq, l.size, keep = seq, 0, seq
		l.notifyLocked()
	}
	l.base = max(l.base, seq)
	// A segment is wholly below keep once its successor starts there; the
	// last one, only once the log has moved past it and closed its file.
	for len(l.segs) > 1 && l.segs[1] <= keep || len(l.segs) == 1 && l.file == nil && l.nextSeq <= keep {
		if err := l.opts.FS.Remove(filepath.Join(l.dir, segName(l.segs[0]))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
	}
	entries, err := l.opts.FS.ReadDir(l.dir)
	for _, e := range entries {
		if old, ok := parseName(e.Name(), basePrefix, baseSuffix); ok && old < seq && err == nil {
			err = l.opts.FS.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.syncDir()
}

// baseBytes reads the base the log starts from: its sequence (0 = none) and
// its file's bytes, under the lock so no compaction removes it mid-read.
func (l *Log) baseBytes() (uint64, []byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base == 0 {
		return 0, nil, nil
	}
	data, err := l.readSegment(filepath.Join(l.dir, baseName(l.base)), nil)
	return l.base, data, err
}

// Segments returns the starting sequence numbers of the live segment files.
func (l *Log) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.segs...)
}

// Close syncs and closes the log. The log must not be used afterwards.
// WaitCommitted callers are woken and told to stop.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.notifyLocked()
	}
	if l.file == nil {
		return nil
	}
	if err := l.file.Sync(); err != nil {
		//bioopera:allow droppederr the sync failure is returned; closing the doomed file is best-effort
		l.file.Close()
		return fmt.Errorf("wal: %w", err)
	}
	err := l.file.Close()
	l.file = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
