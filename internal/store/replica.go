// Replication: the Disk store's side of WAL log shipping. A primary
// serves its log through StartShipping; a Standby opens its own Disk in
// another directory, follows the primary's stream, and replays every
// shipped batch through its own WAL before applying it — so the standby
// is itself crash-safe at every point, and a promotion is nothing more
// than "stop following and hand the Disk to Engine.Recover".
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"bioopera/internal/wal"
)

// StartShipping serves this store's WAL to followers on addr (":0" picks a
// free port). Followers that lag behind the oldest retained segment are
// bootstrapped with the log's base (the latest snapshot); connected
// followers pin the WAL retention floor so Snapshot cannot truncate records
// they still need.
func (d *Disk) StartShipping(addr string, logf func(string, ...any)) (*wal.Shipper, error) {
	return wal.NewShipper(addr, wal.ShipperOptions{Log: d.log, Logf: logf})
}

// applyShipped ingests one batch-aligned group of records from the
// primary: into our own WAL first (one fsync, same commit unit), then into
// memory — the same ingest local writes end in.
func (d *Disk) applyShipped(first uint64, records [][]byte) error {
	ops, err := decodeOps(nil, first, records)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if next := d.log.NextSeq(); first != next {
		return fmt.Errorf("store: shipped batch starts at %d, want %d", first, next)
	}
	return d.ingest(records, []commitReq{{ops: ops}})
}

// installSnapshot makes the primary's base this standby's: the log takes it
// as its own (Compact, which moves the log to seq so the next shipped batch
// appends cleanly, and removes the segments it supersedes), then the image
// is rebuilt from its ops. A standby that crashes right after bootstrap
// recovers from the base without re-fetching it.
func (d *Disk) installSnapshot(seq uint64, records [][]byte) error {
	ops, err := decodeOps(nil, 0, records)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.log.Compact(seq, records); err != nil {
		return err
	}
	d.reset()
	d.apply(ops)
	d.snapSeq = seq
	return nil
}

// Digest hashes the logical store contents — every space's sorted records,
// the event journal, and the journal sequence. Two stores that executed
// the same history digest identically even if their physical WAL segment
// boundaries differ, which is exactly the check a freshly promoted standby
// must pass against its failed primary.
func (im *image) Digest() (string, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.closed {
		return "", ErrClosed
	}
	h := sha256.New()
	var lenBuf [8]byte
	writeChunk := func(b []byte) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		for _, kv := range im.list(sp) {
			writeChunk([]byte(kv.Key))
			writeChunk(kv.Value)
		}
	}
	for _, e := range im.events {
		binary.LittleEndian.PutUint64(lenBuf[:], e.Seq)
		h.Write(lenBuf[:])
		writeChunk(e.Data)
	}
	binary.LittleEndian.PutUint64(lenBuf[:], im.eventSeq)
	h.Write(lenBuf[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Standby is a Disk store kept hot by following a primary's WAL stream.
// It is read-consistent at batch boundaries: Get/List on the embedded
// store observe exactly the prefixes of the primary's history.
type Standby struct {
	d *Disk

	mu sync.Mutex    // Follow runs on its own goroutine beside Promote and Close
	f  *wal.Follower // nil while not following
}

// follower swaps the current follower for next and returns the old one.
func (s *Standby) follower(next *wal.Follower) *wal.Follower {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.f
	s.f = next
	return prev
}

// OpenStandby opens (or re-opens — a standby resumes from its own WAL
// after a restart) the standby store in dir.
func OpenStandby(dir string, opts DiskOptions) (*Standby, error) {
	d, err := OpenDisk(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Standby{d: d}, nil
}

// Store returns the embedded Disk. While following, treat it as read-only:
// local writes would diverge from the primary's stream.
func (s *Standby) Store() *Disk { return s.d }

// Follow connects to the primary's shipper at addr and replays its stream,
// blocking until the connection drops. A nil return means Close was
// called; any other return — typically the primary dying — is the
// caller's cue to promote.
func (s *Standby) Follow(addr string, logf func(string, ...any)) error {
	f, err := wal.DialFollower(addr, wal.FollowerOptions{
		From:          s.d.log.NextSeq(),
		ApplyBatch:    s.d.applyShipped,
		ApplySnapshot: s.d.installSnapshot,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	s.follower(f)
	return f.Run()
}

// Promote detaches from the primary and returns the store, ready for
// Engine.Recover. The Standby must not be used afterwards.
func (s *Standby) Promote() (*Disk, error) {
	if f := s.follower(nil); f != nil {
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return s.d, nil
}

// Close stops following and closes the store.
func (s *Standby) Close() error {
	if f := s.follower(nil); f != nil {
		//bioopera:allow droppederr teardown: the store close below is the error that matters; the follower socket is being discarded
		f.Close()
	}
	return s.d.Close()
}
