package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// waitDigest polls the store until its logical digest matches want — the
// standby applies shipped batches asynchronously, so convergence (not each
// individual batch) is the observable contract.
func waitDigest(t *testing.T, d *Disk, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var got string
	for time.Now().Before(deadline) {
		var err error
		got, err = d.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("standby never converged: digest %s, want %s", got, want)
}

// TestShippingReplicates is the log-shipping happy path: a standby follows
// the primary's WAL stream, converges to a byte-identical logical state
// (Digest), survives the primary's death, and serves writes after
// promotion.
func TestShippingReplicates(t *testing.T) {
	p, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()

	sdir := t.TempDir()
	sb, err := OpenStandby(sdir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	followErr := make(chan error, 1)
	go func() { followErr <- sb.Follow(shipper.Addr(), t.Logf) }()

	// A mixed workload: puts across spaces, an overwrite, deletes, an
	// atomic batch, and journal events.
	for i := 0; i < 40; i++ {
		if err := p.Put(Instance, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Put(Instance, "k00", []byte("v0-rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(Template, "tpl", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(Instance, "k01"); err != nil {
		t.Fatal(err)
	}
	if err := p.Batch([]Op{
		{Space: Instance, Key: "b1", Value: []byte("x")},
		{Space: Instance, Key: "k02", Delete: true},
		{Space: Configuration, Key: "node", Value: []byte("up")},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.AppendEvent([]byte(fmt.Sprintf("ev%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	want, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	waitDigest(t, sb.Store(), want)
	if n := shipper.Followers(); n != 1 {
		t.Fatalf("followers = %d, want 1", n)
	}

	// Primary dies: the follower's Run must return a non-nil error (the
	// promotion cue — a nil return is reserved for a local Close).
	if err := shipper.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-followErr:
		if err == nil {
			t.Fatal("follower returned nil after primary death; want promotion cue")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not notice the primary dying")
	}

	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	got, err := promoted.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("promoted digest %s, want %s", got, want)
	}
	// The promoted store is a full read-write primary.
	if err := promoted.Put(Instance, "after-promotion", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := promoted.Get(Instance, "k00"); err != nil || !ok || string(v) != "v0-rewritten" {
		t.Fatalf("Get after promotion = (%q, %v, %v)", v, ok, err)
	}
}

// TestShippingSnapshotBootstrap covers the lagging-follower path: the
// primary snapshots and truncates its WAL before the standby ever
// connects, so the records the standby needs are gone and the shipper
// must bootstrap it with a full snapshot image. The standby must also
// recover from its own disk afterwards without re-fetching.
func TestShippingSnapshotBootstrap(t *testing.T) {
	// Tiny segments so Snapshot actually drops sealed WAL segments.
	p, err := OpenDisk(t.TempDir(), DiskOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 30; i++ {
		if err := p.Put(Instance, fmt.Sprintf("pre%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AppendEvent([]byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if oldest := p.log.OldestSeq(); oldest <= 1 {
		t.Fatalf("OldestSeq = %d after snapshot; segments were not truncated, bootstrap path untested", oldest)
	}
	// Post-snapshot tail the standby must replay after the bootstrap.
	for i := 0; i < 10; i++ {
		if err := p.Put(Instance, fmt.Sprintf("post%02d", i), []byte("t")); err != nil {
			t.Fatal(err)
		}
	}

	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()

	sdir := t.TempDir()
	sb, err := OpenStandby(sdir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	followErr := make(chan error, 1)
	go func() { followErr <- sb.Follow(shipper.Addr(), t.Logf) }()

	want, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	waitDigest(t, sb.Store(), want)
	if seq := sb.Store().Stats().SnapshotSeq; seq == 0 {
		t.Fatal("standby has no snapshot seq; it was not bootstrapped via the snapshot path")
	}

	// Standby restart: Close stops following (nil Run return) and the
	// reopened standby resumes from its own snapshot file + WAL.
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-followErr; err != nil {
		t.Fatalf("local close should return nil from Follow, got %v", err)
	}
	sb2, err := OpenStandby(sdir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb2.Close()
	got, err := sb2.Store().Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reopened standby digest %s, want %s", got, want)
	}
}

// TestBootstrapCopiesBase: the bootstrap ships the primary's base file and
// the standby keeps it as its own, byte for byte — one framing on disk and on
// the wire.
func TestBootstrapCopiesBase(t *testing.T) {
	pdir, sdir := t.TempDir(), t.TempDir()
	p, err := OpenDisk(pdir, DiskOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 30; i++ {
		if err := p.Batch([]Op{
			{Space: Instance, Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf("v%d", i))},
			EventOp([]byte(fmt.Sprintf("ev%d", i))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()
	sb, err := OpenStandby(sdir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	followErr := make(chan error, 1)
	go func() { followErr <- sb.Follow(shipper.Addr(), t.Logf) }()
	want, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	waitDigest(t, sb.Store(), want)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-followErr; err != nil {
		t.Fatal(err)
	}
	base := func(dir string) (string, []byte) {
		snaps, _ := filepath.Glob(filepath.Join(dir, "wal", "snap-*.snap"))
		if len(snaps) != 1 {
			t.Fatalf("bases in %s: %v, want one", dir, snaps)
		}
		data, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(snaps[0]), data
	}
	pname, pdata := base(pdir)
	sname, sdata := base(sdir)
	if pname != sname || !bytes.Equal(pdata, sdata) {
		t.Fatalf("standby's base %s (%d bytes) is not the primary's %s (%d bytes)", sname, len(sdata), pname, len(pdata))
	}
}

// TestRetentionFloorPinsSegments exercises the mechanism the shipper uses
// to keep a slow follower's records on disk: a pinned retention floor
// makes Snapshot keep the WAL segments at or above it, and releasing the
// pin lets the next snapshot drop them.
func TestRetentionFloorPinsSegments(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 50; i++ {
		if err := d.Put(Instance, fmt.Sprintf("k%02d", i), []byte("vvvvvvvvvvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if segs := d.log.Segments(); len(segs) < 3 {
		t.Fatalf("want several sealed segments, got %d", len(segs))
	}

	d.log.SetRetainFloor(2)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if oldest := d.log.OldestSeq(); oldest > 2 {
		t.Fatalf("OldestSeq = %d after pinned snapshot; the floor at 2 was not honored", oldest)
	}

	d.log.SetRetainFloor(0)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if oldest := d.log.OldestSeq(); oldest <= 2 {
		t.Fatalf("OldestSeq = %d after unpinned snapshot; stale segments survived", oldest)
	}
}

// TestReopenTornSnapshot simulates a crash mid-Snapshot: a newer snapshot
// file exists but is torn — cut mid-frame, empty, or cut before its seal —
// and a stray .tmp was left behind. Reopening must skip both, fall back to
// the last valid snapshot, and replay the WAL tail — no data loss.
func TestReopenTornSnapshot(t *testing.T) {
	for name, torn := range map[string]func(base []byte) []byte{
		"mid-frame":   func(base []byte) []byte { return base[:len(base)/2] },
		"zero-length": func([]byte) []byte { return nil },
		"no seal":     func(base []byte) []byte { return base[:len(base)-16] },
	} {
		t.Run(name, func(t *testing.T) { reopenTornSnapshot(t, torn) })
	}
}

func reopenTornSnapshot(t *testing.T, torn func(base []byte) []byte) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put(Instance, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AppendEvent([]byte("ev")); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A post-snapshot write that lives only in the WAL tail.
	if err := d.Put(Instance, "k5", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	want, err := d.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash artifacts: a torn snapshot newer than the valid one, and
	// an abandoned temp file.
	snaps, _ := filepath.Glob(filepath.Join(dir, "wal", "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v, want one", snaps)
	}
	base, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	newer := filepath.Join(dir, "wal", fmt.Sprintf("snap-%020d.snap", uint64(1<<40)))
	if err := os.WriteFile(newer, torn(base), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "wal", fmt.Sprintf("snap-%020d.snap.123.tmp", uint64(1<<41)))
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest after torn-snapshot reopen = %s, want %s", got, want)
	}
	if v, ok, _ := re.Get(Instance, "k5"); !ok || string(v) != "tail" {
		t.Fatalf("WAL-tail record lost: (%q, %v)", v, ok)
	}
}
