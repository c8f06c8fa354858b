package store

import (
	"fmt"
	"strings"
	"testing"

	"bioopera/internal/obs"
)

// TestDiskStats pins the Stats snapshot: record counts per space, journal
// shape, WAL accounting, snapshot bookkeeping and the image's bytes —
// across a snapshot, a reopen and compactions.
func TestDiskStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if err := d.Put(Instance, fmt.Sprintf("p%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put(Template, "tpl", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(Instance, "p0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.AppendEvent([]byte(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}

	s := d.Stats()
	if s.Records[Instance.String()] != 2 || s.Records[Template.String()] != 1 {
		t.Fatalf("records = %v", s.Records)
	}
	if s.Events != 5 || s.EventSeq != 5 {
		t.Fatalf("journal: %d events, seq %d", s.Events, s.EventSeq)
	}
	if s.WALSegments == 0 || s.WALSyncs == 0 {
		t.Fatalf("wal: segments=%d syncs=%d", s.WALSegments, s.WALSyncs)
	}
	// 10 writes so far (4 puts + 1 delete + 5 events): the next WAL record
	// must be numbered past all of them.
	if s.WALNextSeq <= 10 {
		t.Fatalf("wal next seq = %d", s.WALNextSeq)
	}
	if s.SnapshotSeq != 0 {
		t.Fatalf("snapshot seq = %d before any snapshot", s.SnapshotSeq)
	}
	if s.WALBytesSinceBase == 0 || s.WALCompactAt != 16*4<<20 || s.SnapshotFailures != 0 {
		t.Fatalf("self-compaction: %d log bytes since the base, trigger %d, %d failures; want some, 64 MiB, 0",
			s.WALBytesSinceBase, s.WALCompactAt, s.SnapshotFailures)
	}
	if s.WALPoisoned != nil {
		t.Fatalf("wal poisoned = %v on a healthy log", s.WALPoisoned)
	}
	// Live: two one-byte instance records, the template's three bytes and
	// five seven-byte journal entries; dead: the deleted record's byte.
	if s.ImageLive != 2+3+5*7 || s.ImageDead != 1 || s.ImageCompactions != 0 {
		t.Fatalf("image: %d live, %d dead, %d compactions; want 40, 1, 0", s.ImageLive, s.ImageDead, s.ImageCompactions)
	}

	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats(); got.SnapshotSeq == 0 || got.WALBytesSinceBase != 0 {
		t.Fatalf("after Snapshot: snapshot seq %d, %d log bytes since it", got.SnapshotSeq, got.WALBytesSinceBase)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery rebuilds the same shape (WAL sync/group counters restart;
	// they describe the current process, not history).
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r := d2.Stats()
	if r.Records[Instance.String()] != 2 || r.Records[Template.String()] != 1 {
		t.Fatalf("recovered records = %v", r.Records)
	}
	if r.Events != 5 || r.EventSeq != 5 {
		t.Fatalf("recovered journal: %d events, seq %d", r.Events, r.EventSeq)
	}
	if r.SnapshotSeq == 0 || r.WALBytesSinceBase != 0 {
		t.Fatalf("recovered snapshot seq %d, %d log bytes since it", r.SnapshotSeq, r.WALBytesSinceBase)
	}
	churn(t, d2, 2)
	if c := d2.Stats(); c.ImageCompactions != 2 || c.ImageDead >= c.ImageLive {
		t.Fatalf("after churning: %d live, %d dead, %d compactions; want 2 compactions and fewer dead bytes than live", c.ImageLive, c.ImageDead, c.ImageCompactions)
	}
}

// TestDiskStatsGauges checks that a metrics-enabled store exports the
// Stats fields as scrape-time gauges.
func TestDiskStatsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := OpenDisk(t.TempDir(), DiskOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put(Instance, "p1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendEvent([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`bioopera_store_records{space="instance"} 1`,
		"bioopera_store_events 1",
		"bioopera_store_wal_segments 1",
		"bioopera_store_wal_poisoned 0",
		`bioopera_store_image_bytes{state="live"} 3`,
		`bioopera_store_image_bytes{state="dead"} 0`,
		"bioopera_store_image_compactions 0",
		"bioopera_store_wal_bytes_since_base ",
		"bioopera_store_snapshot_failures 0",
		"bioopera_wal_append_seconds_count",
		"bioopera_wal_fsync_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
