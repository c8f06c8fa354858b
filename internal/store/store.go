// Package store implements the BioOpera database.
//
// The paper's central dependability argument is that *everything* — process
// templates, the execution state of running instances, the cluster
// configuration, and the full history of past executions — lives in a
// persistent store, so that the engine can resume month-long computations
// after any failure. This package provides that store as four typed key →
// value "spaces" (§3.2 of the paper):
//
//	Template      processes as defined by the user
//	Instance      processes currently executing
//	Configuration hardware/software description of the cluster
//	History       records of completed processes and lineage metadata
//
// plus an append-only event journal used by monitoring and the lifecycle
// figures.
//
// Two implementations are provided: Disk (WAL + snapshots, crash safe) and
// Mem (for simulations and tests). Both satisfy Store.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/obs"
	"bioopera/internal/wal"
)

// Space identifies one of the four BioOpera data spaces.
type Space uint8

// The four spaces of §3.2.
const (
	Template Space = iota
	Instance
	Configuration
	History
	numSpaces
)

// String returns the space name used in logs and errors.
func (s Space) String() string {
	switch s {
	case Template:
		return "template"
	case Instance:
		return "instance"
	case Configuration:
		return "configuration"
	case History:
		return "history"
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// KV is a key/value pair returned by List.
type KV struct {
	Key   string
	Value []byte
}

// Event is one entry of the append-only journal.
type Event struct {
	Seq  uint64
	Data []byte
}

// Op is one mutation inside a Batch: a put, a delete when Delete is set
// (Value is then ignored), or a journal append built by EventOp.
type Op struct {
	Space  Space
	Key    string
	Value  []byte
	Delete bool
	// event marks a journal append of Value (Space and Key unused); EventOp
	// builds one.
	event bool
}

// EventOp returns the op that appends data to the journal. Inside a Batch it
// makes the journal record atomic with the batch's puts and deletes — the
// engine commits a navigation turn's events with the turn's checkpoint this
// way; AppendEvent is the same op committed alone.
func EventOp(data []byte) Op { return Op{Value: data, event: true} }

// IsEvent reports whether the op is a journal append.
func (op Op) IsEvent() bool { return op.event }

// Store is the interface both backends implement.
type Store interface {
	// Put stores value under key in the given space, replacing any
	// previous value.
	Put(space Space, key string, value []byte) error
	// Batch applies a set of puts, deletes and journal appends (EventOp)
	// atomically: after a crash either every op is visible or none is. Ops
	// may span spaces and are applied in order (later ops win on key
	// collisions). An empty batch is a no-op.
	Batch(ops []Op) error
	// Get returns the value under key, and whether it exists.
	Get(space Space, key string) ([]byte, bool, error)
	// Delete removes key from the space. Deleting a missing key is not
	// an error.
	Delete(space Space, key string) error
	// List returns all pairs in the space, sorted by key.
	List(space Space) ([]KV, error)
	// AppendEvent adds a record to the journal and returns its sequence.
	AppendEvent(data []byte) (uint64, error)
	// Events calls fn for each journal record with sequence ≥ from.
	Events(from uint64, fn func(Event) error) error
	// Close releases resources. Disk stores flush first.
	Close() error
}

// image is the in-memory store both backends embed: the four spaces, the
// journal, and the lock and closed flag that guard them. It owns every
// read, and apply is the only code that changes it.
type image struct {
	mu       sync.RWMutex
	closed   bool
	spaces   [numSpaces]map[string][]byte
	events   []Event
	eventSeq uint64
}

func checkSpace(space Space) error {
	if space >= numSpaces {
		return fmt.Errorf("store: invalid space %d", space)
	}
	return nil
}

// checkOps validates every op of a write before any of it is encoded,
// logged or applied — the whole write is refused or none of it is.
func checkOps(ops []Op) error {
	for _, op := range ops {
		if err := checkSpace(op.Space); err != nil {
			return err
		}
	}
	return nil
}

// apply makes validated ops state, in order; stored values are copies the
// image owns. A record keeps one buffer for its life: a put to a key that
// exists rewrites that buffer in place, which is safe because nothing hands a
// stored buffer out (Get, list, Digest and marshalSnapshot copy under mu).
// Journal entries are immutable and only ever dropped together, so a batch's
// entries share one allocation. State values do not: a record that is never
// rewritten would pin every dead neighbour written beside it. The caller
// holds mu for writing.
func (im *image) apply(ops []Op) {
	journal := 0
	for _, op := range ops {
		if op.event {
			journal += len(op.Value)
		}
	}
	var slab []byte
	if journal > 0 {
		slab = make([]byte, 0, journal)
	}
	for _, op := range ops {
		switch {
		case op.event:
			im.eventSeq++
			start := len(slab)
			slab = append(slab, op.Value...)
			// Capacity is capped so an append through Data cannot reach the
			// next entry.
			im.events = append(im.events, Event{Seq: im.eventSeq, Data: slab[start:len(slab):len(slab)]})
		case op.Delete:
			delete(im.spaces[op.Space], op.Key)
		default:
			m := im.spaces[op.Space]
			m[op.Key] = append(m[op.Key][:0], op.Value...)
		}
	}
}

// restore replaces the image's contents with a snapshot's, taking
// ownership of its values; the zero snapshot is the empty store.
func (im *image) restore(snap snapshot) {
	for i := range im.spaces {
		im.spaces[i] = make(map[string][]byte)
		if i < len(snap.Spaces) {
			for _, kv := range snap.Spaces[i] {
				im.spaces[i][kv.Key] = kv.Value
			}
		}
	}
	im.events, im.eventSeq = snap.Events, snap.EventSeq
}

// list copies a space out, sorted by key. The caller holds mu.
func (im *image) list(space Space) []KV {
	m := im.spaces[space]
	kvs := make([]KV, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, KV{Key: k, Value: append([]byte(nil), v...)})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	return kvs
}

// Get implements Store.
func (im *image) Get(space Space, key string) ([]byte, bool, error) {
	if err := checkSpace(space); err != nil {
		return nil, false, err
	}
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.closed {
		return nil, false, ErrClosed
	}
	v, ok := im.spaces[space][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// List implements Store.
func (im *image) List(space Space) ([]KV, error) {
	if err := checkSpace(space); err != nil {
		return nil, err
	}
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.closed {
		return nil, ErrClosed
	}
	return im.list(space), nil
}

// Events implements Store. The journal is append-only and its entries are
// immutable once written, so the slice header captured under the lock can
// be iterated without copying the events — a history dump streams straight
// from the shared backing array instead of materializing a second copy.
func (im *image) Events(from uint64, fn func(Event) error) error {
	im.mu.RLock()
	evs := im.events
	closed := im.closed
	im.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	// Events are dense and sorted by Seq; skip straight to `from`.
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq >= from })
	for ; i < len(evs); i++ {
		if err := fn(evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Mem is a purely in-memory Store. It is safe for concurrent use.
type Mem struct{ image }

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	m := &Mem{}
	m.restore(snapshot{})
	return m
}

// write is Mem's whole write path: validate, apply. Mem is never torn, so
// atomicity reduces to validating every op before applying any. It
// returns the newest journal sequence.
func (m *Mem) write(ops []Op) (uint64, error) {
	if err := checkOps(ops); err != nil || len(ops) == 0 {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	m.apply(ops)
	return m.eventSeq, nil
}

// Put implements Store.
func (m *Mem) Put(space Space, key string, value []byte) error {
	return m.Batch([]Op{{Space: space, Key: key, Value: value}})
}

// Batch implements Store.
func (m *Mem) Batch(ops []Op) error {
	_, err := m.write(ops)
	return err
}

// Delete implements Store.
func (m *Mem) Delete(space Space, key string) error {
	return m.Batch([]Op{{Space: space, Key: key, Delete: true}})
}

// AppendEvent implements Store.
func (m *Mem) AppendEvent(data []byte) (uint64, error) {
	return m.write([]Op{EventOp(data)})
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Binary WAL record kinds — a range disjoint from the core persist-record
// kinds, so a record misfiled across decode contexts fails loudly instead
// of misparsing.
const (
	walKindPut   byte = 16
	walKindDel   byte = 17
	walKindEvent byte = 18
)

// encodeOp appends one op's WAL frame to the encoder. Binary encoding is
// total — it cannot fail — so no mutation has an encode error path.
func encodeOp(e *codec.Encoder, op Op) {
	kind, value := walKindPut, op.Value
	switch {
	case op.event:
		kind = walKindEvent
	case op.Delete:
		kind, value = walKindDel, nil
	}
	e.Begin(kind)
	e.Uvarint(uint64(op.Space))
	e.String(op.Key)
	e.Bytes(value)
	e.End()
}

// decodeOp reads one WAL frame back into a validated op. Its Value aliases
// data — apply copies before retaining.
func decodeOp(data []byte) (Op, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return Op{}, err
	}
	var op Op
	switch kind {
	case walKindPut:
	case walKindDel:
		op.Delete = true
	case walKindEvent:
		op.event = true
	default:
		return Op{}, fmt.Errorf("%w: kind %d is not a wal record", codec.ErrCorrupt, kind)
	}
	op.Space = Space(d.Uvarint())
	op.Key = d.String()
	op.Value = d.Bytes()
	if err := d.Finish(); err != nil {
		return Op{}, err
	}
	return op, checkSpace(op.Space)
}

// decodeOps reads a commit unit's frames, the first of which has WAL
// sequence first.
func decodeOps(first uint64, frames [][]byte) ([]Op, error) {
	ops := make([]Op, len(frames))
	for i, data := range frames {
		var err error
		if ops[i], err = decodeOp(data); err != nil {
			return nil, fmt.Errorf("store: decoding wal record %d: %w", first+uint64(i), err)
		}
	}
	return ops, nil
}

// snapshot is the JSON image written by Disk.Snapshot.
type snapshot struct {
	WALSeq   uint64                     `json:"walSeq"` // first WAL seq NOT in the snapshot
	EventSeq uint64                     `json:"eventSeq"`
	Spaces   [][]KV                     `json:"spaces"`
	Events   []Event                    `json:"events"`
	Extra    map[string]json.RawMessage `json:"extra,omitempty"`
}

const snapPrefix, snapSuffix = "snap-", ".snap"

// snapName names the snapshot file covering WAL sequences below seq. The
// sequence is zero-padded, so name order is sequence order.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// errWALHole is OpenDisk's refusal of a store whose surviving WAL starts
// after the newest state it could restore: opening it would silently drop
// every record in between.
var errWALHole = errors.New("store: snapshot unreadable")

// Disk is a crash-safe Store backed by a WAL and periodic snapshots in a
// directory. It is safe for concurrent use.
//
// Every write takes one path: validate the ops, encode them into WAL
// frames, log the frames, apply the ops (write → commit → ingest). Writes
// group-commit: while one caller's fsync is in flight, later callers
// enroll in a pending commit group whose leader flushes them all with a
// single wal.AppendBatch. Under concurrent checkpoint load the fsync cost
// is therefore shared across instances instead of paid per mutation — the
// disk half of the engine's sharded-execution story.
type Disk struct {
	image // mu also guards the accounting fields and extra below
	dir   string
	log   *wal.Log

	gmu     sync.Mutex // guards pending and spare
	pending *commitGroup
	spare   *commitGroup // a flushed group nobody followed, emptied for the next leader
	wmu     sync.Mutex   // serializes group flushes (one leader at a time)

	// Group-commit accounting (written under mu in flushGroup).
	commitGroups   uint64
	groupedRecords uint64
	snapSeq        uint64 // WAL seq of the newest snapshot (0 = none)

	// extra is opaque manifest data (e.g. the engine's proc-refcount map)
	// included in every snapshot under its key. Guarded by mu.
	extra map[string][]byte

	groupSize   *obs.Histogram // records per flushed group (nil = no metrics)
	snapSeconds *obs.Histogram // Snapshot wall time (nil = no metrics)
}

// commitReq is one commit unit: a caller's ops. seq receives the newest
// journal sequence once the unit has applied — AppendEvent's result.
type commitReq struct {
	ops []Op
	seq uint64
}

// commitGroup accumulates the units that will share one WAL batch + fsync,
// and their frames in unit order. A caller waits for the group holding its
// index into reqs, not a request object of its own. done exists only once a
// follower has enrolled: a leader alone has nobody to wake.
type commitGroup struct {
	reqs   []commitReq
	frames [][]byte
	done   chan struct{}
	err    error
}

// DiskOptions configure a Disk store.
type DiskOptions struct {
	// NoSync disables per-record fsync (used by experiments).
	NoSync bool
	// SegmentSize overrides the WAL segment rotation threshold.
	SegmentSize int64
	// Metrics, when non-nil, registers the store's gauges (live records
	// per space, WAL segments, snapshot seq, commit groups — the Stats
	// fields, sampled at scrape time) and the commit-group-size and WAL
	// append/fsync latency histograms.
	Metrics *obs.Registry
}

// OpenDisk opens or creates a disk store in dir, recovering state from the
// latest snapshot plus the WAL tail.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	wopts := wal.Options{
		NoSync:      opts.NoSync,
		SegmentSize: opts.SegmentSize,
	}
	if opts.Metrics != nil {
		wopts.AppendLatency = opts.Metrics.Histogram("bioopera_wal_append_seconds",
			"Latency of wal.AppendBatch, fsync included.", nil)
		wopts.SyncLatency = opts.Metrics.Histogram("bioopera_wal_fsync_seconds",
			"Latency of the fsync inside wal.AppendBatch.", nil)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wopts)
	if err != nil {
		return nil, err
	}
	d := &Disk{dir: dir, log: l}
	from, err := d.loadSnapshot()
	if oldest := l.OldestSeq(); err == nil && oldest > from {
		err = fmt.Errorf("%w and WAL begins at %d: records %d to %d are lost", errWALHole, oldest, from, oldest-1)
	}
	if err == nil {
		// The frames are already in the log: a replayed unit is ingested
		// with none to append.
		err = l.ReplayBatches(from, func(first uint64, frames [][]byte) error {
			ops, err := decodeOps(first, frames)
			if err != nil {
				return err
			}
			return d.ingest(nil, []commitReq{{ops: ops}})
		})
	}
	if err != nil {
		//bioopera:allow droppederr the load or replay error is returned; closing the half-opened log is best-effort
		l.Close()
		return nil, err
	}
	if opts.Metrics != nil {
		d.groupSize = opts.Metrics.Histogram("bioopera_store_commit_group_records",
			"Records per group-committed WAL batch.", obs.SizeBuckets)
		d.snapSeconds = opts.Metrics.Histogram("bioopera_store_snapshot_seconds",
			"Wall time of Disk.Snapshot: capture, marshal, write, WAL truncation.", nil)
		d.registerGauges(opts.Metrics)
	}
	return d, nil
}

// registerGauges exposes the Stats fields as scrape-time gauges — no cost
// on the commit path beyond the counters flushGroup already keeps.
func (d *Disk) registerGauges(reg *obs.Registry) {
	for sp := Space(0); sp < numSpaces; sp++ {
		space := sp
		reg.GaugeFuncWith("bioopera_store_records",
			"Live records per store space.", "space", space.String(),
			func() float64 { return float64(d.Stats().Records[space.String()]) })
	}
	reg.GaugeFunc("bioopera_store_events",
		"Journal records held in memory.",
		func() float64 { return float64(d.Stats().Events) })
	reg.GaugeFunc("bioopera_store_wal_segments",
		"Live WAL segment files.",
		func() float64 { return float64(len(d.log.Segments())) })
	reg.GaugeFunc("bioopera_store_wal_syncs",
		"Fsyncs issued by WAL appends since open.",
		func() float64 { return float64(d.log.Syncs()) })
	reg.GaugeFunc("bioopera_store_snapshot_seq",
		"WAL sequence of the newest snapshot (0 = none).",
		func() float64 { return float64(d.Stats().SnapshotSeq) })
	reg.GaugeFunc("bioopera_store_commit_groups",
		"Commit groups flushed since open.",
		func() float64 { return float64(d.Stats().CommitGroups) })
}

// loadSnapshot restores the newest valid snapshot (the empty store when
// there is none), returning the WAL sequence to resume replay from.
func (d *Disk) loadSnapshot() (uint64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 1, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix) {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // newest first
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(d.dir, name))
		if err != nil {
			continue
		}
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			continue // partially written snapshot; fall back to older
		}
		d.restore(snap)
		d.snapSeq = snap.WALSeq
		return snap.WALSeq, nil
	}
	d.restore(snapshot{})
	return 1, nil
}

// write is the head of every mutation: validate the ops, encode each into
// its WAL frame, and hand the unit to the group commit. It returns the
// newest journal sequence after the unit applied.
func (d *Disk) write(ops []Op) (uint64, error) {
	if err := checkOps(ops); err != nil || len(ops) == 0 {
		return 0, err
	}
	enc := codec.Get()
	for _, op := range ops {
		encodeOp(enc, op)
	}
	seq, err := d.commit(ops, enc)
	codec.Put(enc)
	return seq, err
}

// commit durably applies one unit: ops and, span for span, their frames in
// enc. The first caller to find no pending group opens one and becomes its
// leader; callers arriving while the previous group's fsync is still in
// flight enroll as followers and just wait. The leader closes enrollment,
// writes every enrolled unit as one WAL batch (one fsync), applies them in
// order, and wakes the followers. A group nobody followed goes back to spare
// and the next leader reuses it, so an uncontended commit allocates nothing;
// one that had followers is theirs to read and the collector's to free.
func (d *Disk) commit(ops []Op, enc *codec.Encoder) (uint64, error) {
	d.gmu.Lock()
	g := d.pending
	leader := g == nil
	if leader {
		if g = d.spare; g == nil {
			g = new(commitGroup)
		}
		d.spare, d.pending = nil, g
	} else if g.done == nil {
		g.done = make(chan struct{})
	}
	me := len(g.reqs)
	g.reqs = append(g.reqs, commitReq{ops: ops})
	// Spans are taken only now that every op is encoded: appending can
	// relocate the encoder's buffer.
	for i := range ops {
		g.frames = append(g.frames, enc.Span(i))
	}
	d.gmu.Unlock()
	if !leader {
		//bioopera:allow blockingsend group-commit follower: the wait is bounded by one leader fsync (the leader always closes a done a follower made), and the follower holds no locks here
		<-g.done
		return g.reqs[me].seq, g.err
	}
	d.wmu.Lock() // wait out the previous group's flush; followers pile up meanwhile
	d.gmu.Lock()
	d.pending = nil // close enrollment: later arrivals form the next group
	d.gmu.Unlock()
	err := d.flushGroup(g)
	d.wmu.Unlock()
	seq := g.reqs[me].seq
	if g.done != nil {
		g.err = err
		close(g.done)
		return seq, err
	}
	// Emptied, so the spare pins no caller's ops and no encoder's buffer.
	clear(g.reqs)
	clear(g.frames)
	g.reqs, g.frames = g.reqs[:0], g.frames[:0]
	d.gmu.Lock()
	d.spare = g
	d.gmu.Unlock()
	return seq, err
}

// flushGroup ingests a closed group and keeps the group-commit accounts.
func (d *Disk) flushGroup(g *commitGroup) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ingest(g.frames, g.reqs); err != nil {
		return err
	}
	d.commitGroups++
	d.groupedRecords += uint64(len(g.frames))
	d.groupSize.Observe(float64(len(g.frames)))
	return nil
}

// ingest is the tail of every mutation, and the one way commit units
// become state — a local commit group, a batch shipped from the primary,
// a batch replayed at open alike: their frames go to the WAL as a single
// batch (one fsync), and only then are their ops applied, unit by unit in
// order. Replay passes no frames; those bytes are already in the log. The
// caller holds mu and has validated every op.
func (d *Disk) ingest(frames [][]byte, units []commitReq) error {
	if d.closed {
		return ErrClosed
	}
	if _, err := d.log.AppendBatch(frames); err != nil {
		return err
	}
	for i := range units {
		d.apply(units[i].ops)
		units[i].seq = d.eventSeq
	}
	return nil
}

// Put implements Store.
func (d *Disk) Put(space Space, key string, value []byte) error {
	return d.Batch([]Op{{Space: space, Key: key, Value: value}})
}

// Batch implements Store: every op becomes one WAL record and the whole
// set is group-committed with a single fsync (wal.AppendBatch), so a crash
// mid-batch rolls back all of it on replay.
func (d *Disk) Batch(ops []Op) error {
	_, err := d.write(ops)
	return err
}

// Delete implements Store.
func (d *Disk) Delete(space Space, key string) error {
	return d.Batch([]Op{{Space: space, Key: key, Delete: true}})
}

// AppendEvent implements Store.
func (d *Disk) AppendEvent(data []byte) (uint64, error) {
	return d.write([]Op{EventOp(data)})
}

// WALSyncs reports how many fsyncs the underlying WAL has issued for
// appends — the group-commit metric benchmarks divide by record count.
func (d *Disk) WALSyncs() uint64 { return d.log.Syncs() }

// Stats is a point-in-time summary of a Disk store's shape: the numbers
// behind `bioopera history -stats` and the store gauges.
type Stats struct {
	// Records counts live records per space, keyed by Space.String().
	Records map[string]int
	// Events is the journal length held in memory; EventSeq the newest
	// journal sequence.
	Events   int
	EventSeq uint64
	// WALSegments / WALSyncs / WALNextSeq describe the write-ahead log.
	WALSegments int
	WALSyncs    uint64
	WALNextSeq  uint64
	// SnapshotSeq is the WAL sequence of the newest snapshot (0 = none).
	SnapshotSeq uint64
	// CommitGroups counts group commits since open; GroupedRecords the
	// WAL records they carried (their ratio is the mean group size).
	CommitGroups   uint64
	GroupedRecords uint64
}

// Stats returns a consistent snapshot of the store's statistics.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	s := Stats{
		Records:        make(map[string]int, numSpaces),
		Events:         len(d.events),
		EventSeq:       d.eventSeq,
		SnapshotSeq:    d.snapSeq,
		CommitGroups:   d.commitGroups,
		GroupedRecords: d.groupedRecords,
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		s.Records[sp.String()] = len(d.spaces[sp])
	}
	d.mu.RUnlock()
	s.WALSegments = len(d.log.Segments())
	s.WALSyncs = d.log.Syncs()
	s.WALNextSeq = d.log.NextSeq()
	return s
}

// SetSnapshotExtra attaches opaque manifest data that every subsequent
// snapshot (and shipping bootstrap image) carries under key. The engine
// records its proc-refcount manifest here so a snapshot documents which
// content-addressed process texts were live when it was cut. A nil value
// removes the key.
func (d *Disk) SetSnapshotExtra(key string, value []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if value == nil {
		delete(d.extra, key)
		return
	}
	if d.extra == nil {
		d.extra = make(map[string][]byte)
	}
	d.extra[key] = append([]byte(nil), value...)
}

// marshalSnapshot captures the full state under mu and encodes it: the
// bytes of a snapshot file and of a shipping bootstrap alike, plus the
// first WAL sequence they do not cover.
func (d *Disk) marshalSnapshot() (uint64, []byte, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, nil, ErrClosed
	}
	snap := snapshot{
		WALSeq:   d.log.NextSeq(),
		EventSeq: d.eventSeq,
		Spaces:   make([][]KV, numSpaces),
		Events:   append([]Event(nil), d.events...),
	}
	for i := Space(0); i < numSpaces; i++ {
		snap.Spaces[i] = d.list(i)
	}
	if len(d.extra) > 0 {
		snap.Extra = make(map[string]json.RawMessage, len(d.extra))
		for k, v := range d.extra {
			snap.Extra[k] = json.RawMessage(append([]byte(nil), v...))
		}
	}
	d.mu.Unlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	return snap.WALSeq, data, nil
}

// writeSnapshot writes an encoded image as the snapshot file covering WAL
// sequences below seq, via tmp and rename: a crash leaves either the old
// file set or the new one, never a torn mix.
func (d *Disk) writeSnapshot(seq uint64, data []byte) error {
	final := filepath.Join(d.dir, snapName(seq))
	err := os.WriteFile(final+".tmp", data, 0o644)
	if err == nil {
		err = os.Rename(final+".tmp", final)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Snapshot writes the full state to a snapshot file and garbage-collects
// WAL segments that precede it (the retention floor pinned by an attached
// shipper is honored: segments a standby still needs survive).
func (d *Disk) Snapshot() error {
	var start time.Time
	if d.snapSeconds != nil {
		//bioopera:allow walltime latency histogram observes real snapshot I/O time; it never feeds back into replayable state
		start = time.Now()
	}
	seq, data, err := d.marshalSnapshot()
	if err != nil {
		return err
	}
	if err := d.writeSnapshot(seq, data); err != nil {
		return err
	}
	if err := d.log.TruncateBefore(seq); err != nil {
		return err
	}
	d.mu.Lock()
	d.snapSeq = seq
	d.mu.Unlock()
	// Remove superseded snapshots.
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, snapSuffix) || name == snapName(seq) {
			continue
		}
		os.Remove(filepath.Join(d.dir, name))
	}
	if d.snapSeconds != nil {
		//bioopera:allow walltime latency histogram observes real snapshot I/O time; it never feeds back into replayable state
		d.snapSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Close flushes and closes the store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
