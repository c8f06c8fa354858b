package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// This file is the recovery module (§3.2): "During execution, a process
// instance is persistent both in terms of the data and the state of the
// execution. This allows BioOpera to resume execution of processes after
// failures occur without losing already completed work."
//
// Checkpoints are incremental (§3.3: granularity is the lever that trades
// durability cost against lost work). A scope is persisted as delta records
// so one activity completion writes O(1) bytes, not O(scope):
//
//	inst/<id>                 instance metadata (every checkpoint)
//	scopec/<id>/<scope>       scope-create record: immutable shape, written once
//	scoped/<id>/<scope>       scope-dynamic record: owned whiteboard entries + done flag
//	task/<id>/<scope>/<task>  one record per task (root scope encodes as "-")
//
// A scope-create record names its process by content hash; the text is a
// version record of the template space (versionPrefix), never an instance's.
//
// A checkpoint is its bytes: persist encodes the dirty records straight from
// live state under the shard lock. A navigation turn is one commit: the
// checkpoints it cut and the journal records of the events it raised form the
// turn's write set, which flushWrites commits as one store batch after the
// lock is released, ordered by a per-instance commit gate. Nothing but encoded
// bytes crosses that boundary, so later turns cannot change what an earlier
// turn wrote. The batch is atomic on the store, so a crash never leaves a torn
// checkpoint, nor a journal that runs ahead of the state or behind it; on the
// disk store the batch is one group-committed WAL append shared with other
// instances' turns.
//
// Completed/failed instances move to the history space under the same keys:
// a record the instance space holds and the final turn left unchanged moves
// as a store.MoveOp, and only the records the final turn changed, or the
// instance space never held, are encoded into the history space (archive).
// Recovery rebuilds instances from these records; activities recorded as
// running are re-queued, and navigation decisions in flight are re-derived
// by re-propagating the connectors of terminal tasks.

func metaKey(id string) string { return "inst/" + id }

// nzScope encodes the root scope's empty ID as "-" in store keys.
func nzScope(scopeID string) string {
	if scopeID == "" {
		return "-"
	}
	return scopeID
}

func scopeCreateKey(id, scopeID string) string { return "scopec/" + id + "/" + nzScope(scopeID) }
func scopeDynKey(id, scopeID string) string    { return "scoped/" + id + "/" + nzScope(scopeID) }
func taskKey(id, scopeID, task string) string {
	return "task/" + id + "/" + nzScope(scopeID) + "/" + task
}

// A record is named once: the key is built the first time a checkpoint (or a
// sphere's teardown) needs it and kept beside the state it names, so the
// store's map key, every rewrite and the final delete are one string. These
// four are the only callers of the builders above; the caller holds the shard
// lock.

func (in *Instance) key() string {
	if in.metaK == "" {
		in.metaK = metaKey(in.ID)
	}
	return in.metaK
}

func (sc *scope) createKey(in *Instance) string {
	if sc.createK == "" {
		sc.createK = scopeCreateKey(in.ID, sc.ID)
	}
	return sc.createK
}

func (sc *scope) dynKey(in *Instance) string {
	if sc.dynK == "" {
		sc.dynK = scopeDynKey(in.ID, sc.ID)
	}
	return sc.dynK
}

func (ts *taskState) key(in *Instance, sc *scope) string {
	if ts.taskK == "" {
		ts.taskK = taskKey(in.ID, sc.ID, ts.Name)
	}
	return ts.taskK
}

// procHash is the content hash a process text's version record is stored
// under and a scope-create record names.
func procHash(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:16])
}

// versionPrefix begins the key of a version record in the template space:
// one process text — a template's or a block body's — under its content
// hash, proc/<hash>. A template's name record is keyed by the name, which
// never contains '/' (RegisterTemplate).
const versionPrefix = "proc/"

// markDirty lists a scope in the instance's dirty list, once until the next
// checkpoint. Caller holds the shard lock.
func (in *Instance) markDirty(sc *scope) {
	if !sc.listed {
		sc.listed = true
		in.dirty = append(in.dirty, sc)
	}
}

// clearDirty empties the dirty list. Caller holds the shard lock.
func (in *Instance) clearDirty() {
	for _, sc := range in.dirty {
		sc.listed = false
	}
	clear(in.dirty)
	in.dirty = in.dirty[:0]
}

// touchNew marks a freshly created scope: the next checkpoint writes its
// create and dynamic records.
func (e *Engine) touchNew(in *Instance, sc *scope) {
	sc.newborn = true
	sc.dirtyMeta = true
	in.markDirty(sc)
}

// touchMeta marks a scope's dynamic record (whiteboard delta, done flag)
// for rewriting.
func (e *Engine) touchMeta(in *Instance, sc *scope) {
	sc.dirtyMeta = true
	in.markDirty(sc)
}

// touchTask marks one task record for rewriting — the unit of incremental
// checkpointing.
func (e *Engine) touchTask(in *Instance, sc *scope, ts *taskState) {
	ts.dirty = true
	in.markDirty(sc)
}

// setWB writes one whiteboard entry through the delta-tracking layer: the
// key becomes owned by this scope's dynamic record. Live children read
// through to this scope, so each child that does not own the key pins the
// view it had first (value or absence): the child keeps seeing what it saw,
// and recovery — which rebuilds a child the same way, over its parent —
// sees it too. Pinning one level suffices: a grandchild reads through its
// (now explicit, unchanged) parent.
func (e *Engine) setWB(in *Instance, sc *scope, key string, v ocr.Value) {
	//bioopera:allow maprange order-independent: every child pins the same key and nothing is emitted
	for _, child := range sc.children {
		e.pinInherited(in, child, key)
	}
	sc.set(key, v)
	e.touchMeta(in, sc)
}

// pinInherited makes a child's view of one inherited whiteboard key its own
// before the parent's value changes.
func (e *Engine) pinInherited(in *Instance, sc *scope, key string) {
	if sc.wbFull {
		return // inherits nothing
	}
	if _, owned := sc.owned(key); owned {
		return
	}
	v, has := sc.get(key)
	sc.own(key, v, has)
	e.touchMeta(in, sc)
}

// ckpt is one checkpoint: the dirty subset of an instance's state, already
// encoded. persist and archive fill it under the shard lock; flushWrites
// commits it after the lock is released and holds no decoded copy of any
// record — only the buffer, the op keys, and the pointers markHeld and
// remarkCkpt need to mark what a committed batch wrote and re-dirty what a
// failed one carried. ckpts recycle through a pool so the persist hot path
// stays allocation-light.
type ckpt struct {
	archive bool // move everything to the history space
	// all: the archive cannot trust the held marks — a write set of the
	// instance is still in flight, or one failed — so it encodes every
	// record and deletes every key from the instance space.
	all bool
	// sameMeta leaves the inst/ record out of the batch: an earlier cut of
	// the turn wrote the same bytes.
	sameMeta bool
	enc      codec.Encoder // the encoded meta, create, dyn and task records, in that order
	// ops is the checkpoint's puts and an archive's moves, in record order:
	// meta, creates, dyns, tasks. The puts' values are the encoder's spans
	// in turn; they stay nil until appendOps takes them (appending can
	// relocate the encoder's buffer).
	ops     []store.Op
	deletes []string // instance-space keys the batch deletes before the puts
	drops   []string // instance-space keys an archive deletes after them: the encoded records held there

	scopes  []*scope // walk order: the dirty (or, for an archive, all) scopes by ID
	creates []*scope // the scopes whose create record is encoded
	dyns    []*scope // the scopes whose dynamic record is encoded
	tasks   []taskRef
}

type taskRef struct {
	sc *scope
	ts *taskState
}

var ckptPool = sync.Pool{New: func() any { return new(ckpt) }}

func getCkpt() *ckpt { return ckptPool.Get().(*ckpt) }

func putCkpt(ck *ckpt) {
	clear(ck.ops)
	clear(ck.drops)
	clear(ck.scopes)
	clear(ck.creates)
	clear(ck.dyns)
	clear(ck.tasks)
	enc := ck.enc
	enc.Reset()
	*ck = ckpt{
		enc:     enc,
		ops:     ck.ops[:0],
		drops:   ck.drops[:0],
		scopes:  ck.scopes[:0],
		creates: ck.creates[:0],
		dyns:    ck.dyns[:0],
		tasks:   ck.tasks[:0],
	}
	ckptPool.Put(ck)
}

// eventBuf holds journal records back to back: event i's record ends at
// ends[i].
type eventBuf struct {
	buf  []byte
	ends []int
}

// appendOps appends one journal-append op per buffered event.
func (b *eventBuf) appendOps(ops []store.Op) []store.Op {
	start := 0
	for _, end := range b.ends {
		ops = append(ops, store.EventOp(b.buf[start:end]))
		start = end
	}
	return ops
}

// add appends src's events after b's own.
func (b *eventBuf) add(src *eventBuf) {
	base := len(b.buf)
	b.buf = append(b.buf, src.buf...)
	for _, end := range src.ends {
		b.ends = append(b.ends, base+end)
	}
}

// writeSet is everything one navigation turn hands the store: the checkpoints
// it cut, in cut order, and the journal records of the events it raised. It
// hangs on the instance from the turn's first persist or emit until endTurn
// detaches it; flushWrites then commits it as one batch. Write sets recycle
// through a pool, so an idle instance holds no buffer.
type writeSet struct {
	seq      uint64 // commit-gate sequence, taken by endTurn
	cks      []*ckpt
	events   eventBuf
	ops      []store.Op      // the batch: every checkpoint's ops, then the event ops
	launches []pendingLaunch // the jobs the turn dispatched, launched after the commit
}

var writeSetPool = sync.Pool{New: func() any { return new(writeSet) }}

// turnWrites returns the write set of the turn in progress. Caller holds the
// shard lock.
func (in *Instance) turnWrites() *writeSet {
	if in.writes == nil {
		in.writes = writeSetPool.Get().(*writeSet)
	}
	return in.writes
}

// putWriteSet recycles a write set and its checkpoints.
func putWriteSet(ws *writeSet) {
	for _, ck := range ws.cks {
		putCkpt(ck)
	}
	clear(ws.cks)
	clear(ws.ops)
	clear(ws.launches)
	*ws = writeSet{
		cks:      ws.cks[:0],
		events:   eventBuf{buf: ws.events.buf[:0], ends: ws.events.ends[:0]},
		ops:      ws.ops[:0],
		launches: ws.launches[:0],
	}
	writeSetPool.Put(ws)
}

// deferredEvents holds the journal records raised outside any turn that a
// turn always follows: the simulated cluster's job start, end and failure, a
// TIMEOUT (its kill's completion turn follows) and a failed batch's
// persist-error. Nobody waits on them, so none commits alone: the next batch
// of any turn carries them ahead of its own ops (flushWrites), and a record
// that cannot wait for a turn commits them with it (journalNow). A failed
// batch hands its records back, ahead of any raised since, so the journal
// gets each exactly once and in the order raised. n mirrors the number of
// records, so a flush finds the buffer empty without taking its lock.
type deferredEvents struct {
	n     atomic.Int32
	mu    sync.Mutex
	buf   eventBuf
	spare eventBuf // a committed batch's buffer, emptied, for the next records
}

// add appends ev's journal record.
func (d *deferredEvents) add(ev *Event) {
	d.mu.Lock()
	d.buf.buf = appendEvent(d.buf.buf, ev)
	d.buf.ends = append(d.buf.ends, len(d.buf.buf))
	d.n.Store(int32(len(d.buf.ends)))
	d.mu.Unlock()
}

// take hands every record to the batch about to be built; settle ends it.
func (d *deferredEvents) take() eventBuf {
	if d.n.Load() == 0 {
		return eventBuf{}
	}
	d.mu.Lock()
	b := d.buf
	d.buf, d.spare = d.spare, eventBuf{}
	d.n.Store(0)
	d.mu.Unlock()
	return b
}

// settle ends the batch that carried b: committed, b's buffer is kept for the
// next records; failed, its records go back ahead of those raised since.
func (d *deferredEvents) settle(b eventBuf, err error) {
	if len(b.ends) == 0 {
		return
	}
	d.mu.Lock()
	if err != nil {
		b.add(&d.buf)
		d.buf, b = b, d.buf
		d.n.Store(int32(len(d.buf.ends)))
	}
	if d.spare.buf == nil {
		d.spare = eventBuf{buf: b.buf[:0], ends: b.ends[:0]}
	}
	d.mu.Unlock()
}

// flushDeferred commits the deferred records, if any, as a batch of their
// own: for a record that cannot wait for a turn, and before a quiesce or a
// crash, after which no turn may follow. A failure goes to OnError; the
// records stay for the next batch.
func (e *Engine) flushDeferred() {
	b := e.deferred.take()
	if len(b.ends) == 0 {
		return
	}
	err := e.opts.Store.Batch(b.appendOps(nil))
	e.deferred.settle(b, err)
	if err != nil && e.opts.OnError != nil {
		e.opts.OnError(fmt.Errorf("core: commit journal records: %w", err))
	}
}

// journalNow commits ev's journal record at once, behind the deferred ones.
func (e *Engine) journalNow(ev *Event) {
	e.deferred.add(ev)
	e.flushDeferred()
}

// persistError surfaces a checkpoint failure: the event stream gets an
// EvPersistError and the OnError hook (if any) fires. The engine keeps
// running — the paper's recovery guarantees degrade to the last successful
// checkpoint, but a full store must not take down month-long computations.
// The event's record rides the next batch, behind the failed batch's carried
// records.
func (e *Engine) persistError(in *Instance, context string, err error) {
	e.emitDeferred(Event{Kind: EvPersistError, Instance: in.ID,
		Detail: fmt.Sprintf("%s: %v", context, err)})
	if e.opts.OnError != nil {
		e.opts.OnError(fmt.Errorf("core: persist %s (instance %s): %w", context, in.ID, err))
	}
}

// cutCkpt encodes the records of ck.scopes into the checkpoint and adds it to
// the turn's write set. One walk takes each record from live state to the
// encoder and names its store key; nothing is copied in between. Of each
// scope a checkpoint writes what is dirty; an archive writes what is dirty or
// never held and moves the rest (record). The walk clears the dirty flags.
// Caller holds the shard lock.
func (e *Engine) cutCkpt(in *Instance, ck *ckpt) {
	start := e.now()
	slices.SortFunc(ck.scopes, func(a, b *scope) int { return strings.Compare(a.ID, b.ID) })
	ws := in.turnWrites()
	if ck.archive {
		in.gateMu.Lock()
		ck.all = in.ckptDone != in.ckptSeq || in.lostWrite
		in.gateMu.Unlock()
		// The turn's earlier checkpoints commit in the same batch, ahead of
		// the archive: what they write, the instance space holds by the time
		// the archive's ops apply.
		if !ck.all {
			for _, c := range ws.cks {
				c.markHeld(in)
			}
		}
	}
	enc := &ck.enc
	ck.record(in.key(), true, &in.metaHeld)
	encodeMeta(enc, &in.InstanceMeta)
	// A turn writes its inst/ record once, unless it changes: a turn that
	// dispatches its own jobs cuts them after its navigation's checkpoint.
	if n := len(ws.cks); n > 0 && !ck.archive && !ws.cks[n-1].archive {
		ck.sameMeta = bytes.Equal(ws.cks[n-1].enc.Span(0), enc.Span(0))
	}
	for _, sc := range ck.scopes {
		if !ck.record(sc.createKey(in), sc.newborn, &sc.createHeld) {
			continue
		}
		dto := scopeCreateDTO{
			ID:         sc.ID,
			IsRoot:     sc.Parent == nil,
			ParentTask: sc.ParentTask,
			ElemIndex:  sc.ElemIndex,
			ProcRef:    sc.Proc.hash,
		}
		if sc.Parent != nil {
			dto.Parent = sc.Parent.ID
		}
		encodeCreate(enc, &dto)
		ck.creates = append(ck.creates, sc)
	}
	for _, sc := range ck.scopes {
		if ck.record(sc.dynKey(in), sc.newborn || sc.dirtyMeta, &sc.dynHeld) {
			encodeDyn(enc, sc)
			ck.dyns = append(ck.dyns, sc)
		}
		sc.newborn = false
		sc.dirtyMeta = false
	}
	for _, sc := range ck.scopes {
		first := len(ck.tasks)
		if ck.archive {
			for i := range sc.tasks { // declaration order
				ts := &sc.tasks[i]
				if ck.record(ts.key(in, sc), ts.dirty || ts.stale, &ts.held) {
					ck.tasks = append(ck.tasks, taskRef{sc, ts})
				}
				ts.dirty = false
			}
		} else {
			for _, i := range sc.Proc.byName { // name order
				if ts := &sc.tasks[i]; ts.dirty {
					ck.record(ts.key(in, sc), true, &ts.held)
					ck.tasks = append(ck.tasks, taskRef{sc, ts})
					ts.dirty = false
				}
			}
		}
		for _, tr := range ck.tasks[first:] {
			encodeTask(enc, tr.ts)
			tr.ts.stale = false
		}
	}
	in.clearDirty()
	ck.deletes = in.pendingDeletes
	in.pendingDeletes = nil
	e.metrics.checkpoint(e.now().Sub(start), len(enc.Buf), len(ck.ops))
	ws.cks = append(ws.cks, ck)
}

// record decides one record of the cut and appends its op, reporting
// whether the caller is to encode the record. A checkpoint puts a dirty
// record into the instance space. An archive puts into the history space a
// record that is dirty or that the instance space does not hold, and drops
// the instance space's copy if it holds one; a record the instance space
// holds unchanged it moves there (§3.2), so its bytes are neither encoded
// nor logged again. Only an archive that trusts the marks reads *held: the
// flusher of an earlier write set may be writing it meanwhile (markHeld).
func (ck *ckpt) record(key string, dirty bool, held *bool) bool {
	if !ck.archive {
		if dirty {
			ck.ops = append(ck.ops, store.Op{Space: store.Instance, Key: key})
		}
		return dirty
	}
	h := true
	if ck.all {
		dirty = true
	} else {
		h = *held
	}
	if h && !dirty {
		ck.ops = append(ck.ops, store.MoveOp(store.Instance, store.History, key))
		return false
	}
	ck.ops = append(ck.ops, store.Op{Space: store.History, Key: key})
	if h {
		ck.drops = append(ck.drops, key)
	}
	return true
}

// markHeld records that the instance space holds what a checkpoint wrote
// there: flushWrites calls it once the checkpoint's batch has committed,
// under the instance's gateMu before the gate advances — so an archive that
// finds the gate clear sees every mark — and an archive for the checkpoints
// its own batch commits ahead of it. A failed or fenced batch marks nothing.
// Recovery marks every record it read (buildRecovered, buildScopes). A
// deleted record takes its mark with it: a sphere's teardown deletes the
// records of scopes it drops for good, and recovery's stray task records
// have no slot to mark.
func (ck *ckpt) markHeld(in *Instance) {
	if ck.archive {
		return
	}
	in.metaHeld = true
	for _, sc := range ck.creates {
		sc.createHeld = true
	}
	for _, sc := range ck.dyns {
		sc.dynHeld = true
	}
	for _, tr := range ck.tasks {
		tr.ts.held = true
	}
}

// persist cuts one checkpoint of the instance's dirty state. The caller
// holds the shard lock, and the records are encoded here, under it: the
// codec costs well under a microsecond a record (DESIGN.md §8), so there is
// nothing to gain from copying state out to encode it elsewhere. What waits
// for endTurn to release the lock is the store batch (flushWrites).
func (e *Engine) persist(in *Instance) {
	ck := getCkpt()
	ck.scopes = append(ck.scopes, in.dirty...)
	e.cutCkpt(in, ck)
}

// archive cuts the checkpoint that moves a finished instance to the history
// space (§3.2: "the data space contains historical information about all
// processes already executed"): every record the instance space holds
// unchanged moves there, and only what the final turn changed, or the
// instance space never held, is encoded. One atomic batch writes history and
// clears the instance space, so a crash mid-archive never leaves an instance
// half in each. Caller holds the shard lock.
func (e *Engine) archive(in *Instance) {
	ck := getCkpt()
	ck.archive = true
	for _, sc := range in.scopes {
		ck.scopes = append(ck.scopes, sc)
	}
	e.cutCkpt(in, ck)
}

// appendOps appends the checkpoint's share of the turn's batch to ops: the
// deletes it carried, then its puts, each pointed at its bytes, and an
// archive's moves, then the instance-space copies an archive drops. The
// carried deletes were queued before the cut, so a key the cut writes again
// keeps its new record: a sphere's retry re-creates the keys its abort
// deleted, and a failed batch's deletes ride a later cut. The records were
// encoded when the checkpoint was cut; binary encoding is total, so there is
// no per-record marshal failure path — only the batch itself can fail.
func (ck *ckpt) appendOps(ops []store.Op) []store.Op {
	for _, key := range ck.deletes {
		ops = append(ops, store.Op{Space: store.Instance, Key: key, Delete: true})
	}
	span := 0
	for i, op := range ck.ops {
		if _, move := op.MovedFrom(); !move {
			op.Value = ck.enc.Span(span)
			span++
			if i == 0 && ck.sameMeta {
				continue
			}
		}
		ops = append(ops, op)
	}
	for _, key := range ck.drops {
		ops = append(ops, store.Op{Space: store.Instance, Key: key, Delete: true})
	}
	return ops
}

// turnExit is what a turn leaves behind once its shard is released: the
// write set to commit (nil when the turn wrote nothing) and what fires after
// it has committed. flushWrites takes only exits with a write set.
type turnExit struct {
	in     *Instance
	ws     *writeSet
	kills  []pendingKill
	next   decision // the first decision for another instance, taken in the turn
	pump   bool
	done   bool
	fenced bool // set by flushWrites: the write set was dropped, not written
}

// flushWrites commits the write sets of ended turns to the store as a single
// batch, after their shards are released: the deferred journal records first,
// then for each turn, in order, every checkpoint it cut, in cut order, then
// its events' journal records. A turn's write set is one batch of its own
// (endTurn), or one of a group's: the dispatch turns a turn's drain handed on
// (groupDispatches), or Recover's phase 3's recovered instances (recover.go).
// Each instance's commit gate admits its write sets strictly in sequence
// order, so a later turn can never overtake an earlier one even when the
// instance's turns end on different goroutines; batches of different
// instances still overlap and share group-committed fsyncs. The batch is
// built in *buf, which keeps the emptied slice for reuse; the write sets go
// back to their pool once afterCommit has launched what they dispatched.
func (e *Engine) flushWrites(buf *[]store.Op, turns []turnExit) {
	carried := e.deferred.take()
	ops := carried.appendOps((*buf)[:0])
	for i := range turns {
		t := &turns[i]
		in, ws := t.in, t.ws
		in.gateMu.Lock()
		if in.gateCond == nil {
			in.gateCond = sync.NewCond(&in.gateMu)
		}
		for in.ckptDone != ws.seq {
			in.gateCond.Wait()
		}
		if t.fenced = e.opts.Owns != nil && !e.opts.Owns(in.ID); t.fenced {
			// Ownership write fence: the instance's partition moved to
			// another server (lease lost, or this member is shutting down)
			// after the turn ended. The new owner recovered from the last
			// owned checkpoint and is now authoritative; committing this
			// write set would clobber its records — or, for an archive,
			// delete the very records it adopts from — so it is dropped, not
			// written: records and events alike. afterCommit then evicts
			// the instance.
			e.metrics.fenced()
		} else {
			for _, ck := range ws.cks {
				ops = ck.appendOps(ops)
			}
			// Events of earlier turns whose batch failed ride ahead of this
			// turn's, so the journal gets each exactly once and in the order
			// raised.
			ops = in.failedEvents.appendOps(ops)
			ops = ws.events.appendOps(ops)
		}
		// The gate stays this write set's until ckptDone moves below.
		in.gateMu.Unlock()
	}
	var err error
	if len(ops) > 0 {
		err = e.opts.Store.Batch(ops)
	}
	// Back ahead of the persist-errors below, which were raised after them.
	e.deferred.settle(carried, err)
	for _, t := range turns {
		in := t.in
		in.gateMu.Lock()
		switch {
		case t.fenced:
		case err != nil:
			in.failedEvents.add(&t.ws.events)
			in.lostWrite = true
		default:
			in.failedEvents = eventBuf{}
			for _, ck := range t.ws.cks {
				ck.markHeld(in)
			}
		}
		// The gate always advances — even on error — so Crash's quiesce wait
		// and later turns never hang on a failed one.
		in.ckptDone++
		in.gateCond.Broadcast()
		in.gateMu.Unlock()
	}
	clear(ops) // the kept buffer pins no encoder's bytes
	*buf = ops[:0]
	for _, t := range turns {
		if err != nil && !t.fenced {
			e.persistError(t.in, "checkpoint batch", err)
			for _, ck := range t.ws.cks {
				e.remarkCkpt(t.in, ck)
			}
		}
	}
}

// remarkCkpt re-dirties everything a failed batch carried: scopes still
// live re-mark their records, and pending deletes are re-queued.
func (e *Engine) remarkCkpt(in *Instance, ck *ckpt) {
	mu := e.shardFor(in.ID)
	mu.Lock()
	live := func(sc *scope) bool { return in.scopes[sc.ID] == sc }
	for _, sc := range ck.creates {
		if live(sc) {
			sc.newborn = true
			in.markDirty(sc)
		}
	}
	for _, sc := range ck.dyns {
		if live(sc) {
			sc.dirtyMeta = true
			in.markDirty(sc)
		}
	}
	for _, tr := range ck.tasks {
		if live(tr.sc) {
			e.touchTask(in, tr.sc, tr.ts)
		}
	}
	in.pendingDeletes = append(in.pendingDeletes, ck.deletes...)
	mu.Unlock()
}

// nextCkptSeq takes the next commit-gate sequence number, one per write
// set. The counter lives under gateMu so quiesceCkpts can read it while
// another goroutine's turn is ending; the caller holds the shard lock, so
// sequence order is turn order.
func (in *Instance) nextCkptSeq() uint64 {
	in.gateMu.Lock()
	seq := in.ckptSeq
	in.ckptSeq++
	in.gateMu.Unlock()
	return seq
}

// gateClear reports whether every write set of the instance has passed its
// commit gate. The caller holds the shard lock, so no turn is ending a new one.
func (in *Instance) gateClear() bool {
	in.gateMu.Lock()
	ok := in.ckptDone == in.ckptSeq
	in.gateMu.Unlock()
	return ok
}

// quiesceCkpts blocks until every in-flight write-set flush of the
// instance has passed the commit gate. Callers must guarantee no turn is
// ending meanwhile (Crash holds every shard) or must not
// care about later turns (quiesceInstance synchronizes on the shard
// first, so all checkpoints of already-completed turns are covered).
func (in *Instance) quiesceCkpts() {
	in.gateMu.Lock()
	if in.gateCond == nil {
		in.gateCond = sync.NewCond(&in.gateMu)
	}
	for in.ckptDone != in.ckptSeq {
		in.gateCond.Wait()
	}
	in.gateMu.Unlock()
}

// quiesceInstance blocks until every checkpoint produced by turns of in
// that completed before the call has cleared its commit gate. Taking the
// shard synchronizes with any turn still inside its critical section, so
// that turn's checkpoint sequence is visible to the gate wait; the flush
// itself runs lock-free after the turn, so this cannot deadlock.
//
// An instance's terminal status becomes observable inside its final turn,
// before that turn's archive batch flushes — anyone who sees Done/Failed
// and then closes the store must quiesce in between (Wait does).
func (e *Engine) quiesceInstance(in *Instance) {
	mu := e.shardFor(in.ID)
	mu.Lock()
	mu.Unlock()
	in.quiesceCkpts()
}

// QuiesceCheckpoints blocks until every checkpoint produced by turns that
// completed before the call has cleared its commit gate, across all
// instances, then commits the deferred journal records no turn has carried
// yet. Runtime Close paths call it so the caller can close the store without
// racing an in-flight flush or leaving a record behind.
func (e *Engine) QuiesceCheckpoints() {
	e.emu.RLock()
	ins := make([]*Instance, 0, len(e.instances))
	for _, in := range e.instances {
		ins = append(ins, in)
	}
	e.emu.RUnlock()
	for _, in := range ins {
		e.quiesceInstance(in)
	}
	e.flushDeferred()
}
