package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"

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
//	proc/<id>/<hash>          interned process text, referenced by scope-create
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
// Completed/failed instances move to the history space under the same keys.
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
func procKey(id, hash string) string { return "proc/" + id + "/" + hash }

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

// procHash is the content hash interned process text is stored under.
func procHash(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:16])
}

// markDirty indexes a scope in the instance's dirty set. Caller holds the
// shard lock.
func (in *Instance) markDirty(sc *scope) {
	if in.dirty == nil {
		in.dirty = make(map[string]*scope, 4)
	}
	in.dirty[sc.ID] = sc
}

// touchNew marks a freshly created scope: the next checkpoint writes its
// create and dynamic records (and interns its process text).
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
	if sc.dirtyTasks == nil {
		sc.dirtyTasks = make(map[string]*taskState, 4)
	}
	sc.dirtyTasks[ts.Name] = ts
	in.markDirty(sc)
}

// setWB writes one whiteboard entry through the delta-tracking layer: the
// key becomes owned by this scope's dynamic record. Live children that
// inherited the previous value pin their view first (value or absence), so
// recovery — which re-inherits unowned keys from the parent — still sees
// exactly what each child observed. Pinning one level suffices: a
// grandchild inherits from its (now explicit, unchanged) parent.
func (e *Engine) setWB(in *Instance, sc *scope, key string, v ocr.Value) {
	//bioopera:allow maprange order-independent: every child pins the same key and nothing is emitted
	for _, child := range sc.children {
		e.pinInherited(in, child, key)
	}
	sc.Whiteboard[key] = v
	sc.ownWB(key, true)
	e.touchMeta(in, sc)
}

// pinInherited makes a child's view of one inherited whiteboard key
// explicit before the parent's value changes.
func (e *Engine) pinInherited(in *Instance, sc *scope, key string) {
	if sc.wbFull {
		return // records the complete whiteboard anyway
	}
	if _, owned := sc.wbOwn[key]; owned {
		return
	}
	_, has := sc.Whiteboard[key]
	sc.ownWB(key, has)
	e.touchMeta(in, sc)
}

// ckpt is one checkpoint: the dirty subset of an instance's state, already
// encoded. persist and archive fill it under the shard lock; flushWrites
// commits it after the lock is released and holds no decoded copy of any
// record — only the buffer, the op keys, and the pointers remarkCkpt needs
// to re-dirty what a failed batch carried. ckpts recycle through a pool so
// the persist hot path stays allocation-light.
type ckpt struct {
	archive bool          // move everything to the history space
	enc     codec.Encoder // the meta, create, dyn and task records, in that order
	// ops is the checkpoint's puts, in record order: meta, interned process
	// texts, creates, dyns, tasks. Values of codec records stay nil until
	// appendOps takes their spans (appending can relocate the encoder's
	// buffer).
	ops     []store.Op
	deletes []string // instance-space keys the batch also deletes

	scopes  []*scope // walk order: the dirty (or, for an archive, all) scopes by ID
	procs   []string // hashes of the texts ops[1:1+len(procs)] intern
	creates []*scope
	dyns    []*scope
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
	clear(ck.scopes)
	clear(ck.procs)
	clear(ck.creates)
	clear(ck.dyns)
	clear(ck.tasks)
	enc := ck.enc
	enc.Reset()
	*ck = ckpt{
		enc:     enc,
		ops:     ck.ops[:0],
		scopes:  ck.scopes[:0],
		procs:   ck.procs[:0],
		creates: ck.creates[:0],
		dyns:    ck.dyns[:0],
		tasks:   ck.tasks[:0],
	}
	ckptPool.Put(ck)
}

// eventBuf holds journal records back to back: event i's JSON text ends at
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
	seq    uint64 // commit-gate sequence, taken by endTurn
	cks    []*ckpt
	events eventBuf
	ops    []store.Op // the batch: every checkpoint's ops, then the event ops
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
	*ws = writeSet{
		cks:    ws.cks[:0],
		events: eventBuf{buf: ws.events.buf[:0], ends: ws.events.ends[:0]},
		ops:    ws.ops[:0],
	}
	writeSetPool.Put(ws)
}

// persistError surfaces a checkpoint failure: the event stream gets an
// EvPersistError and the OnError hook (if any) fires. The engine keeps
// running — the paper's recovery guarantees degrade to the last successful
// checkpoint, but a full store must not take down month-long computations.
func (e *Engine) persistError(in *Instance, context string, err error) {
	e.emitNow(Event{Kind: EvPersistError, Instance: in.ID,
		Detail: fmt.Sprintf("%s: %v", context, err)})
	if e.opts.OnError != nil {
		e.opts.OnError(fmt.Errorf("core: persist %s (instance %s): %w", context, in.ID, err))
	}
}

// cutCkpt encodes the records of ck.scopes into the checkpoint and adds it to
// the turn's write set. One walk takes each record from live state to the
// encoder and names its store key; nothing is copied in between. Of each
// scope it writes what is dirty — everything, for an archive — and clears
// the dirty flags. interned is the set of process-text hashes that need no
// proc/ record in this batch; new ones are added to it. Caller holds the
// shard lock.
func (e *Engine) cutCkpt(in *Instance, ck *ckpt, interned map[string]bool) {
	start := e.now()
	space := store.Instance
	if ck.archive {
		space = store.History
	}
	slices.SortFunc(ck.scopes, func(a, b *scope) int { return strings.Compare(a.ID, b.ID) })
	enc := &ck.enc
	encodeMeta(enc, &in.InstanceMeta)
	ck.ops = append(ck.ops, store.Op{Space: space, Key: in.key()})
	bytes := 0
	for _, sc := range ck.scopes {
		if !sc.newborn && !ck.archive {
			continue
		}
		// The process text itself is interned under its content hash.
		text, hash := sc.Proc.bytes, sc.Proc.hash
		if !interned[hash] {
			interned[hash] = true
			ck.procs = append(ck.procs, hash)
			ck.ops = append(ck.ops, store.Op{Space: space, Key: procKey(in.ID, hash), Value: text})
			bytes += len(text)
		}
		dto := scopeCreateDTO{
			ID:         sc.ID,
			IsRoot:     sc.Parent == nil,
			ParentTask: sc.ParentTask,
			ElemIndex:  sc.ElemIndex,
			ProcRef:    hash,
		}
		if sc.Parent != nil {
			dto.Parent = sc.Parent.ID
		}
		encodeCreate(enc, &dto)
		ck.creates = append(ck.creates, sc)
	}
	for _, sc := range ck.creates {
		ck.ops = append(ck.ops, store.Op{Space: space, Key: sc.createKey(in)})
	}
	for _, sc := range ck.scopes {
		if sc.newborn || sc.dirtyMeta || ck.archive {
			encodeDyn(enc, sc, ck.archive)
			ck.ops = append(ck.ops, store.Op{Space: space, Key: sc.dynKey(in)})
			ck.dyns = append(ck.dyns, sc)
		}
		sc.newborn = false
		sc.dirtyMeta = false
	}
	for _, sc := range ck.scopes {
		first := len(ck.tasks)
		if ck.archive {
			for _, t := range sc.Proc.Tasks {
				ck.tasks = append(ck.tasks, taskRef{sc, sc.Tasks[t.Name]})
			}
		} else {
			for _, ts := range sc.dirtyTasks {
				ck.tasks = append(ck.tasks, taskRef{sc, ts})
			}
			slices.SortFunc(ck.tasks[first:], func(a, b taskRef) int { return strings.Compare(a.ts.Name, b.ts.Name) })
		}
		clear(sc.dirtyTasks)
		for _, tr := range ck.tasks[first:] {
			encodeTask(enc, tr.ts)
			ck.ops = append(ck.ops, store.Op{Space: space, Key: tr.ts.key(in, sc)})
		}
	}
	clear(in.dirty)
	ck.deletes = in.pendingDeletes
	in.pendingDeletes = nil
	e.metrics.checkpoint(e.now().Sub(start), bytes+len(enc.Buf), len(ck.ops))
	ws := in.turnWrites()
	ws.cks = append(ws.cks, ck)
}

// persist cuts one checkpoint of the instance's dirty state. The caller
// holds the shard lock, and the records are encoded here, under it: the
// codec costs well under a microsecond a record (DESIGN.md §8), so there is
// nothing to gain from copying state out to encode it elsewhere. What waits
// for endTurn to release the lock is the store batch (flushWrites).
func (e *Engine) persist(in *Instance) {
	ck := getCkpt()
	for _, sc := range in.dirty {
		ck.scopes = append(ck.scopes, sc)
	}
	e.cutCkpt(in, ck, in.procRefs)
}

// archive encodes a finished instance completely and flags the checkpoint
// to move every record to the history space (§3.2: "the data space contains
// historical information about all processes already executed"). The bytes
// are encoded once — no store re-reads — and one atomic batch writes history
// and clears the instance space, so a crash mid-archive never leaves an
// instance half in each. Caller holds the shard lock.
func (e *Engine) archive(in *Instance) {
	ck := getCkpt()
	ck.archive = true
	for _, sc := range in.scopes {
		ck.scopes = append(ck.scopes, sc)
	}
	// The history space interns every text afresh. Interned texts no live
	// scope references anymore (sphere-aborted bodies) are left out of seen:
	// their instance-space records are deleted.
	seen := make(map[string]bool, 2)
	e.cutCkpt(in, ck, seen)
	first := len(ck.deletes)
	for hash := range in.procRefs {
		if !seen[hash] {
			ck.deletes = append(ck.deletes, hash)
		}
	}
	orphans := ck.deletes[first:]
	slices.Sort(orphans)
	for i, hash := range orphans {
		orphans[i] = procKey(in.ID, hash)
	}
}

// appendOps appends the checkpoint's share of the turn's batch to ops: its
// puts, each pointed at its bytes, then — for an archive — the deletes of what
// the batch moves, then the deletes the checkpoint carried. The records were
// encoded when the checkpoint was cut; binary encoding is total, so there is
// no per-record marshal failure path — only the batch itself can fail.
func (ck *ckpt) appendOps(ops []store.Op) []store.Op {
	first := len(ops)
	ops = append(ops, ck.ops...)
	// Codec records are every put but the interned texts at [1:1+procs].
	ops[first].Value = ck.enc.Span(0)
	for i := 1 + len(ck.procs); i < len(ck.ops); i++ {
		ops[first+i].Value = ck.enc.Span(i - len(ck.procs))
	}
	del := func(key string) {
		ops = append(ops, store.Op{Space: store.Instance, Key: key, Delete: true})
	}
	if ck.archive {
		// One pass: the same batch that writes the history puts clears
		// every instance-space record, under the keys just written: meta,
		// each scope's create and dyn (an archive writes both for every
		// scope), tasks, texts.
		puts, np, nc := ck.ops, len(ck.procs), len(ck.creates)
		del(puts[0].Key)
		for i := 1 + np; i < 1+np+nc; i++ {
			del(puts[i].Key)
			del(puts[i+nc].Key)
		}
		for _, op := range puts[1+np+2*nc:] {
			del(op.Key)
		}
		for _, op := range puts[1 : 1+np] {
			del(op.Key)
		}
	}
	for _, key := range ck.deletes {
		del(key)
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
	pump   bool
	done   bool
	fenced bool // set by flushWrites: the write set was dropped, not written
}

// flushWrites commits the write sets of ended turns to the store as a single
// batch, after their shards are released: for each turn, in order, every
// checkpoint it cut, in cut order, then its events' journal records. A turn's
// write set is one batch of its own (endTurn); Recover's phase 3 commits a
// group of recovered instances' turns in one (recover.go). Each instance's
// commit gate admits its write sets strictly in sequence order, so a later
// turn can never overtake an earlier one even when the instance's turns end
// on different goroutines; batches of different instances still overlap and
// share group-committed fsyncs. The batch is built in *buf, which keeps the
// emptied slice for reuse; the write sets go back to their pool.
func (e *Engine) flushWrites(buf *[]store.Op, turns []turnExit) {
	ops := (*buf)[:0]
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
			// written: records and events alike.
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
	for _, t := range turns {
		in := t.in
		in.gateMu.Lock()
		switch {
		case t.fenced:
		case err != nil:
			in.failedEvents.add(&t.ws.events)
		default:
			in.failedEvents = eventBuf{}
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
		putWriteSet(t.ws)
	}
}

// remarkCkpt re-dirties everything a failed batch carried: scopes still
// live re-mark their records, interned texts forget their hashes so a
// later create re-writes them, and pending deletes are re-queued.
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
	for _, hash := range ck.procs {
		delete(in.procRefs, hash)
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
// instances. Runtime Close paths call it so the caller can close the
// store without racing an in-flight flush.
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
}
