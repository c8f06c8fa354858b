package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
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
// A checkpoint is snapshotted into plain DTOs under the shard lock (persist)
// and encoded + committed after the lock is released (flushCkpt), ordered
// by a per-instance commit gate. Each batch is atomic on the store, so a
// crash mid-checkpoint never leaves a torn view; on the disk store the batch
// is one group-committed WAL append shared with other instances' checkpoints.
//
// Completed/failed instances move to the history space under the same keys.
// Recovery rebuilds instances from these records; activities recorded as
// running are re-queued, and navigation decisions in flight are re-derived
// by re-propagating the connectors of terminal tasks.

type taskDTO struct {
	Name      string               `json:"name"`
	Status    TaskStatus           `json:"status"`
	Attempts  int                  `json:"attempts,omitempty"`
	Inputs    map[string]ocr.Value `json:"inputs,omitempty"`
	Outputs   map[string]ocr.Value `json:"outputs,omitempty"`
	Node      string               `json:"node,omitempty"`
	Job       string               `json:"job,omitempty"`
	AltOf     string               `json:"altOf,omitempty"`
	ReadyAt   sim.Time             `json:"readyAt,omitempty"`
	StartedAt sim.Time             `json:"startedAt,omitempty"`
	EndedAt   sim.Time             `json:"endedAt,omitempty"`
	CPUTime   time.Duration        `json:"cpuTime,omitempty"`
	// ChildWaiting and Results are derived state: recovery recomputes them
	// from the child scopes (resumeBlock/resumeChildScope), so task records
	// leave them zero — otherwise every child completion of an n-wide block
	// would re-encode the parent's O(n) result list. The fields keep their
	// slots in the record layout (codec.Version 1).
	ChildWaiting int         `json:"childWaiting,omitempty"`
	Results      []ocr.Value `json:"results,omitempty"`
	// OverElems is written once, when the parallel block expands.
	OverElems []ocr.Value `json:"overElems,omitempty"`
}

// scopeCreateDTO is the immutable part of a scope, written exactly once.
type scopeCreateDTO struct {
	ID         string `json:"id"`
	Parent     string `json:"parent"`
	IsRoot     bool   `json:"isRoot,omitempty"`
	ParentTask string `json:"parentTask,omitempty"`
	ElemIndex  int    `json:"elemIndex"`
	// ProcRef names an interned proc/<inst>/<hash> record; ProcText is the
	// inline fallback kept for robustness when decoding foreign records.
	ProcRef  string `json:"procRef,omitempty"`
	ProcText string `json:"proc,omitempty"`
}

// scopeDynDTO is the mutable part of a scope. Entries carries only the
// whiteboard keys this scope owns (explicitly set after creation); unowned
// keys re-inherit the parent scope's value on recovery, so an n-wide block's
// children never re-serialize the parent whiteboard they merely inherited.
// Drop masks keys the parent gained after this scope spawned. Full marks a
// complete whiteboard (root scopes, subprocess bodies, archived records).
type scopeDynDTO struct {
	Entries map[string]ocr.Value `json:"entries,omitempty"`
	Drop    []string             `json:"drop,omitempty"`
	Full    bool                 `json:"full,omitempty"`
	Done    bool                 `json:"done,omitempty"`
}

type instanceDTO struct {
	ID            string               `json:"id"`
	Template      string               `json:"template"`
	Status        InstanceStatus       `json:"status"`
	Priority      int                  `json:"priority,omitempty"`
	Nice          bool                 `json:"nice,omitempty"`
	Tenant        string               `json:"tenant,omitempty"`
	Started       sim.Time             `json:"started"`
	Ended         sim.Time             `json:"ended,omitempty"`
	Activities    int                  `json:"activities,omitempty"`
	CPU           time.Duration        `json:"cpu,omitempty"`
	Failures      int                  `json:"failures,omitempty"`
	Retries       int                  `json:"retries,omitempty"`
	Outputs       map[string]ocr.Value `json:"outputs,omitempty"`
	FailureReason string               `json:"failureReason,omitempty"`
}

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

// ckpt is one checkpoint: the dirty subset of an instance's state,
// snapshotted into DTOs under the shard lock. Marshaling and the store
// batch run in flushCkpt after the lock is released; ckpts recycle through
// a pool so the persist hot path stays allocation-light.
type ckpt struct {
	seq     uint64
	archive bool // move everything to the history space
	meta    instanceDTO
	creates []createSnap
	dyns    []dynSnap
	tasks   []taskSnap
	procs   []procSnap
	deletes []string
	ops     []store.Op    // flusher scratch
	enc     codec.Encoder // flusher scratch: binary record buffer
}

type createSnap struct {
	sc  *scope
	dto scopeCreateDTO
}

type dynSnap struct {
	sc  *scope
	dto scopeDynDTO
}

type taskSnap struct {
	sc  *scope
	ts  *taskState
	dto taskDTO
}

type procSnap struct {
	hash string
	text string
}

var ckptPool = sync.Pool{New: func() any { return new(ckpt) }}

func getCkpt() *ckpt { return ckptPool.Get().(*ckpt) }

func putCkpt(ck *ckpt) {
	clear(ck.creates)
	clear(ck.dyns)
	clear(ck.tasks)
	clear(ck.procs)
	clear(ck.ops)
	enc := ck.enc
	enc.Reset()
	*ck = ckpt{
		creates: ck.creates[:0],
		dyns:    ck.dyns[:0],
		tasks:   ck.tasks[:0],
		procs:   ck.procs[:0],
		ops:     ck.ops[:0],
		enc:     enc,
	}
	ckptPool.Put(ck)
}

// persistError surfaces a checkpoint failure: the event stream gets an
// EvPersistError and the OnError hook (if any) fires. The engine keeps
// running — the paper's recovery guarantees degrade to the last successful
// checkpoint, but a full store must not take down month-long computations.
func (e *Engine) persistError(in *Instance, context string, err error) {
	e.emit(Event{Kind: EvPersistError, Instance: in.ID,
		Detail: fmt.Sprintf("%s: %v", context, err)})
	if e.opts.OnError != nil {
		e.opts.OnError(fmt.Errorf("core: persist %s (instance %s): %w", context, in.ID, err))
	}
}

// buildInstanceDTO snapshots instance metadata. Outputs is shared: it is
// built once at completion and never mutated afterwards.
func buildInstanceDTO(in *Instance) instanceDTO {
	return instanceDTO{
		ID: in.ID, Template: in.Template, Status: in.Status,
		Priority: in.Priority, Nice: in.Nice, Tenant: in.Tenant,
		Started: in.Started, Ended: in.Ended,
		Activities: in.Activities, CPU: in.CPU,
		Failures: in.Failures, Retries: in.Retries,
		Outputs: in.Outputs, FailureReason: in.FailureReason,
	}
}

// buildTaskDTO snapshots one task. Outputs is copied — an alternative's
// completion mutates the shared output map after the original's snapshot —
// while Inputs and OverElems are immutable once set and are shared.
// ChildWaiting and Results are derived state and are omitted (see taskDTO).
func buildTaskDTO(ts *taskState) taskDTO {
	dto := taskDTO{
		Name: ts.Name, Status: ts.Status, Attempts: ts.Attempts,
		Inputs: ts.Inputs,
		Node:   ts.Node, Job: ts.Job, AltOf: ts.AltOf,
		ReadyAt: ts.ReadyAt, StartedAt: ts.StartedAt, EndedAt: ts.EndedAt,
		CPUTime:   ts.CPUTime,
		OverElems: ts.OverElems,
	}
	if len(ts.Outputs) > 0 {
		dto.Outputs = make(map[string]ocr.Value, len(ts.Outputs))
		for k, v := range ts.Outputs {
			dto.Outputs[k] = v
		}
	}
	return dto
}

// buildDynDTO snapshots a scope's dynamic record. Maps are copied so the
// flusher can encode after the shard lock is released.
func buildDynDTO(sc *scope, full bool) scopeDynDTO {
	dto := scopeDynDTO{Done: sc.Done}
	if full || sc.wbFull {
		dto.Full = true
		if len(sc.Whiteboard) > 0 {
			dto.Entries = make(map[string]ocr.Value, len(sc.Whiteboard))
			for k, v := range sc.Whiteboard {
				dto.Entries[k] = v
			}
		}
		return dto
	}
	for k, present := range sc.wbOwn {
		if present {
			if dto.Entries == nil {
				dto.Entries = make(map[string]ocr.Value, len(sc.wbOwn))
			}
			dto.Entries[k] = sc.Whiteboard[k]
		} else {
			dto.Drop = append(dto.Drop, k)
		}
	}
	sort.Strings(dto.Drop)
	return dto
}

// buildCreateDTO snapshots a scope's immutable create record; the process
// text itself is interned separately under its content hash.
func buildCreateDTO(sc *scope, procRef string) scopeCreateDTO {
	dto := scopeCreateDTO{
		ID:         sc.ID,
		IsRoot:     sc.Parent == nil,
		ParentTask: sc.ParentTask,
		ElemIndex:  sc.ElemIndex,
		ProcRef:    procRef,
	}
	if sc.Parent != nil {
		dto.Parent = sc.Parent.ID
	}
	return dto
}

// snapshotScope captures one scope's dirty records into the checkpoint and
// clears its dirty flags. With archive set, everything is captured
// regardless of dirtiness (proc interning is then handled by archive).
func (e *Engine) snapshotScope(in *Instance, ck *ckpt, sc *scope, archive bool) {
	if sc.newborn || archive {
		text := sc.procText()
		hash := procHash(text)
		if !archive {
			if in.procRefs == nil {
				in.procRefs = make(map[string]bool, 4)
			}
			if !in.procRefs[hash] {
				in.procRefs[hash] = true
				ck.procs = append(ck.procs, procSnap{hash: hash, text: text})
			}
		}
		ck.creates = append(ck.creates, createSnap{sc: sc, dto: buildCreateDTO(sc, hash)})
	}
	if sc.newborn || sc.dirtyMeta || archive {
		ck.dyns = append(ck.dyns, dynSnap{sc: sc, dto: buildDynDTO(sc, archive)})
	}
	if archive {
		for _, t := range sc.Proc.Tasks {
			ts := sc.Tasks[t.Name]
			ck.tasks = append(ck.tasks, taskSnap{sc: sc, ts: ts, dto: buildTaskDTO(ts)})
		}
		clear(sc.dirtyTasks)
	} else if len(sc.dirtyTasks) > 0 {
		names := make([]string, 0, len(sc.dirtyTasks))
		for name := range sc.dirtyTasks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := sc.dirtyTasks[name]
			ck.tasks = append(ck.tasks, taskSnap{sc: sc, ts: ts, dto: buildTaskDTO(ts)})
		}
		clear(sc.dirtyTasks)
	}
	sc.newborn = false
	sc.dirtyMeta = false
}

// persist snapshots the instance's dirty state as one checkpoint. The
// caller holds the shard lock; the snapshot is cheap (DTO structs and map
// copies for fields that can mutate before the flush) — encoding and the
// store batch happen in flushCkpt once endTurn releases the lock.
func (e *Engine) persist(in *Instance) {
	ck := getCkpt()
	ck.seq = in.nextCkptSeq()
	ck.meta = buildInstanceDTO(in)
	if len(in.dirty) > 0 {
		ids := make([]string, 0, len(in.dirty))
		for id := range in.dirty {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			e.snapshotScope(in, ck, in.dirty[id], false)
		}
		clear(in.dirty)
	}
	ck.deletes = in.pendingDeletes
	in.pendingDeletes = nil
	in.pendingCkpts = append(in.pendingCkpts, ck)
}

// archive snapshots a finished instance completely and flags the checkpoint
// to move every record to the history space (§3.2: "the data space contains
// historical information about all processes already executed"). The bytes
// are encoded once by the flusher — no store re-reads — and one atomic
// batch writes history and clears the instance space, so a crash mid-archive
// never leaves an instance half in each. Caller holds the shard lock.
func (e *Engine) archive(in *Instance) {
	ck := getCkpt()
	ck.seq = in.nextCkptSeq()
	ck.archive = true
	ck.meta = buildInstanceDTO(in)
	ids := make([]string, 0, len(in.scopes))
	for id := range in.scopes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	seen := make(map[string]bool, 2)
	for _, id := range ids {
		sc := in.scopes[id]
		text := sc.procText()
		hash := procHash(text)
		if !seen[hash] {
			seen[hash] = true
			ck.procs = append(ck.procs, procSnap{hash: hash, text: text})
		}
		e.snapshotScope(in, ck, sc, true)
	}
	// Interned texts no live scope references anymore (sphere-aborted
	// bodies): delete their instance-space records.
	var orphans []string
	for hash := range in.procRefs {
		if !seen[hash] {
			orphans = append(orphans, hash)
		}
	}
	sort.Strings(orphans)
	for i, hash := range orphans {
		orphans[i] = procKey(in.ID, hash)
	}
	ck.deletes = append(in.pendingDeletes, orphans...)
	in.pendingDeletes = nil
	clear(in.dirty)
	in.pendingCkpts = append(in.pendingCkpts, ck)
}

// flushCkpt encodes one checkpoint through the binary codec and commits it
// to the store — after the shard lock is released. The per-instance commit
// gate admits checkpoints strictly in sequence order, so a later one can
// never overtake an earlier one even when the instance's turns end on
// different goroutines; batches of different instances still overlap and
// share group-committed fsyncs. Binary encoding is total, so there is no
// per-record marshal failure path — only the batch itself can fail.
func (e *Engine) flushCkpt(in *Instance, ck *ckpt) {
	start := e.now()
	space := store.Instance
	if ck.archive {
		space = store.History
	}
	ops, bytes := encodeCkpt(in, ck, space)
	records := len(ops)
	if ck.archive {
		// One pass: the same batch that writes the history puts clears
		// every instance-space record.
		ops = append(ops, store.Op{Space: store.Instance, Key: metaKey(in.ID), Delete: true})
		for i := range ck.creates {
			id := ck.creates[i].dto.ID
			ops = append(ops,
				store.Op{Space: store.Instance, Key: scopeCreateKey(in.ID, id), Delete: true},
				store.Op{Space: store.Instance, Key: scopeDynKey(in.ID, id), Delete: true})
		}
		for i := range ck.tasks {
			ops = append(ops, store.Op{Space: store.Instance, Key: taskKey(in.ID, ck.tasks[i].sc.ID, ck.tasks[i].dto.Name), Delete: true})
		}
		for _, ps := range ck.procs {
			ops = append(ops, store.Op{Space: store.Instance, Key: procKey(in.ID, ps.hash), Delete: true})
		}
	}
	for _, key := range ck.deletes {
		ops = append(ops, store.Op{Space: store.Instance, Key: key, Delete: true})
	}
	ck.ops = ops
	e.metrics.checkpoint(e.now().Sub(start), bytes, records)

	// Commit through the gate, strictly in sequence order.
	in.gateMu.Lock()
	if in.gateCond == nil {
		in.gateCond = sync.NewCond(&in.gateMu)
	}
	for in.ckptDone != ck.seq {
		in.gateCond.Wait()
	}
	var err error
	fenced := len(ops) > 0 && e.opts.Owns != nil && !e.opts.Owns(in.ID)
	if fenced {
		// Ownership write fence: the instance's partition moved to another
		// server (lease lost, or this member is shutting down) after the
		// checkpoint was cut. The new owner recovered from the last owned
		// checkpoint and is now authoritative; committing this batch would
		// clobber its records — or, for an archive, delete the very records
		// it adopts from — so the batch is dropped, not written.
		e.metrics.fenced()
	} else if len(ops) > 0 {
		err = e.opts.Store.Batch(ops)
	}
	// The gate always advances — even on error — so Crash's quiesce wait
	// and later checkpoints never hang on a failed one.
	in.ckptDone++
	in.gateCond.Broadcast()
	in.gateMu.Unlock()

	if err != nil {
		e.persistError(in, "checkpoint batch", err)
		e.remarkCkpt(in, ck)
	}
	putCkpt(ck)
}

// remarkCkpt re-dirties everything a failed batch carried: scopes still
// live re-mark their records, interned texts forget their hashes so a
// later create re-writes them, and pending deletes are re-queued.
func (e *Engine) remarkCkpt(in *Instance, ck *ckpt) {
	mu := e.shardFor(in.ID)
	mu.Lock()
	live := func(sc *scope) bool { return in.scopes[sc.ID] == sc }
	for i := range ck.creates {
		if sc := ck.creates[i].sc; live(sc) {
			sc.newborn = true
			in.markDirty(sc)
		}
	}
	for i := range ck.dyns {
		if sc := ck.dyns[i].sc; live(sc) {
			sc.dirtyMeta = true
			in.markDirty(sc)
		}
	}
	for i := range ck.tasks {
		sc, ts := ck.tasks[i].sc, ck.tasks[i].ts
		if !live(sc) {
			continue
		}
		if sc.dirtyTasks == nil {
			sc.dirtyTasks = make(map[string]*taskState, 4)
		}
		sc.dirtyTasks[ts.Name] = ts
		in.markDirty(sc)
	}
	for _, ps := range ck.procs {
		delete(in.procRefs, ps.hash)
	}
	in.pendingDeletes = append(in.pendingDeletes, ck.deletes...)
	mu.Unlock()
}

// nextCkptSeq takes the next checkpoint sequence number. The counter
// lives under gateMu so quiesceCkpts can read it while another
// goroutine's turn is still cutting checkpoints; the caller holds the
// shard lock, so per-turn sequence order is still total.
func (in *Instance) nextCkptSeq() uint64 {
	in.gateMu.Lock()
	seq := in.ckptSeq
	in.ckptSeq++
	in.gateMu.Unlock()
	return seq
}

// quiesceCkpts blocks until every in-flight checkpoint flush of the
// instance has passed the commit gate. Callers must guarantee no new
// checkpoints are being produced (Crash holds every shard) or must not
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
