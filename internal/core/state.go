// Package core implements the BioOpera engine — the paper's primary
// contribution (§3): a navigator that interprets OCR process graphs, a
// dispatcher that schedules activities onto cluster nodes through per-node
// program execution clients, and a recovery module that persists every
// state transition so month-long computations survive node crashes, server
// restarts, and manual suspension.
//
// The engine is internally synchronized: each instance's navigation is
// strictly serialized by an instance-sharded lock table, while independent
// instances execute and checkpoint concurrently. Cross-instance state (the
// activity queue, templates, placement) sits behind a thin synchronized
// front-end. The discrete-event simulator drives everything from a single
// goroutine, so sim runs stay deterministic; the local real-time driver
// delivers completions from worker goroutines directly.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// TaskStatus is the lifecycle state of one task within a scope.
type TaskStatus uint8

// Task statuses.
const (
	// TaskInactive: activation conditions not yet decided.
	TaskInactive TaskStatus = iota
	// TaskReady: activated, waiting in the activity queue.
	TaskReady
	// TaskRunning: dispatched to a node (activities) or executing a
	// child scope (blocks/subprocesses).
	TaskRunning
	// TaskEnded: finished successfully (or failure ignored).
	TaskEnded
	// TaskFailed: permanently failed (retries exhausted, no handler).
	TaskFailed
	// TaskDead: skipped by dead-path elimination (all incoming
	// connectors false).
	TaskDead
)

// String names the status.
func (s TaskStatus) String() string {
	switch s {
	case TaskInactive:
		return "inactive"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskEnded:
		return "ended"
	case TaskFailed:
		return "failed"
	case TaskDead:
		return "dead"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Terminal reports whether no further transitions can happen.
func (s TaskStatus) Terminal() bool {
	return s == TaskEnded || s == TaskFailed || s == TaskDead
}

// InstanceStatus is the lifecycle state of a process instance.
type InstanceStatus uint8

// Instance statuses.
const (
	// InstanceRunning: navigation in progress.
	InstanceRunning InstanceStatus = iota
	// InstanceSuspended: running jobs may finish, nothing new starts.
	InstanceSuspended
	// InstanceDone: all tasks terminal, outputs mapped.
	InstanceDone
	// InstanceFailed: aborted by a task failure or by the user.
	InstanceFailed
)

// String names the status.
func (s InstanceStatus) String() string {
	switch s {
	case InstanceRunning:
		return "running"
	case InstanceSuspended:
		return "suspended"
	case InstanceDone:
		return "done"
	case InstanceFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// connState is the decision state of one incoming connector.
type connState uint8

const (
	connPending connState = iota
	connSatisfied
	connDead
)

// taskState is the runtime record of one task in one scope, and — through
// encodeTask/decodeTaskRecord — its persisted task/ record. The JSON names
// are what `bioopera records` prints.
type taskState struct {
	Name     string     `json:"name"`
	Status   TaskStatus `json:"status"`
	Attempts int        `json:"attempts,omitempty"` // program-failure attempts consumed
	// Inputs are the evaluated argument bindings, fixed at activation
	// so retries are deterministic.
	Inputs map[string]ocr.Value `json:"inputs,omitempty"`
	// Outputs is the task's output data structure after completion.
	Outputs map[string]ocr.Value `json:"outputs,omitempty"`
	// ConnIn holds one decision per incoming connector, in declaration order
	// (the slots compile assigns to edges), carved from the scope's one ConnIn
	// array. Not persisted: recovery re-derives connector decisions from
	// terminal tasks.
	ConnIn []connState `json:"-"`
	// Node and Job identify the dispatched job (activities).
	Node string `json:"node,omitempty"`
	Job  string `json:"job,omitempty"`
	// AltOf is set when this task runs as the failure alternative of
	// another task.
	AltOf string `json:"altOf,omitempty"`
	// Accounting.
	ReadyAt   sim.Time      `json:"readyAt,omitempty"`
	StartedAt sim.Time      `json:"startedAt,omitempty"`
	EndedAt   sim.Time      `json:"endedAt,omitempty"`
	CPUTime   time.Duration `json:"cpuTime,omitempty"`
	// ChildWaiting counts live child scopes (blocks/subprocesses) and
	// Results accumulates parallel-block element results by index. Both are
	// derived state: recovery recomputes them from the child scopes
	// (resumeBlock/resumeChildScope), so task records write them as zero —
	// otherwise every child completion of an n-wide block would re-encode
	// the parent's O(n) result list. The fields keep their slots in the
	// record layout (codec.Version 1).
	ChildWaiting int         `json:"childWaiting,omitempty"`
	Results      []ocr.Value `json:"results,omitempty"`
	// OverElems is the expanded OVER list of a parallel block, written once
	// when the block expands and kept so recovery can respawn lost element
	// scopes.
	OverElems []ocr.Value `json:"overElems,omitempty"`

	taskK string // the task/ record's key, built on first use (key)
	dirty bool   // the task record needs rewriting (touchTask); cleared when a checkpoint encodes it
	held  bool   // the instance space holds the task record (ckpt.markHeld)
	// stale: the task's state changed after its record was cut without
	// dirtying it — an alternative's outputs, shared with the task it
	// replaced (finishTask) — so an archive encodes the record, not moves it.
	stale bool

	attempt queuedRef // the current dispatch attempt or AWAIT wait (see queuedRef); volatile
}

// scope is one lexical scope of a running instance: the root process, a
// block body instance, or a subprocess instance.
type scope struct {
	ID         string        // unique within the instance, e.g. "" (root), "Alignment[3]", "Tree"
	Proc       *compiledProc // shared with every scope running the same definition; never written through
	Parent     *scope
	ParentTask string // task in the parent that spawned this scope
	ElemIndex  int    // element index for parallel expansion, else -1
	// Whiteboard is the complete data area of a wbFull scope (root,
	// subprocess body). An inheriting scope (a block body) has none: its view
	// is what it owns (wbOwn) over its parent's view, read through (get).
	Whiteboard map[string]ocr.Value
	// tasks has one slot per task of Proc, at the task's position in
	// Proc.tasks. layTasks makes it once, with the scope; it never grows, so a
	// pointer to a slot holds for the scope's life.
	tasks    []taskState
	Done     bool
	children map[string]*scope // nil until the first child: a leaf scope has none

	// Delta dirty tracking (§3.3: checkpoint granularity). The unit of
	// persistence is one record, not the whole scope: newborn marks the
	// immutable create record (written once), dirtyMeta the compact
	// dynamic record (whiteboard delta, done flag), and each task slot's
	// dirty bit its task record — completing one child of an n-wide block
	// re-encodes one task, not n.
	newborn   bool // create + dynamic records never written
	dirtyMeta bool // dynamic record needs rewriting
	listed    bool // in the instance's dirty list (markDirty)
	// createHeld and dynHeld: the instance space holds the create and the
	// dynamic record (ckpt.markHeld).
	createHeld, dynHeld bool

	// wbOwn is an inheriting scope's own whiteboard, sorted by key: the
	// entries its dynamic record carries — present, with their values — and
	// the keys it masks from its parent (the parent gained them after this
	// scope spawned). A key absent from wbOwn reads through to the parent.
	// wbFull scopes (root, subprocess bodies) inherit nothing and keep the
	// complete Whiteboard instead.
	wbOwn  []ownedKey
	wbFull bool

	defunct bool // torn down by a sphere abort; ignore its completions

	createK, dynK string // the scopec/ and scoped/ records' keys, built on first use (createKey, dynKey)
}

// adopt links a child scope under s, making the children map on the first.
func (s *scope) adopt(child *scope) {
	if s.children == nil {
		s.children = make(map[string]*scope)
	}
	s.children[child.ID] = child
}

// layTasks gives the scope its task slots, each named by its task and holding
// its ConnIn, cut from one array for the whole scope.
func (s *scope) layTasks() {
	p := s.Proc
	s.tasks = make([]taskState, len(p.tasks))
	conns := make([]connState, p.conns)
	for i := range p.tasks {
		ct := &p.tasks[i]
		end := ct.connOff + ct.incoming
		s.tasks[i].Name = ct.Name
		s.tasks[i].ConnIn = conns[ct.connOff:end:end]
	}
}

// task returns the slot of the named task, or nil when the scope's process
// has no such task.
func (s *scope) task(name string) *taskState {
	if ct := s.Proc.index[name]; ct != nil {
		return &s.tasks[ct.pos]
	}
	return nil
}

// ownedKey is one whiteboard entry of an inheriting scope: the key's value,
// or — present false — a mask hiding the parent's.
type ownedKey struct {
	key     string
	val     ocr.Value
	present bool
}

func byKey(a, b ownedKey) int { return strings.Compare(a.key, b.key) }

// owned finds key in wbOwn: its index and true, or where it would go.
func (s *scope) owned(key string) (int, bool) {
	return slices.BinarySearchFunc(s.wbOwn, key, func(o ownedKey, k string) int { return strings.Compare(o.key, k) })
}

// own makes key an entry of an inheriting scope's own whiteboard: v, or
// with present false a mask.
func (s *scope) own(key string, v ocr.Value, present bool) {
	i, found := s.owned(key)
	if found {
		s.wbOwn[i].val, s.wbOwn[i].present = v, present
		return
	}
	if s.wbOwn == nil {
		s.wbOwn = make([]ownedKey, 0, 4) // a block child owns its element and its outputs
	}
	s.wbOwn = slices.Insert(s.wbOwn, i, ownedKey{key, v, present})
}

// set writes one whiteboard entry of this scope.
func (s *scope) set(key string, v ocr.Value) {
	if s.wbFull {
		s.Whiteboard[key] = v
		return
	}
	s.own(key, v, true)
}

// get reads one whiteboard entry as the scope sees it: its own entries,
// then its parent's view.
func (s *scope) get(key string) (ocr.Value, bool) {
	for ; s != nil; s = s.Parent {
		if s.wbFull {
			v, ok := s.Whiteboard[key]
			return v, ok
		}
		if i, found := s.owned(key); found {
			return s.wbOwn[i].val, s.wbOwn[i].present
		}
	}
	return ocr.Null, false
}

// view returns the scope's whole whiteboard as get sees it, for readers that
// list it. A wbFull scope's own map comes back: the caller must not write it.
func (s *scope) view() map[string]ocr.Value {
	if s.wbFull {
		return s.Whiteboard
	}
	m := make(map[string]ocr.Value)
	if s.Parent != nil {
		maps.Copy(m, s.Parent.view())
	}
	for _, o := range s.wbOwn {
		if o.present {
			m[o.key] = o.val
		} else {
			delete(m, o.key)
		}
	}
	return m
}

// env implements ocr.Env over a scope: plain names read the whiteboard,
// "task.field" reads a task's outputs.
type scopeEnv struct{ s *scope }

// Lookup implements ocr.Env.
func (e scopeEnv) Lookup(name string) (ocr.Value, bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			taskName, field := name[:i], name[i+1:]
			ts := e.s.task(taskName)
			if ts == nil || ts.Outputs == nil {
				return ocr.Null, false
			}
			v, ok := ts.Outputs[field]
			return v, ok
		}
	}
	return e.s.get(name)
}

// InstanceMeta is the persisted part of an instance: the fields of its
// inst/<id> record, declared once. Instance embeds it, encodeMeta writes it
// and DecodeInstanceMeta reads it back — for recovery and for the history
// CLI and records inspector alike.
type InstanceMeta struct {
	ID       string         `json:"id"`
	Template string         `json:"template"` // template name (root process name)
	Status   InstanceStatus `json:"status"`
	Priority int            `json:"priority,omitempty"`
	Nice     bool           `json:"nice,omitempty"`
	Tenant   string         `json:"tenant,omitempty"` // fair-share accounting bucket ("" = default)
	Started  sim.Time       `json:"started"`
	Ended    sim.Time       `json:"ended,omitempty"`
	// Accounting (§5.2 measurements).
	Activities int           `json:"activities,omitempty"` // |A|: executed activity completions
	CPU        time.Duration `json:"cpu,omitempty"`        // CPU(Π): summed activity CPU time
	Failures   int           `json:"failures,omitempty"`   // infrastructure + program failures observed
	Retries    int           `json:"retries,omitempty"`    // re-dispatches after failures
	// Outputs are the root process outputs after completion.
	Outputs map[string]ocr.Value `json:"outputs,omitempty"`
	// FailureReason records why the instance failed.
	FailureReason string `json:"failureReason,omitempty"`
}

// Instance is one running (or finished) process.
type Instance struct {
	InstanceMeta

	root   *scope
	scopes map[string]*scope

	// stub, when non-nil, marks a recovered suspended instance: only the
	// metadata record was decoded, root/scopes are empty, and the raw
	// delta records wait here until hydrateLocked replays them on the
	// first mutating touch. Guarded by the shard lock.
	stub *instGroup

	// status mirrors Status atomically so the dispatcher can test
	// dispatchability without taking the instance's shard lock. Written
	// only via setStatus (under the shard lock).
	status atomic.Int32

	// pendingKills buffers Executor.Kill requests issued during
	// navigation; they run once the instance's shard lock is released,
	// because executors may deliver the kill completion synchronously
	// (which would re-enter the same shard). Guarded by the shard lock.
	pendingKills []pendingKill

	// AWAIT wait state, guarded by the shard lock: the tasks parked on
	// each event, in activation order, and the payloads signalled before
	// any task awaited them. Both are volatile — recovery re-arms the
	// waits from task state; buffered signals die with the instance object.
	waiting map[string][]*queuedRef
	signals map[string][]map[string]ocr.Value

	// turnStart/turnLive stamp the current navigation turn for the
	// turn-latency metric (guarded by the shard lock; unused when the
	// engine has no metrics registry).
	turnStart sim.Time
	turnLive  bool

	// Checkpoint pipeline state, guarded by the shard lock. persist
	// encodes the dirty set into a ckpt and emit encodes an event's journal
	// record, both into the turn's write set; endTurn hands that to the
	// flusher after releasing the shard, so the store batch — the part that
	// can block — never runs inside the critical section.
	dirty          []*scope  // scopes with unpersisted changes, each once (scope.listed)
	writes         *writeSet // what the turn in progress has written so far (nil = nothing)
	pendingDeletes []string  // instance-space keys to delete at next flush
	pendingDone    bool      // fire OnInstanceDone after this turn's flush
	pendingPump    bool      // pump the dispatcher after this turn: it queued work or freed a slot
	metaHeld       bool      // the instance space holds the inst/ record (ckpt.markHeld)
	// lostWrite: a write set's batch failed, so until a restart what the
	// instance space holds of the instance is not what its held marks say.
	// Guarded by gateMu, not the shard lock.
	lostWrite bool
	group     *turnGroup // set for a turn that commits with a group: endTurn leaves the exit there
	metaK     string     // the inst/ record's key, built on first use (key)

	// Commit gate: admits this instance's write sets strictly in sequence
	// order once they leave the shard's critical section, so a later turn's
	// batch can never overtake an earlier one's. gateCond is created lazily
	// under gateMu. ckptSeq lives under gateMu (not the shard) so
	// quiesceCkpts can compare it against ckptDone while a turn of another
	// goroutine is ending.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	ckptSeq  uint64 // next write-set sequence number
	ckptDone uint64 // write sets through the gate (== seq of the next admitted)
	// failedEvents holds the journal records of write sets whose batch
	// failed, in gate order, until the next batch that commits carries them
	// ahead of its own. Guarded by gateMu.
	failedEvents eventBuf
}

// pendingKill is one deferred Executor.Kill request.
type pendingKill struct {
	job  string
	node string
}

// setStatus updates Status and its atomic mirror. Callers hold the
// instance's shard lock (or own the instance exclusively, as during
// construction and recovery).
func (in *Instance) setStatus(s InstanceStatus) {
	in.Status = s
	in.status.Store(int32(s))
}

// statusNow reads the status mirror without the shard lock.
func (in *Instance) statusNow() InstanceStatus { return InstanceStatus(in.status.Load()) }

// WALL returns the instance's wall-clock (virtual) duration so far or
// total.
func (in *Instance) WALL(now sim.Time) time.Duration {
	end := in.Ended
	if in.Status == InstanceRunning || in.Status == InstanceSuspended {
		end = now
	}
	return end.Sub(in.Started)
}

// Progress reports how far the instance is: terminal tasks over total
// tasks across all live scopes (§3.5: administrators are told "how far in
// their execution these processes are"). Parallel expansion grows the
// denominator as scopes appear, so progress is monotone within a scope set
// but may dip when a large block expands. A stub reports what its records
// show, measured the first time it is asked; the caller holds the
// instance's shard.
func (in *Instance) Progress() float64 {
	if in.stub != nil {
		return in.stub.measure()
	}
	var done, total int
	//bioopera:allow maprange order-independent counting; Terminal is a pure predicate and nothing is emitted
	for _, sc := range in.scopes {
		if sc.defunct {
			continue
		}
		total += len(sc.tasks)
		for i := range sc.tasks {
			if sc.tasks[i].Status.Terminal() {
				done++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// CPUPerActivity returns CPU(Π)/|A| — the paper's per-activity average,
// "a rough approximation of the time needed per activity and an intuition
// about the average recovery time".
func (in *Instance) CPUPerActivity() time.Duration {
	if in.Activities == 0 {
		return 0
	}
	return in.CPU / time.Duration(in.Activities)
}

// scopePath builds the child scope ID for a task expansion — "task",
// "parent/task", either with "[elem]" — in one concatenation: one allocation.
func scopePath(parent *scope, task string, elem int) string {
	sep := ""
	if parent.ID != "" {
		sep = "/"
	}
	if elem < 0 {
		return parent.ID + sep + task
	}
	var digits [20]byte
	return parent.ID + sep + task + "[" + string(strconv.AppendInt(digits[:0], int64(elem), 10)) + "]"
}
