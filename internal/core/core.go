package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// Engine errors.
var (
	ErrUnknownTemplate = errors.New("core: unknown template")
	ErrUnknownInstance = errors.New("core: unknown instance")
	ErrBadState        = errors.New("core: operation invalid in current state")
	ErrNotOwner        = errors.New("core: instance not owned by this server")
	ErrDuplicateID     = errors.New("core: instance ID already in use")
)

// Launch describes one activity dispatch in full: the scheduling decision
// (job, node, cost, niceness) plus the external binding by name. Each
// executor uses the part it needs — the simulated cluster models only the
// cost, the local pool and the remote worker agent look Program up in a
// library and call it with Inputs and Ctx.
type Launch struct {
	Job  cluster.JobID
	Node string
	Cost time.Duration
	Nice bool
	// Timeout bounds this attempt's wall-clock run time (0 = no limit).
	// The dispatcher enforces it through Kill; executors may also use it
	// as a hint but need not act on it.
	Timeout time.Duration
	// Program names the external binding; Inputs and Ctx are what its
	// invocation receives. An in-process executor that does not run it — the
	// simulated cluster always, the local pool when the engine's library
	// lacks the binding — leaves the completion's Outputs and ProgramErr nil:
	// the completion turn then runs the program itself (which keeps simulated
	// traces deterministic) or fails the instance for the missing binding.
	Program string
	Inputs  map[string]ocr.Value
	Ctx     ProgramCtx
}

// Executor abstracts the cluster the dispatcher talks to: the simulated
// cluster, the local goroutine pool, and the remote worker server all
// implement it.
type Executor interface {
	// AppendNodes appends the current placement view to dst and returns it.
	// The dispatcher passes one buffer it owns, under its dispatch lock, so
	// a decision takes a view without allocating; the executor must not
	// keep dst.
	AppendNodes(dst []cluster.NodeView) []cluster.NodeView
	// Launch starts a job; completions arrive via the engine's
	// HandleCompletion. The engine calls it with no lock held, once the
	// turn that recorded the dispatch has committed, and it must not
	// block: the turn's other launches and its pump wait behind it.
	Launch(l Launch) error
	// Kill aborts a running job; a completion with an error follows.
	Kill(id cluster.JobID, node string) error
}

// EventKind classifies engine events.
type EventKind string

// Engine event kinds.
const (
	EvInstanceStarted   EventKind = "instance-started"
	EvInstanceDone      EventKind = "instance-done"
	EvInstanceFailed    EventKind = "instance-failed"
	EvInstanceSuspended EventKind = "instance-suspended"
	EvInstanceResumed   EventKind = "instance-resumed"
	EvTaskReady         EventKind = "task-ready"
	EvTaskDispatched    EventKind = "task-dispatched"
	EvTaskEnded         EventKind = "task-ended"
	EvTaskFailed        EventKind = "task-failed"
	EvTaskRetried       EventKind = "task-retried"
	EvTaskTimeout       EventKind = "task-timeout"
	EvTaskDead          EventKind = "task-dead"
	EvServerRecovered   EventKind = "server-recovered"
	EvSphereAborted     EventKind = "sphere-aborted"
	EvUndoRun           EventKind = "undo-run"
	EvUndoFailed        EventKind = "undo-failed"
	EvTaskAwaiting      EventKind = "task-awaiting"
	EvSignal            EventKind = "signal"
	EvPersistError      EventKind = "persist-error"
	EvNodeJoined        EventKind = "node-joined"
	EvNodeDown          EventKind = "node-down"
	EvTaskUnplaceable   EventKind = "task-unplaceable"
)

// Event is one engine-level occurrence, persisted to the history journal.
type Event struct {
	At       sim.Time  `json:"at"`
	Kind     EventKind `json:"kind"`
	Instance string    `json:"instance,omitempty"`
	Scope    string    `json:"scope,omitempty"`
	Task     string    `json:"task,omitempty"`
	Node     string    `json:"node,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// DefaultShards is the size of the instance lock table (and the number of
// recovery workers).
const DefaultShards = 32

// Options configure an Engine.
type Options struct {
	// Store persists templates, instances, configuration and history.
	// Required.
	Store store.Store
	// Library resolves external bindings. Required.
	Library *Library
	// Executor runs activities. Required.
	Executor Executor
	// Clock supplies time: event stamps and the TIMEOUT timers, which stay
	// deterministic on the simulator's virtual clock. Required.
	Clock sim.Clock
	// Policy places activities; defaults to LeastLoaded.
	Policy sched.Policy
	// Quotas assigns per-tenant fair-share weights for the activity
	// queue (unlisted tenants weigh 1). Tenancy comes from
	// StartOptions.Tenant; with a single tenant the queue order is the
	// plain (priority, FIFO) of the pre-tenancy engine.
	Quotas map[string]float64
	// OnInstanceDone fires when an instance reaches Done or Failed.
	OnInstanceDone func(*Instance)
	// OnEvent observes every engine event (may be nil). It may be called
	// from any goroutine driving the engine.
	OnEvent func(Event)
	// OnError observes asynchronous engine errors — today, checkpoint
	// (persist/archive) failures that have no caller to return to. May
	// be called from any goroutine driving the engine.
	OnError func(error)
	// Metrics, when non-nil, registers the engine's instrumentation:
	// event counters by kind, per-shard navigation turn counts, turn
	// latency, and queue-depth/running-jobs gauges. Handles are
	// pre-resolved at New, so the enabled hot-path cost is a few atomic
	// adds; nil disables instrumentation entirely.
	Metrics *obs.Registry
	// EventRing, when non-nil, receives every emitted Event for live
	// tailing (the monitor's /api/events renders them as JSON). Publishing
	// never blocks, so a stalled subscriber cannot slow emit.
	EventRing *obs.Ring
	// Owns, when non-nil, partitions instance ownership across federated
	// engines sharing one store: every mutating entry point (StartProcess
	// with an explicit ID, Suspend, Resume, Abort, SetParameter, Signal)
	// fails with ErrNotOwner for IDs outside this engine's partition,
	// Recover adopts only owned instances, and checkpoint batches are
	// fenced at commit time — a checkpoint cut while owned but flushed
	// after ownership moved is dropped, so an engine that lost a lease
	// (or is draining through shutdown while a peer adopts its work) can
	// never clobber its successor's records. The callback must be safe
	// for concurrent use and may change its answer over time (ownership
	// moves on failover); nil means the engine owns everything.
	Owns func(id string) bool
}

// queuedRef is a task's current dispatch attempt: what connects a queued or
// running sched.Job back to its task. A task has at most one live attempt
// (ts.Job names it), so the ref is a field of its taskState and lives exactly
// as long as the task does — a drain that popped it, a timeout timer or a
// WhatIf snapshot may still read it after it left the indexes, which is what
// a free list could not know. inst, sc and ts never change; the rest is
// written under dmu only (job by enqueue, which also holds the shard, so a
// turn may read it under either).
type queuedRef struct {
	inst *Instance
	sc   *scope
	ts   *taskState
	job  sched.Job // the queued job as built at enqueue (cost, tenant, key)
	node string    // dispatch target; set under dmu when the scheduler picks it
	// decided marks a picked job that holds its slot in the engine's view
	// (Engine.decided) until its Launch has returned; killed, a kill that
	// came before then (Engine.kill). Both under dmu.
	decided, killed bool
	// stopTimeout stops the TIMEOUT timer armed at dispatch; set and
	// cleared under dmu while the job is in the running map. A func, not
	// the sim.Stopper, keeps taskState in its allocation size class.
	stopTimeout func() bool
}

// Engine is the BioOpera server: navigator + dispatcher + recovery.
//
// It is internally synchronized and safe for concurrent callers. Each
// instance's navigation is strictly serialized by an instance-sharded lock
// table (shardFor), preserving the paper's per-instance semantics, while
// independent instances execute and checkpoint concurrently. Cross-instance
// state lives behind two small front-end locks:
//
//	emu  templates and the instance registry
//	dmu  the scheduler's activity queue and the queued/running job indexes
//
// Lock order is shard → emu/dmu (emu and dmu are leaves, except that Crash
// takes emu then dmu). Navigation never calls the executor or Pump while
// holding a shard: it notes kills and launches on the instance and endTurn,
// the one way out of a turn, delivers them once the shard is released and
// the turn has committed (executors may deliver the kill completion
// synchronously, re-entering the same shard). The scheduler's decisions are
// taken under a shard, though: a turn that asked for a pump decides before it
// ends (drain), under dmu.
type Engine struct {
	opts    Options
	sched   *sched.Scheduler
	metrics *engineMetrics // nil when Options.Metrics is nil

	paused atomic.Bool // global suspend (server-level)

	// regMu holds RegisterTemplate's store batch and its swap of the compiled
	// template together, so two registrations of one name leave the engine
	// and the store on the same one. It is never taken under a shard.
	regMu sync.Mutex

	shards []sync.Mutex // instance lock table; shardFor hashes instance IDs

	emu       sync.RWMutex
	templates map[string]*compiledProc // the template space, compiled (template.go)
	byHash    map[string]*compiledProc // compiled processes and block bodies by content hash
	versions  map[string][]byte        // the template space's process texts by hash, as Recover last read them
	instances map[string]*Instance
	order     []string // instance creation order, for determinism
	nextID    int
	idsSeeded atomic.Bool // nextID has been raised past the store's IDs

	dmu     sync.Mutex
	queued  map[string]*queuedRef // job ID → queued task
	running map[string]*queuedRef // job ID → task picked by the scheduler or running
	// decided counts, per node, the jobs picked but not yet launched; every
	// decision adds them to the executor's view, so concurrent drains cannot
	// hand out a slot a decision holds. nDecided is their sum.
	decided  map[string]int
	nDecided int
	// launching counts the Launch calls in flight, and missed is set when a
	// decision found no slot meanwhile (launch).
	launching int
	missed    bool
	// view is the one buffer scheduling decisions take their cluster view
	// into. No Policy keeps the slice and every decision is made under dmu,
	// so the next decision may overwrite it.
	view []cluster.NodeView

	// deferred holds the journal records raised outside any turn until a
	// batch carries them (persist.go).
	deferred deferredEvents
}

// New builds an engine and loads templates already in the store.
func New(opts Options) (*Engine, error) {
	if opts.Store == nil || opts.Library == nil || opts.Executor == nil || opts.Clock == nil {
		return nil, fmt.Errorf("core: Store, Library, Executor and Clock are required")
	}
	e := &Engine{
		opts:      opts,
		sched:     sched.New(sched.Config{Policy: opts.Policy, Quotas: opts.Quotas}),
		shards:    make([]sync.Mutex, DefaultShards),
		templates: make(map[string]*compiledProc),
		byHash:    make(map[string]*compiledProc),
		instances: make(map[string]*Instance),
		queued:    make(map[string]*queuedRef),
		running:   make(map[string]*queuedRef),
		decided:   make(map[string]int),
	}
	kvs, err := opts.Store.List(store.Template)
	if err != nil {
		return nil, err
	}
	for _, kv := range kvs {
		if strings.HasPrefix(kv.Key, versionPrefix) {
			continue // a version record: Recover reads those
		}
		p, err := ocr.ParseProcess(string(kv.Value))
		if err != nil {
			return nil, fmt.Errorf("core: template %q in store is invalid: %w", kv.Key, err)
		}
		e.setTemplate(kv.Key, compile(p))
	}
	if opts.Metrics != nil {
		e.metrics = newEngineMetrics(opts.Metrics, e)
	}
	return e, nil
}

// shardIndex maps an instance ID to its lock shard (FNV-1a).
func (e *Engine) shardIndex(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(len(e.shards)))
}

// shardFor maps an instance ID to its lock.
func (e *Engine) shardFor(id string) *sync.Mutex {
	return &e.shards[e.shardIndex(id)]
}

// lookup finds an instance in the registry.
func (e *Engine) lookup(id string) (*Instance, bool) {
	e.emu.RLock()
	in, ok := e.instances[id]
	e.emu.RUnlock()
	return in, ok
}

// endTurn is the one way out of an instance's critical section. Every
// function that locks a shard to write defers it straight after the lock, so
// each return leaves through it. A turn that asked for a pump takes the
// dispatcher's decisions first, still under the shard: the dispatches of its
// own jobs join its write set (drain). Then endTurn detaches the write set,
// releases the shard, commits the write set as one store batch and delivers
// what waited for the commit (afterCommit). A turn whose drain handed a
// decision to another instance commits with that instance's dispatch turn
// (groupDispatches). A turn in a group — a dispatch turn of groupDispatches,
// a turn of Recover's phase 3 — leaves its exit with the group instead, which
// commits and delivers it with the group's other members. A turn that panics
// commits nothing: its write set is dropped, the shard released and the panic
// raised again.
//
// The decisions wait for the pump when the turn also fires kills or
// OnInstanceDone, which come first and may free slots or queue work, so the
// scheduler decides in the same order, against the same view, as a pump
// after the turn would.
func (e *Engine) endTurn(in *Instance, mu *sync.Mutex) {
	r := recover()
	var next decision
	if r == nil && in.pendingPump && in.group == nil && in.pendingKills == nil && !in.pendingDone && !e.paused.Load() {
		next = e.drain(in, decision{})
	}
	x := turnExit{in: in, ws: in.writes, kills: in.pendingKills, pump: in.pendingPump, done: in.pendingDone, next: next}
	in.writes, in.pendingKills, in.pendingPump, in.pendingDone = nil, nil, false, false
	g := in.group
	in.group = nil
	if r != nil {
		in.turnLive = false
		mu.Unlock()
		panic(r)
	}
	if x.ws != nil {
		// Under the shard, so write sets enter the commit gate in turn order.
		x.ws.seq = in.nextCkptSeq()
	}
	if in.turnLive {
		in.turnLive = false
		e.metrics.turn(e.shardIndex(in.ID), e.now().Sub(in.turnStart))
	}
	mu.Unlock()
	if g != nil && x.ws != nil {
		g.turns = append(g.turns, x)
		return
	}
	if x.ws != nil && x.next.ref != nil && len(x.ws.launches) == 0 {
		e.groupDispatches(x)
		return
	}
	// Everything the turn wrote — checkpoints and events — commits here,
	// outside the critical section, ordered by the instance's commit gate.
	turn := [1]turnExit{x}
	if x.ws != nil {
		e.flushWrites(&x.ws.ops, turn[:])
	}
	e.afterCommit(turn[0])
}

// groupDispatches commits a turn together with the dispatch turns its drain
// handed on: a completion frees a slot, its drain picks another instance's
// job, and that job's dispatch record joins the freeing turn's batch instead
// of paying a commit of its own; the next decision a dispatch turn hands on
// joins too. The group commits once, then delivers in the order separate
// commits would have, so no job launches before its record is durable.
//
// Two conditions (DESIGN §8). The opening turn launches nothing itself
// (endTurn), or its own job would wait for other instances' records. And a
// dispatch joins only if its shard is free and its instance has no write set
// in flight (join): a group holds write sets uncommitted, so were it to wait
// — at a gate for another group, or for a shard Crash holds while it waits
// at the group's gates — each could wait on the other.
func (e *Engine) groupDispatches(x turnExit) {
	g := groupPool.Get().(*turnGroup)
	d := x.next
	x.next = decision{}
	g.turns = append(g.turns, x)
	for joined := true; joined && d.ref != nil; {
		d, joined = e.join(d, g)
	}
	// A decision that could not join is pumped after the last launch, as
	// the last dispatch turn's commit would have.
	g.turns[len(g.turns)-1].next = d
	e.commitGroup(g)
	groupPool.Put(g)
}

// afterCommit delivers what a turn left for after its write set committed:
// OnInstanceDone, the kills, the launches of the jobs it dispatched, and the
// pump, starting from the decision the turn carried out. A turn the write
// fence dropped launches nothing and evicts its instance before the pump.
func (e *Engine) afterCommit(x turnExit) {
	// OnInstanceDone fires after the final checkpoint committed, so a
	// waiter woken by it reads the archived state from the store.
	if x.done && e.opts.OnInstanceDone != nil {
		e.opts.OnInstanceDone(x.in)
	}
	for _, k := range x.kills {
		e.kill(k.job, k.node)
	}
	again := false
	if x.ws != nil {
		again = e.launch(x.ws.launches, x.fenced)
		putWriteSet(x.ws)
	}
	if x.fenced {
		// The instance is another server's now. A copy kept here would run
		// on, and were the partition to come back, RecoverOwned would keep
		// it over the new owner's records.
		e.evict(x.in)
	}
	if x.pump || again || x.next.ref != nil {
		e.pump(x.next)
	}
}

func (e *Engine) now() sim.Time { return e.opts.Clock.Now() }

// emit raises an event of a navigation turn. The caller holds in's shard.
// Observers — event ring, metrics, OnEvent — see the event now, in emit
// order; its journal record joins the turn's write set and becomes durable
// with the turn's checkpoint, in endTurn's one batch.
func (e *Engine) emit(in *Instance, ev Event) {
	ev.At = e.now()
	evs := &in.turnWrites().events
	evs.buf = appendEvent(evs.buf, &ev)
	evs.ends = append(evs.ends, len(evs.buf))
	e.publish(ev)
}

// emitDeferred raises an event outside any navigation turn that a turn
// follows — no shard is held, so there is no write set to join, and the
// journal record rides the next turn's batch (deferredEvents).
func (e *Engine) emitDeferred(ev Event) {
	ev.At = e.now()
	e.deferred.add(&ev)
	e.publish(ev)
}

// publish shows an event to the live observers. The ring keeps the event
// itself, rendered as JSON only when /api/events is read; Publish never
// blocks, so a stalled monitor client cannot slow navigation.
func (e *Engine) publish(ev Event) {
	if e.opts.EventRing != nil {
		e.opts.EventRing.Publish(ev)
	}
	e.metrics.event(ev.Kind)
	if e.opts.OnEvent != nil {
		e.opts.OnEvent(ev)
	}
}

// EmitInfra publishes an infrastructure event (worker joined or lost, load
// change) through the engine's full event path — journal, event ring,
// metrics, OnEvent — so events originating outside navigation reach every
// observer the navigation events reach. The timestamp is stamped from the
// engine clock. Nothing guarantees a turn after it, so its journal record
// commits at once, behind the deferred ones.
func (e *Engine) EmitInfra(ev Event) {
	ev.At = e.now()
	e.journalNow(&ev)
	e.publish(ev)
}

// RegisterTemplate validates a process and stores it in the template
// space under its name. Existing templates are replaced; running
// instances keep the definition they started with (late binding picks up
// the new version for subprocesses instantiated afterwards).
//
// One batch writes the name record and a version record (versionPrefix) for
// each distinct text of the process and its block bodies: the store's only
// copies of a text, from which recovery compiles a hash nothing registered
// has.
func (e *Engine) RegisterTemplate(p *ocr.Process) error {
	if strings.ContainsRune(p.Name, '/') {
		return fmt.Errorf("core: template name %q must not contain '/'", p.Name)
	}
	if err := p.ValidateWithTemplates(e.resolveTemplateProcess); err != nil {
		return err
	}
	// The one copy: the caller keeps its value, instances share the engine's.
	cp := compile(p.Clone())
	ops := []store.Op{{Space: store.Template, Key: cp.Name, Value: cp.bytes}}
	for _, body := range cp.all {
		key := versionPrefix + body.hash
		if !slices.ContainsFunc(ops, func(op store.Op) bool { return op.Key == key }) {
			ops = append(ops, store.Op{Space: store.Template, Key: key, Value: body.bytes})
		}
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if err := e.opts.Store.Batch(ops); err != nil {
		return err
	}
	e.emu.Lock()
	e.setTemplate(cp.Name, cp)
	e.emu.Unlock()
	return nil
}

// RegisterTemplateSource parses OCR text and registers every process in
// it.
func (e *Engine) RegisterTemplateSource(src string) error {
	ps, err := ocr.ParseFile(src)
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := e.RegisterTemplate(p); err != nil {
			return err
		}
	}
	return nil
}

// Template returns a copy of a registered template.
func (e *Engine) Template(name string) (*ocr.Process, bool) {
	e.emu.RLock()
	p, ok := e.templates[name]
	e.emu.RUnlock()
	if !ok {
		return nil, false
	}
	return p.Process.Clone(), true
}

// Templates lists registered template names, sorted.
func (e *Engine) Templates() []string {
	e.emu.RLock()
	out := make([]string, 0, len(e.templates))
	for n := range e.templates {
		out = append(out, n)
	}
	e.emu.RUnlock()
	sort.Strings(out)
	return out
}

func (e *Engine) resolveTemplate(name string) (*compiledProc, bool) {
	e.emu.RLock()
	p, ok := e.templates[name]
	e.emu.RUnlock()
	return p, ok
}

// resolveTemplateProcess is resolveTemplate as validation wants it.
func (e *Engine) resolveTemplateProcess(name string) (*ocr.Process, bool) {
	if cp, ok := e.resolveTemplate(name); ok {
		return cp.Process, true
	}
	return nil, false
}

// StartOptions tune a new instance.
type StartOptions struct {
	// Priority orders this instance's activities in the queue.
	Priority int
	// Nice makes activities yield to competing cluster load (the
	// paper's shared-cluster mode).
	Nice bool
	// Tenant is the fair-share accounting bucket this instance's
	// activities charge to ("" = the default tenant); weights come from
	// Options.Quotas.
	Tenant string
	// InstanceID, when non-empty, names the new instance instead of the
	// engine's generated p-sequence. Federated members mint IDs that
	// encode their partition; the caller guarantees global uniqueness
	// (the engine still rejects an ID already in its registry). IDs must
	// not contain '/'.
	InstanceID string
}

// checkOwned gates a mutating entry point on the ownership partition.
func (e *Engine) checkOwned(id string) error {
	if e.opts.Owns != nil && !e.opts.Owns(id) {
		return fmt.Errorf("%w: %s", ErrNotOwner, id)
	}
	return nil
}

// seedNextID raises the ID counter past every instance the store has ever
// held — live (Instance space) or archived (History) — so an engine on an
// existing store never mints an ID a second time and overwrites that
// instance's records, whether or not Recover ran. It runs once, on the
// first mint, and only reads.
func (e *Engine) seedNextID() error {
	max := 0
	for _, sp := range []store.Space{store.Instance, store.History} {
		kvs, err := e.opts.Store.List(sp)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			var n int
			if _, err := fmt.Sscanf(kv.Key, "inst/p%d", &n); err == nil && n > max {
				max = n
			}
		}
	}
	e.emu.Lock()
	if max > e.nextID {
		e.nextID = max
	}
	e.emu.Unlock()
	e.idsSeeded.Store(true)
	return nil
}

// StartProcess instantiates a template and begins navigation. It returns
// the new instance ID.
func (e *Engine) StartProcess(template string, inputs map[string]ocr.Value, opts StartOptions) (string, error) {
	if opts.InstanceID != "" {
		if strings.ContainsRune(opts.InstanceID, '/') {
			return "", fmt.Errorf("core: instance ID %q must not contain '/'", opts.InstanceID)
		}
		if err := e.checkOwned(opts.InstanceID); err != nil {
			return "", err
		}
	} else if !e.idsSeeded.Load() {
		if err := e.seedNextID(); err != nil {
			return "", err
		}
	}
	e.emu.Lock()
	tpl, ok := e.templates[template]
	if !ok {
		e.emu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrUnknownTemplate, template)
	}
	id := opts.InstanceID
	if id == "" {
		e.nextID++
		id = fmt.Sprintf("p%04d", e.nextID)
	} else if _, exists := e.instances[id]; exists {
		e.emu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	e.emu.Unlock()

	in := &Instance{
		InstanceMeta: InstanceMeta{
			ID:       id,
			Template: template,
			Priority: opts.Priority,
			Nice:     opts.Nice,
			Tenant:   opts.Tenant,
			Started:  e.now(),
		},
	}
	in.setStatus(InstanceRunning)
	root := &scope{
		ID:         "",
		Proc:       tpl,
		ElemIndex:  -1,
		Whiteboard: make(map[string]ocr.Value),
		wbFull:     true, // roots have no parent to inherit from
	}
	root.layTasks()
	for _, name := range tpl.Inputs {
		if v, ok := inputs[name]; ok {
			root.Whiteboard[name] = v
		}
	}
	in.root = root
	in.scopes = map[string]*scope{"": root}

	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	if err := e.initScope(in, root); err != nil {
		return "", err
	}
	// Publish only after initialization succeeded, so no other caller
	// ever observes a half-built instance.
	e.emu.Lock()
	if _, exists := e.instances[id]; exists {
		// Two racing starts with the same explicit ID: the loser backs
		// out before publishing anything.
		e.emu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	e.instances[id] = in
	e.order = append(e.order, id)
	e.emu.Unlock()
	// The turn begins once the instance exists: a rejected start counts none.
	e.beginTurn(in)
	e.emit(in, Event{Kind: EvInstanceStarted, Instance: id, Detail: template})
	e.persist(in)
	e.activateRoots(in, root)
	e.maybeCompleteScope(in, root)
	in.pendingPump = true
	return id, nil
}

// initScope evaluates DATA initializers into the scope whiteboard.
func (e *Engine) initScope(in *Instance, sc *scope) error {
	env := scopeEnv{sc}
	for _, d := range sc.Proc.Data {
		if d.Init == nil {
			continue
		}
		v, err := d.Init.Eval(env)
		if err != nil {
			return fmt.Errorf("core: initializing DATA %s: %w", d.Name, err)
		}
		// DATA initializers override inherited values, so the scope's
		// dynamic record must own them.
		sc.set(d.Name, v)
	}
	e.touchNew(in, sc)
	return nil
}

// Instance returns a running or finished instance. The pointer is shared
// with the engine: read mutable fields only once the instance is terminal,
// or while the engine is quiescent.
func (e *Engine) Instance(id string) (*Instance, bool) {
	return e.lookup(id)
}

// InstanceState returns an instance's status and outputs, consistent under
// concurrent navigation.
func (e *Engine) InstanceState(id string) (InstanceStatus, map[string]ocr.Value, error) {
	in, ok := e.lookup(id)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	st, out := in.Status, in.Outputs
	mu.Unlock()
	return st, out, nil
}

// Instances returns every instance in creation order. The same sharing
// caveat as Instance applies.
func (e *Engine) Instances() []*Instance {
	e.emu.RLock()
	out := make([]*Instance, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.instances[id])
	}
	e.emu.RUnlock()
	return out
}

// QueueLen reports how many activities await dispatch, those of suspended
// instances included. A recovered suspended instance is a stub whose tasks
// are counted once it hydrates (Resume, or any other mutating touch).
func (e *Engine) QueueLen() int {
	e.dmu.Lock()
	n := e.sched.Len()
	e.dmu.Unlock()
	return n
}

// HeldJobs reports how many queued activities belong to suspended
// instances: counted by QueueLen, but not dispatchable until Resume. A
// recovered suspended instance's tasks are counted once its stub hydrates.
func (e *Engine) HeldJobs() int {
	e.dmu.Lock()
	n := e.sched.Held()
	e.dmu.Unlock()
	return n
}

// QueueDepths reports the queue depth by tenant and by priority level —
// the monitor's view of the multi-tenant queue.
func (e *Engine) QueueDepths() (byTenant map[string]int, byPriority map[int]int) {
	e.dmu.Lock()
	byTenant = e.sched.DepthByTenant()
	byPriority = e.sched.DepthByPriority()
	e.dmu.Unlock()
	return byTenant, byPriority
}

// TenantUsage reports a tenant's accumulated fair-share charge (estimated
// seconds of dispatched work).
func (e *Engine) TenantUsage(tenant string) float64 {
	e.dmu.Lock()
	u := e.sched.Usage(tenant)
	e.dmu.Unlock()
	return u
}

// RunningJobs reports how many activities are executing on the cluster.
func (e *Engine) RunningJobs() int {
	e.dmu.Lock()
	n := len(e.running)
	e.dmu.Unlock()
	return n
}

// Suspend stops dispatching new activities of an instance. When graceful,
// running jobs finish normally (the paper's event 1: "letting ongoing jobs
// finish but not starting new ones"); otherwise they are killed and
// requeued.
func (e *Engine) Suspend(id string, graceful bool) error {
	if err := e.checkOwned(id); err != nil {
		return err
	}
	in, ok := e.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status != InstanceRunning {
		return fmt.Errorf("%w: instance %s is %s", ErrBadState, id, in.Status)
	}
	e.beginTurn(in)
	in.setStatus(InstanceSuspended)
	e.holdQueued(in)
	e.emit(in, Event{Kind: EvInstanceSuspended, Instance: id, Detail: fmt.Sprintf("graceful=%v", graceful)})
	if !graceful {
		e.killRunning(in)
	}
	e.persist(in)
	return nil
}

// Resume restarts dispatching for a suspended instance.
func (e *Engine) Resume(id string) error {
	if err := e.checkOwned(id); err != nil {
		return err
	}
	in, ok := e.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status != InstanceSuspended {
		return fmt.Errorf("%w: instance %s is %s", ErrBadState, id, in.Status)
	}
	e.beginTurn(in)
	if err := e.hydrateLocked(in); err != nil {
		return err
	}
	in.setStatus(InstanceRunning)
	// After hydration, so the tasks a stub just requeued are released
	// with the rest.
	e.dmu.Lock()
	e.sched.Release(id)
	e.dmu.Unlock()
	e.emit(in, Event{Kind: EvInstanceResumed, Instance: id})
	e.persist(in)
	in.pendingPump = true
	return nil
}

// Abort fails an instance on user request.
func (e *Engine) Abort(id string, reason string) error {
	if err := e.checkOwned(id); err != nil {
		return err
	}
	in, ok := e.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return fmt.Errorf("%w: instance %s is %s", ErrBadState, id, in.Status)
	}
	e.beginTurn(in)
	// A stub must hydrate first: archive captures the full scope
	// tree, and failing a meta-only shell would strand its delta records.
	if err := e.hydrateLocked(in); err != nil {
		return err
	}
	e.failInstance(in, "aborted: "+reason)
	return nil
}

// SetParameter changes a whiteboard value of a running or suspended
// instance (§3.4: "the user can ... change input parameters during each
// step of the computation").
func (e *Engine) SetParameter(id, name string, v ocr.Value) error {
	if err := e.checkOwned(id); err != nil {
		return err
	}
	in, ok := e.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return fmt.Errorf("%w: instance %s is %s", ErrBadState, id, in.Status)
	}
	e.beginTurn(in)
	if err := e.hydrateLocked(in); err != nil {
		return err
	}
	e.setWB(in, in.root, name, v)
	e.persist(in)
	return nil
}

// PauseAll stops dispatching across all instances (server-level suspend,
// used during planned outages).
func (e *Engine) PauseAll() { e.paused.Store(true) }

// ResumeAll re-enables dispatching.
func (e *Engine) ResumeAll() {
	e.paused.Store(false)
	e.Pump()
}

// killRunning defers a kill for every running job of an instance; the
// completions with ErrJobKilled requeue the tasks. Caller holds the
// instance's shard; the kills fire in endTurn.
func (e *Engine) killRunning(in *Instance) {
	e.dmu.Lock()
	ids := make([]string, 0, len(e.running))
	for id, ref := range e.running {
		if ref.inst == in {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		in.pendingKills = append(in.pendingKills, pendingKill{job: id, node: e.running[id].node})
	}
	e.dmu.Unlock()
}

// holdQueued takes a suspended instance's queued activities, and any it
// queues later, out of dispatch order. The dispatcher depends on one
// invariant: an instance's group is held exactly while its status is
// Suspended. Every status change away from Suspended releases the group
// (Resume) or removes it (Done, Failed) in the same turn. Caller holds the
// instance's shard.
func (e *Engine) holdQueued(in *Instance) {
	e.dmu.Lock()
	e.sched.Hold(in.ID)
	e.dmu.Unlock()
}

// dropQueued removes all queued activities of an instance, and any hold on
// them.
func (e *Engine) dropQueued(in *Instance) {
	e.dmu.Lock()
	for _, id := range e.sched.RemoveGroup(in.ID) {
		delete(e.queued, id)
	}
	e.dmu.Unlock()
}

// failInstance aborts everything the instance still has in flight. Caller
// holds the instance's shard.
func (e *Engine) failInstance(in *Instance, reason string) {
	if in.Status == InstanceFailed || in.Status == InstanceDone {
		return
	}
	// Reason and end time are written before the status flips, so
	// lock-free readers (Wait) never see a failed instance without them.
	in.FailureReason = reason
	in.Ended = e.now()
	in.setStatus(InstanceFailed)
	e.dropQueued(in)
	in.waiting, in.signals = nil, nil
	e.killRunning(in)
	e.emit(in, Event{Kind: EvInstanceFailed, Instance: in.ID, Detail: reason})
	// archive snapshots the complete final state (no separate persist
	// needed); OnInstanceDone fires from endTurn after the flush commits.
	e.archive(in)
	in.pendingDone = true
}
