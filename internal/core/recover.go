package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// This file is the restart path of the recovery module (§3.2): Recover
// rebuilds unfinished instances from their persisted delta records after a
// server crash or failover. The rebuild is a three-phase pipeline:
//
//  1. A serial scan groups the Instance space's raw records by instance
//     (keys carry the instance ID, so no value is decoded except the small
//     inst/ metadata record).
//  2. Workers decode and rebuild instances in parallel — decoding records
//     and parsing process text dominate recovery cost and touch only
//     per-instance state, so they stripe across one goroutine per shard
//     with no shared locks.
//  3. A serial pass in sorted instance order takes each shard lock, resumes
//     execution state, registers the instance, and emits events — so the
//     recovery trace is deterministic regardless of worker count.
//
// With Options.LazyRecovery, suspended instances skip phase 2 entirely:
// they come back as stubs (decoded metadata plus their raw records) and
// hydrate on first mutating touch, so boot time scales with the active
// fraction of the store, not its total size.

// scopeRec collects one scope's persisted delta records during recovery,
// and the keys they are stored under: the rebuilt scope and tasks keep the
// store's own key strings for their rewrites instead of building them again.
type scopeRec struct {
	scopeID       string
	create        *scopeCreateDTO
	dyn           *scopeDynDTO
	tasks         map[string]*taskState
	createK, dynK string
}

// splitInstKey splits "<inst>/<rest>" (instance IDs contain no '/').
func splitInstKey(rest string) (instID, sub string, ok bool) {
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", "", false
	}
	return rest[:slash], rest[slash+1:], true
}

// instGroup is one instance's share of the store scan: decoded metadata
// plus every raw scope/task/proc record, still undecoded.
type instGroup struct {
	id   string
	meta InstanceMeta
	kvs  []store.KV
}

// stubState carries a lazily recovered instance's undecoded records until
// first touch. Guarded by the instance's shard lock.
type stubState struct {
	kvs []store.KV
}

// decodeInstanceRecords decodes one instance's raw records into the
// per-scope overlay structure and the interned process texts. A text is the
// record's value itself, not a copy: it is read only if its hash names no
// compiled process (resolveProc).
func decodeInstanceRecords(kvs []store.KV) (map[string]*scopeRec, map[string][]byte, error) {
	recMap := make(map[string]*scopeRec)
	procs := make(map[string][]byte)
	rec := func(scopeID string) *scopeRec {
		r := recMap[scopeID]
		if r == nil {
			r = &scopeRec{scopeID: scopeID, tasks: make(map[string]*taskState)}
			recMap[scopeID] = r
		}
		return r
	}
	for _, kv := range kvs {
		switch {
		case strings.HasPrefix(kv.Key, "scopec/"):
			dto, err := decodeCreateRecord(kv.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("core: corrupt scope-create record %s: %w", kv.Key, err)
			}
			r := rec(dto.ID)
			r.create, r.createK = &dto, kv.Key
		case strings.HasPrefix(kv.Key, "scoped/"):
			_, sub, ok := splitInstKey(strings.TrimPrefix(kv.Key, "scoped/"))
			if !ok {
				continue
			}
			dto, err := decodeDynRecord(kv.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("core: corrupt scope-dynamic record %s: %w", kv.Key, err)
			}
			scopeID := sub
			if scopeID == "-" {
				scopeID = ""
			}
			r := rec(scopeID)
			r.dyn, r.dynK = &dto, kv.Key
		case strings.HasPrefix(kv.Key, "task/"):
			_, sub, ok := splitInstKey(strings.TrimPrefix(kv.Key, "task/"))
			if !ok {
				continue
			}
			// The task name follows the last '/': scope IDs may nest
			// ("A/B[3]"), task names cannot contain '/'.
			slash := strings.LastIndexByte(sub, '/')
			if slash < 0 {
				continue
			}
			scopeID, task := sub[:slash], sub[slash+1:]
			if scopeID == "-" {
				scopeID = ""
			}
			ts := new(taskState)
			if err := decodeTaskRecord(kv.Value, ts); err != nil {
				return nil, nil, fmt.Errorf("core: corrupt task record %s: %w", kv.Key, err)
			}
			if ts.Name == "" {
				ts.Name = task
			}
			ts.taskK = kv.Key
			rec(scopeID).tasks[ts.Name] = ts
		case strings.HasPrefix(kv.Key, "proc/"):
			_, hash, ok := splitInstKey(strings.TrimPrefix(kv.Key, "proc/"))
			if !ok {
				continue
			}
			procs[hash] = kv.Value
		}
	}
	return recMap, procs, nil
}

// Recover rebuilds all unfinished instances from the store after a server
// restart or crash. Activities recorded as running are treated as lost and
// re-queued; in-flight navigation is re-derived.
//
// A corrupt or inconsistent record set fails only its own instance: the
// rest recover normally, each failure is reported through Options.OnError,
// and the joined errors are returned alongside the count of instances that
// did recover.
//
// A federated engine (Options.Owns set) adopts only instances in its own
// partition; the rest stay in the store for their owners.
func (e *Engine) Recover() (int, error) { return e.RecoverOwned(nil) }

// RecoverOwned is the partition-scoped recovery entry point: it rebuilds
// only the unfinished instances for which owns returns true. Federation
// failover uses it to adopt exactly the orphaned partition a peer just
// claimed, without re-scanning instances this engine already runs (already
// registered instances are skipped either way). A nil owns falls back to
// Options.Owns, so RecoverOwned(nil) is Recover.
func (e *Engine) RecoverOwned(owns func(id string) bool) (int, error) {
	if owns == nil {
		owns = e.opts.Owns
	}
	kvs, err := e.opts.Store.List(store.Instance)
	if err != nil {
		return 0, err
	}

	// Phase 1 (serial): group raw records by instance. Only the small
	// inst/ metadata record is decoded here; everything else is deferred
	// to the workers (or, for lazy stubs, to first touch).
	var errs []error
	groups := make(map[string]*instGroup)
	group := func(id string) *instGroup {
		g := groups[id]
		if g == nil {
			g = &instGroup{id: id}
			groups[id] = g
		}
		return g
	}
	metas := make(map[string]bool)
	for _, kv := range kvs {
		if strings.HasPrefix(kv.Key, "inst/") {
			id := strings.TrimPrefix(kv.Key, "inst/")
			meta, err := DecodeInstanceMeta(kv.Value)
			if err != nil {
				errs = append(errs, fmt.Errorf("core: corrupt instance record %s: %w", kv.Key, err))
				continue
			}
			if meta.ID != "" {
				id = meta.ID
			}
			g := group(id)
			g.meta = meta
			metas[id] = true
			continue
		}
		for _, prefix := range [...]string{"scopec/", "scoped/", "task/", "proc/"} {
			if strings.HasPrefix(kv.Key, prefix) {
				if instID, _, ok := splitInstKey(strings.TrimPrefix(kv.Key, prefix)); ok {
					g := group(instID)
					g.kvs = append(g.kvs, kv)
				}
				break
			}
		}
	}

	ids := make([]string, 0, len(metas))
	for id := range metas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if owns != nil {
		kept := ids[:0]
		for _, id := range ids {
			if owns(id) {
				kept = append(kept, id)
			}
		}
		ids = kept
	}

	// Phase 2 (parallel): decode and rebuild. Worker w handles the sorted
	// indexes i with i%workers == w and writes only results[i]/buildErrs[i];
	// the one thing shared is the compiled-process index, which they read
	// (and, for a text nothing registered has, extend) under emu.
	results := make([]*Instance, len(ids))
	buildErrs := make([]error, len(ids))
	workers := min(len(e.shards), len(ids))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += workers {
				g := groups[ids[i]]
				if _, exists := e.lookup(g.id); exists {
					continue // already live (Recover on a running engine)
				}
				results[i], buildErrs[i] = e.buildRecovered(g)
			}
		}(w)
	}
	wg.Wait()

	// Phase 3 (serial, sorted order): resume execution state under each
	// instance's shard, register, emit, checkpoint — and commit the turns
	// recoverGroup at a time. Serializing this phase keeps the recovery event
	// trace independent of the worker count.
	recovered := 0
	var g turnGroup
	for i := range ids {
		if err := buildErrs[i]; err != nil {
			errs = append(errs, err)
			continue
		}
		if in := results[i]; in != nil && e.registerRecovered(in, &g) {
			recovered++
		}
		if len(g.turns) >= recoverGroup {
			e.commitGroup(&g)
		}
	}
	e.commitGroup(&g)
	e.Pump()
	if e.opts.OnError != nil {
		for _, err := range errs {
			e.opts.OnError(err)
		}
	}
	return recovered, errors.Join(errs...)
}

// recoverGroup is how many recovered instances phase 3 commits in one store
// batch. A batch per instance paid a commit — an fsync, on disk — for each of
// thousands of instances, most of them suspended and unchanged; a prototype
// committing them all in one batch copied every op into one slice and held
// every write set at once (restart_recover: setup_s 0.31 s against 0.26,
// peak RSS 78 → 119 MiB).
const recoverGroup = 256

// turnGroup holds the ended turns of phase 3 that commit together.
type turnGroup struct {
	turns []turnExit
	ops   []store.Op // the group's batch, reused from group to group
}

// commitGroup commits the group's write sets as one batch, in sorted instance
// order, each behind its instance's commit gate — a later turn of a member (a
// Resume, a dispatch) waits there for the group — then delivers what each
// turn left for after its commit. A failed batch fails every member's write
// set: each gets its persist-error, its records re-marked and its events
// carried by its next commit, as a single failed turn does.
func (e *Engine) commitGroup(g *turnGroup) {
	e.flushWrites(&g.ops, g.turns)
	for _, x := range g.turns {
		e.afterCommit(x)
	}
	clear(g.turns)
	g.turns = g.turns[:0]
}

// registerRecovered is phase 3 for one rebuilt instance, in its own turn:
// under the instance's shard, so concurrent pumps that pick up the requeued
// work serialize against the rebuild. The turn ends into g, which commits it
// with its neighbours. It reports false when the instance is already live.
//
// A recovered instance writes only what recovery changed, in at most one
// checkpoint, cut at the end of the turn: requeueing a ready task keeps the
// job ID its record names (jobID is in|scope|task|attempt), so a suspended
// instance that recovery did not change commits nothing but its
// server-recovered event.
func (e *Engine) registerRecovered(in *Instance, g *turnGroup) bool {
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	in.group = g
	if _, exists := e.lookup(in.ID); exists {
		return false
	}
	if in.Status == InstanceSuspended {
		// Before anything is requeued — now, or when a lazy stub
		// hydrates — so a suspended instance's tasks never enter
		// dispatch order.
		e.holdQueued(in)
	}
	if in.stub == nil {
		e.resumeInstance(in)
	}
	e.emu.Lock()
	e.instances[in.ID] = in
	e.order = append(e.order, in.ID)
	e.emu.Unlock()
	e.emit(in, Event{Kind: EvServerRecovered, Instance: in.ID,
		Detail: fmt.Sprintf("status=%s", in.Status)})
	// Checkpoint what resuming changed (lost work requeued, activations
	// re-derived).
	if len(in.dirty) > 0 {
		e.persist(in)
	}
	return true
}

// buildRecovered rebuilds one instance from its grouped records — or, with
// lazy recovery and a suspended instance, builds a stub that retains the
// raw records for hydration on first touch. Runs on recovery workers: it
// touches only the instance under construction.
func (e *Engine) buildRecovered(g *instGroup) (*Instance, error) {
	in := buildInstanceShell(g.meta)
	if e.opts.LazyRecovery && g.meta.Status == InstanceSuspended {
		// Record the interned-text hashes from the raw keys so later
		// checkpoints do not re-intern texts already on disk.
		for _, kv := range g.kvs {
			if strings.HasPrefix(kv.Key, "proc/") {
				if _, hash, ok := splitInstKey(strings.TrimPrefix(kv.Key, "proc/")); ok {
					in.procRefs[hash] = true
				}
			}
		}
		in.stub = &stubState{kvs: g.kvs}
		return in, nil
	}
	recMap, procTexts, err := decodeInstanceRecords(g.kvs)
	if err != nil {
		return nil, err
	}
	for hash := range procTexts {
		in.procRefs[hash] = true
	}
	if err := e.buildScopes(in, recMap, procTexts); err != nil {
		return nil, err
	}
	return in, nil
}

// buildInstanceShell constructs an Instance carrying only its metadata —
// the common base of a full rebuild and a lazy stub.
func buildInstanceShell(meta InstanceMeta) *Instance {
	in := &Instance{
		InstanceMeta: meta,
		scopes:       make(map[string]*scope),
		procRefs:     make(map[string]bool, 4),
	}
	in.setStatus(meta.Status)
	return in
}

// buildScopes reconstructs the instance's scope tree from its decoded
// records. It mutates only the instance under construction, so recovery
// workers may run it concurrently for different instances.
func (e *Engine) buildScopes(in *Instance, recMap map[string]*scopeRec, procTexts map[string][]byte) error {
	// Sort records so parents come before children (shorter IDs first;
	// root "" is shortest) — children re-inherit whiteboard values from
	// the already-rebuilt parent.
	scopeRecs := make([]*scopeRec, 0, len(recMap))
	for _, r := range recMap {
		scopeRecs = append(scopeRecs, r)
	}
	sort.Slice(scopeRecs, func(i, j int) bool {
		if len(scopeRecs[i].scopeID) != len(scopeRecs[j].scopeID) {
			return len(scopeRecs[i].scopeID) < len(scopeRecs[j].scopeID)
		}
		return scopeRecs[i].scopeID < scopeRecs[j].scopeID
	})
	for _, r := range scopeRecs {
		where := in.ID + "/" + nzScope(r.scopeID)
		if r.create == nil {
			return fmt.Errorf("core: scope %s has no create record", where)
		}
		var text []byte
		switch {
		case r.create.ProcRef != "":
			var ok bool
			text, ok = procTexts[r.create.ProcRef]
			if !ok {
				return fmt.Errorf("core: scope %s references missing process text %s", where, r.create.ProcRef)
			}
		case r.create.ProcText != "":
			text = []byte(r.create.ProcText)
		default:
			return fmt.Errorf("core: scope %s has no process text", where)
		}
		proc, err := e.resolveProc(r.create.ProcRef, text)
		if err != nil {
			return fmt.Errorf("core: scope %s has invalid process text: %w", where, err)
		}
		sc := &scope{
			ID:         r.scopeID,
			Proc:       proc,
			ParentTask: r.create.ParentTask,
			ElemIndex:  r.create.ElemIndex,
			Whiteboard: make(map[string]ocr.Value),
			Tasks:      make(map[string]*taskState),
			createK:    r.createK,
			dynK:       r.dynK,
		}
		if !r.create.IsRoot {
			parent := in.scopes[r.create.Parent]
			if parent == nil {
				return fmt.Errorf("core: scope %s has missing parent %q", where, r.create.Parent)
			}
			sc.Parent = parent
			parent.adopt(sc)
		} else {
			in.root = sc
		}
		// Whiteboard: the dynamic record's owned entries overlay what the
		// scope inherits from its parent; Full records are self-contained.
		if r.dyn != nil {
			sc.Done = r.dyn.Done
			if r.dyn.Full {
				sc.wbFull = true
				if r.dyn.Entries != nil {
					sc.Whiteboard = r.dyn.Entries // decoded for this scope alone: adopted, not copied
				}
			} else {
				if sc.Parent != nil {
					for k, v := range sc.Parent.Whiteboard {
						sc.Whiteboard[k] = v
					}
				}
				for _, k := range r.dyn.Drop {
					delete(sc.Whiteboard, k)
					sc.ownWB(k, false)
				}
				entries := make([]string, 0, len(r.dyn.Entries))
				for k := range r.dyn.Entries {
					entries = append(entries, k)
				}
				sort.Strings(entries)
				for _, k := range entries {
					sc.Whiteboard[k] = r.dyn.Entries[k]
					sc.ownWB(k, true)
				}
			}
		} else {
			e.touchMeta(in, sc) // the next checkpoint writes the missing record
		}
		taskNames := make([]string, 0, len(r.tasks))
		for name := range r.tasks {
			taskNames = append(taskNames, name)
		}
		sort.Strings(taskNames)
		for _, name := range taskNames {
			ts := r.tasks[name]
			if ct := proc.index[name]; ct != nil { // a stale record may name a task the process lacks
				ts.ConnIn = make([]connState, ct.incoming)
			}
			sc.Tasks[name] = ts
		}
		// Tasks present in the process but missing from the records
		// (older snapshot) start inactive.
		for i := range proc.tasks {
			t := &proc.tasks[i]
			if _, ok := sc.Tasks[t.Name]; !ok {
				sc.Tasks[t.Name] = &taskState{Name: t.Name, ConnIn: make([]connState, t.incoming)}
			}
		}
		in.scopes[sc.ID] = sc
	}
	if in.root == nil {
		return fmt.Errorf("core: instance %s has no root scope record", in.ID)
	}
	return nil
}

// resumeInstance restores execution state after the scope tree is rebuilt:
// lost work is requeued, waits re-armed, in-flight navigation re-derived.
// It is the effectful half of recovery — it touches the dispatcher indexes
// and emits events — so it runs serially under the instance's shard lock.
func (e *Engine) resumeInstance(in *Instance) {
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return
	}
	// Resume children before parents.
	ordered := make([]*scope, 0, len(in.scopes))
	for _, sc := range in.scopes {
		ordered = append(ordered, sc)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if len(ordered[i].ID) != len(ordered[j].ID) {
			return len(ordered[i].ID) > len(ordered[j].ID)
		}
		return ordered[i].ID < ordered[j].ID
	})
	for _, sc := range ordered {
		e.resumeScope(in, sc)
		if in.Status == InstanceFailed {
			return
		}
	}
	for _, sc := range ordered {
		e.maybeCompleteScope(in, sc)
		if in.Status == InstanceFailed || in.Status == InstanceDone {
			break
		}
	}
}

// hydrateLocked materializes a lazily recovered stub: the retained raw
// records are decoded, the scope tree rebuilt, and execution state resumed
// — the work Recover deferred. Caller holds the instance's shard lock and
// runs inside a turn, so checkpoints produced here flush at its endTurn.
// On error the stub is restored untouched, so the instance stays a valid
// meta-only shell and the caller's operation fails cleanly.
func (e *Engine) hydrateLocked(in *Instance) error {
	st := in.stub
	if st == nil {
		return nil
	}
	recMap, procTexts, err := decodeInstanceRecords(st.kvs)
	if err == nil {
		err = e.buildScopes(in, recMap, procTexts)
	}
	if err != nil {
		in.root = nil
		in.scopes = make(map[string]*scope)
		clear(in.dirty)
		return fmt.Errorf("core: hydrating instance %s: %w", in.ID, err)
	}
	in.stub = nil
	for hash := range procTexts {
		in.procRefs[hash] = true
	}
	e.resumeInstance(in)
	e.emit(in, Event{Kind: EvServerRecovered, Instance: in.ID, Detail: "hydrated"})
	if len(in.dirty) > 0 {
		e.persist(in)
	}
	return nil
}

// Hydrated reports whether the instance's full state is in memory (false
// only for lazy-recovery stubs that have not been touched yet). Callers
// that merely observe an instance — the monitor, Progress — see a
// meta-only view of stubs and need not force hydration.
func (e *Engine) Hydrated(id string) (bool, error) {
	in, ok := e.lookup(id)
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	h := in.stub == nil
	mu.Unlock()
	return h, nil
}

// resumeScope restores per-task execution state of one scope: requeues
// lost work, respawns missing child scopes, and re-derives connector
// decisions for tasks that never activated. It dirties a record only where
// it changes one.
func (e *Engine) resumeScope(in *Instance, sc *scope) {
	for _, t := range sc.Proc.Tasks {
		ts := sc.Tasks[t.Name]
		switch ts.Status {
		case TaskReady:
			// Was queued; re-queue, under the job ID it had.
			e.requeue(in, sc, t, ts)
		case TaskRunning:
			switch t.Kind {
			case ocr.KindActivity:
				if t.Await != "" {
					// Still waiting for its event; re-arm
					// the wait (signals buffered before the
					// crash are volatile and lost, as is a
					// signal — the sender re-sends).
					e.parkAwait(in, sc, t, ts)
					continue
				}
				// Dispatched but no completion recorded: the
				// work is lost; re-queue (§3.3:
				// checkpointing at activity granularity).
				in.Failures++
				in.Retries++
				ts.Status = TaskReady
				ts.Node = ""
				e.touchTask(in, sc, ts)
				e.emit(in, Event{Kind: EvTaskRetried, Instance: in.ID, Scope: sc.ID,
					Task: t.Name, Detail: "lost in server crash"})
				e.requeue(in, sc, t, ts)
			case ocr.KindBlock:
				e.resumeBlock(in, sc, t, ts)
			case ocr.KindSubprocess:
				e.resumeChildScope(in, sc, t, ts, func() {
					ts.ChildWaiting = 1
					e.spawnSubprocess(in, sc, t, ts)
				})
			}
		}
	}
	// Root activations are unconditional at scope start, so a root still
	// inactive in the checkpoint means its activation was lost (crash
	// between the scope's first checkpoint and the next one). Re-derive
	// it; activateTask is a no-op for tasks past inactive.
	if !sc.Done {
		e.activateRoots(in, sc)
		if in.Status == InstanceFailed {
			return
		}
	}
	// Re-derive connector decisions from terminal tasks so targets that
	// had not yet activated (or whose activation was not persisted)
	// activate now. Delivery skips targets that are no longer
	// inactive.
	for _, t := range sc.Proc.Tasks {
		ts := sc.Tasks[t.Name]
		if ts.Status == TaskEnded || ts.Status == TaskDead {
			e.propagate(in, sc, t, ts)
			if in.Status == InstanceFailed {
				return
			}
		}
	}
}

// resumeChildScope handles a Running block/subprocess task whose single
// child scope may be missing (respawn) or already Done (redeliver its
// outputs — the crash happened between child completion and parent
// delivery).
func (e *Engine) resumeChildScope(in *Instance, sc *scope, t *ocr.Task, ts *taskState, respawn func()) {
	childID := scopePath(sc, t.Name, -1)
	child, ok := in.scopes[childID]
	if !ok {
		respawn()
		return
	}
	if child.Done {
		outputs := make(map[string]ocr.Value, len(child.Proc.Outputs))
		for _, o := range child.Proc.Outputs {
			if v, ok := child.Whiteboard[o]; ok {
				outputs[o] = v
			} else {
				outputs[o] = ocr.Null
			}
		}
		e.finishTask(in, sc, t, ts, outputs)
		return
	}
	// Derived state: one live child (task records do not persist it).
	ts.ChildWaiting = 1
}

// resumeBlock recreates block child scopes whose records were lost (crash
// between block activation and child persistence) and redelivers results
// from children that completed but whose delivery was not persisted.
// ChildWaiting and Results are recomputed here — they are not persisted.
func (e *Engine) resumeBlock(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	if !t.Parallel {
		e.resumeChildScope(in, sc, t, ts, func() {
			child := e.newScope(in, sc, t.Name, -1, sc.Proc.index[t.Name].body)
			copyWhiteboard(child, sc)
			ts.ChildWaiting = 1
			e.startScope(in, child)
		})
		return
	}
	n := len(ts.OverElems)
	if n == 0 {
		return
	}
	if len(ts.Results) != n {
		ts.Results = make([]ocr.Value, n)
	}
	waiting := 0
	var missing []int
	for i := 0; i < n; i++ {
		childID := scopePath(sc, t.Name, i)
		child, ok := in.scopes[childID]
		if ok {
			if child.Done {
				// Recompute the element result: delivery may
				// not have been persisted.
				ts.Results[i] = elementResult(child)
			} else {
				waiting++
			}
			continue
		}
		missing = append(missing, i)
		waiting++
	}
	ts.ChildWaiting = waiting
	if waiting == 0 {
		e.finishTask(in, sc, t, ts, map[string]ocr.Value{
			"results": ocr.List(ts.Results...),
		})
		return
	}
	for _, i := range missing {
		child := e.newScope(in, sc, t.Name, i, sc.Proc.index[t.Name].body)
		copyWhiteboard(child, sc)
		child.Whiteboard[t.As] = ts.OverElems[i]
		child.ownWB(t.As, true)
		e.startScope(in, child)
	}
}
