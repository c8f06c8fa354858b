package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// This file is the restart path of the recovery module (§3.2): Recover
// rebuilds unfinished instances from their persisted delta records after a
// server crash or failover. The rebuild is a three-phase pipeline:
//
//  1. A serial scan groups the Instance space's raw records by instance
//     (keys carry the instance ID, so no value is decoded except the small
//     inst/ metadata record), in the key order List returns: the inst/
//     records give the instances' order, and each instance's other records
//     come in runs.
//  2. Workers decode and rebuild instances in parallel — decoding records
//     dominates recovery cost and touches only per-instance state, so they
//     stripe across one goroutine per shard with no shared locks. A scope
//     whose process hash nothing registered has compiles its text from the
//     template space's version records, read once before this phase.
//  3. A serial pass in instance order takes each shard lock, resumes
//     execution state, registers the instance, and emits events — so the
//     recovery trace is deterministic regardless of worker count.
//
// Suspended instances skip the rebuild of phase 2: they come back as stubs
// (decoded metadata plus their raw records, whose headers phase 2 checks)
// and hydrate on first mutating touch, so boot time scales with the active
// fraction of the store, not its total size.

// scopeRec collects one scope's create and dynamic records during recovery,
// and the keys they are stored under: the rebuilt scope keeps the store's own
// key strings for its rewrites instead of building them again. Task records
// are not collected: buildScopes decodes each straight into its slot.
type scopeRec struct {
	scopeID       string
	create        *scopeCreateDTO
	dyn           *scopeDynDTO
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
// plus every raw scope and task record, still undecoded. A suspended
// instance keeps its group as its stub (Instance.stub) until its first
// mutating touch, and with it the progress its records show once someone
// has looked; a stub's group is guarded by the instance's shard lock.
type instGroup struct {
	id   string
	meta InstanceMeta
	kvs  []store.KV
	// listed: the group's ID is in groupRecords' list; filed: how many
	// records groupRecords files into kvs.
	listed bool
	filed  int
	// retired refuses the instance: one of its records has a layout this
	// build does not read.
	retired error

	e        *Engine // the engine that resolves the stub's processes
	progress float64
	measured bool
}

// measure returns the Progress the stub's records show, building the scope
// tree aside from them the first time it is asked and keeping the figure:
// no turn, no write, and the stub stays a stub. A record that does not
// decode reads as no progress; hydration reports it.
func (g *instGroup) measure() float64 {
	if !g.measured {
		g.measured = true
		aside := buildInstanceShell(InstanceMeta{ID: g.id})
		aside.stub = g
		if g.e.buildStub(aside) == nil {
			g.progress = aside.Progress()
		}
	}
	return g.progress
}

// checkHeaders refuses a stub whose scope or task record is not a codec
// record of the kind its key names, so a pre-codec JSON record or a torn one
// fails its instance at Recover, as a full rebuild's decode would; only a
// record with a good header and a bad body waits for hydration. It opens
// each record with one pooled decoder and allocates only to refuse.
func checkHeaders(kvs []store.KV) error {
	d := decoders.Get().(*codec.Decoder)
	defer decoders.Put(d)
	for _, kv := range kvs {
		var kind byte
		var what string
		switch {
		case strings.HasPrefix(kv.Key, "scopec/"):
			kind, what = recCreate, "scope-create"
		case strings.HasPrefix(kv.Key, "scoped/"):
			kind, what = recDyn, "scope-dynamic"
		case strings.HasPrefix(kv.Key, "task/"):
			kind, what = recTask, "task"
		default:
			continue
		}
		if err := d.Open(kv.Value, kind); err != nil {
			return fmt.Errorf("core: corrupt %s record %s: %w", what, kv.Key, err)
		}
	}
	return nil
}

// decodeInstanceRecords decodes one instance's scope records into the
// per-scope overlay structure; task records wait for buildScopes.
func decodeInstanceRecords(kvs []store.KV) (map[string]*scopeRec, error) {
	recMap := make(map[string]*scopeRec)
	rec := func(scopeID string) *scopeRec {
		r := recMap[scopeID]
		if r == nil {
			r = &scopeRec{scopeID: scopeID}
			recMap[scopeID] = r
		}
		return r
	}
	for _, kv := range kvs {
		switch {
		case strings.HasPrefix(kv.Key, "scopec/"):
			dto, err := decodeCreateRecord(kv.Value)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt scope-create record %s: %w", kv.Key, err)
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
				return nil, fmt.Errorf("core: corrupt scope-dynamic record %s: %w", kv.Key, err)
			}
			scopeID := sub
			if scopeID == "-" {
				scopeID = ""
			}
			r := rec(scopeID)
			r.dyn, r.dynK = &dto, kv.Key
		}
	}
	return recMap, nil
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
// registered instances are skipped either way). A registered copy it skips
// is one the engine owned throughout: an instance whose ownership moved away
// was evicted (Release, and the write fence in afterCommit), so a partition
// that comes back is adopted from the store, never from a stale copy. A nil
// owns falls back to Options.Owns, so RecoverOwned(nil) is Recover.
func (e *Engine) RecoverOwned(owns func(id string) bool) (int, error) {
	if owns == nil {
		owns = e.opts.Owns
	}
	kvs, err := e.opts.Store.List(store.Instance)
	if err != nil {
		return 0, err
	}
	// The version records, read after the instances: every instance listed
	// started after the texts it runs were committed, so a text another
	// engine registered on a shared store is here too. A stub hydrates from
	// them under its shard, without a store call.
	tpls, err := e.opts.Store.List(store.Template)
	if err != nil {
		return 0, err
	}
	versions := make(map[string][]byte)
	for _, kv := range tpls {
		if hash, ok := strings.CutPrefix(kv.Key, versionPrefix); ok {
			versions[hash] = kv.Value
		}
	}
	e.emu.Lock()
	e.versions = versions
	e.emu.Unlock()

	// Phase 1 (serial): group raw records by instance, in List's order.
	groups, ids, errs := groupRecords(kvs)
	if owns != nil {
		kept := ids[:0]
		for _, id := range ids {
			if owns(id) {
				kept = append(kept, id)
			}
		}
		ids = kept
	}

	// Phase 2 (parallel): decode and rebuild, or check a stub's headers.
	// Worker w handles the indexes i with i%workers == w and writes
	// only results[i]/buildErrs[i]; the one thing shared is the
	// compiled-process index, which they read (and, for a text nothing
	// registered has, extend from the version records) under emu.
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

	// Phase 3 (serial, in ID order): resume execution state under each
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
	// Much of what recovery allocated — the listed records of the
	// instances it rebuilt, the decoded metadata, the rebuilds' temporaries
	// — is garbage now. Collected here, it costs one collection before the
	// engine dispatches; left to the pacer, the collection lands in the
	// first turns after the restart, which then run with write barriers on
	// and share a processor with the mark worker (restart_recover: 29-34k
	// activities/s against 53-55k).
	runtime.GC()
	e.Pump()
	if e.opts.OnError != nil {
		for _, err := range errs {
			e.opts.OnError(err)
		}
	}
	return recovered, errors.Join(errs...)
}

// groupRecords is recovery's phase 1: it groups the instance space's records
// by instance and returns the groups and, in kvs' order, the IDs of those
// with an inst/ record, the one record it decodes. kvs is sorted by key, as
// List returns it, so the inst/ records are one block in ID order, which
// sizes the groups, and each instance's records under another prefix are one
// run: a run is filed with one group lookup, and every group's records are
// carved from one array counted beforehand.
func groupRecords(kvs []store.KV) (map[string]*instGroup, []string, []error) {
	var errs []error
	// The inst/ records are one block: "inst0" follows every "inst/…" key.
	at := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= "inst/" })
	metas := kvs[at : at+sort.Search(len(kvs)-at, func(i int) bool { return kvs[at+i].Key >= "inst0" })]
	ids := make([]string, 0, len(metas))
	groups := make(map[string]*instGroup, len(metas))
	group := func(id string) *instGroup {
		g := groups[id]
		if g == nil {
			g = &instGroup{id: id}
			groups[id] = g
		}
		return g
	}
	for _, kv := range metas {
		meta, err := DecodeInstanceMeta(kv.Value)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: corrupt instance record %s: %w", kv.Key, err))
			continue
		}
		id := strings.TrimPrefix(kv.Key, "inst/")
		if meta.ID != "" {
			id = meta.ID
		}
		g := group(id)
		if !g.listed {
			g.listed = true
			ids = append(ids, id)
		}
		g.meta = meta
	}
	type run struct {
		g      *instGroup
		lo, hi int
	}
	runs := make([]run, 0, 3*len(ids)) // scopec/, scoped/ and task/ records
	filed := 0
	for i := 0; i < len(kvs); i++ {
		key := kvs[i].Key
		prefix, instID, ok := instRecKey(key)
		if !ok {
			continue
		}
		// The run: this record and those after it under the same prefix and ID.
		lo, head := i, key[:len(prefix)+len(instID)+1]
		for i+1 < len(kvs) && strings.HasPrefix(kvs[i+1].Key, head) {
			i++
		}
		g := group(instID)
		if prefix != "proc/" {
			runs = append(runs, run{g, lo, i + 1})
			g.filed += i + 1 - lo
			filed += i + 1 - lo
		} else if g.retired == nil {
			// An instance's own copy of a process text, as stores written
			// before texts became version records of the template space held
			// them: refused, not converted.
			g.retired = fmt.Errorf("core: instance-space record %s is a per-instance process text, a retired layout: texts are version records of the template space", key)
		}
	}
	all := make([]store.KV, filed)
	for _, r := range runs {
		if r.g.kvs == nil {
			r.g.kvs, all = all[:0:r.g.filed], all[r.g.filed:]
		}
		r.g.kvs = append(r.g.kvs, kvs[r.lo:r.hi]...)
	}
	return groups, ids, errs
}

// instRecKey splits the key of an instance's scope, task or retired text
// record, <prefix><inst>/<rest>, into its prefix and instance ID.
func instRecKey(key string) (prefix, instID string, ok bool) {
	for _, prefix := range [...]string{"scopec/", "scoped/", "task/", "proc/"} {
		if rest, found := strings.CutPrefix(key, prefix); found {
			instID, _, ok = splitInstKey(rest)
			return prefix, instID, ok
		}
	}
	return "", "", false
}

// recoverGroup is how many recovered instances phase 3 commits in one store
// batch. A batch per instance paid a commit — an fsync, on disk — for each of
// thousands of instances, most of them suspended and unchanged; a prototype
// committing them all in one batch copied every op into one slice and held
// every write set at once (restart_recover: setup_s 0.31 s against 0.26,
// peak RSS 78 → 119 MiB).
const recoverGroup = 256

// turnGroup holds ended turns that commit together: phase 3's recovered
// instances, or a turn and the dispatch turns its drain handed on
// (groupDispatches).
type turnGroup struct {
	turns []turnExit
	ops   []store.Op // the group's batch, reused from group to group
}

var groupPool = sync.Pool{New: func() any { return new(turnGroup) }}

// commitGroup commits the group's write sets as one batch, in the order the
// turns ended, each behind its instance's commit gate — a later turn of a
// member (a Resume, a dispatch) waits there for the group — then delivers
// what each turn left for after its commit. A failed batch fails every
// member's write set: each gets its persist-error, its records re-marked and
// its events carried by its next commit, as a single failed turn does.
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
		// Before anything is requeued — when the stub hydrates — so a
		// suspended instance's tasks never enter dispatch order.
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
	// re-derived, stale task records dropped).
	if len(in.dirty) > 0 || len(in.pendingDeletes) > 0 {
		e.persist(in)
	}
	return true
}

// Release evicts every registered instance the engine no longer owns
// (Options.Owns): a federation member calls it for the partitions it lost.
// It writes nothing — the new owner's records are authoritative — and
// returns how many instances it evicted.
func (e *Engine) Release() int {
	n := 0
	for _, in := range e.Instances() {
		if e.opts.Owns != nil && !e.opts.Owns(in.ID) && e.evict(in) {
			n++
		}
	}
	return n
}

// evict takes one incarnation of an instance out of the engine, under its
// shard: out of the registry and its order, its queued jobs out of the
// queue, and its running jobs out of the running index with the slots their
// decisions held. A job still on the executor runs on as an orphan whose
// completion is discarded, as after Crash; a write set still in flight is
// fenced, since the instance is not owned. It reports false when in is no
// longer the registered incarnation.
func (e *Engine) evict(in *Instance) bool {
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer mu.Unlock()
	e.emu.Lock()
	live := e.instances[in.ID] == in
	if live {
		delete(e.instances, in.ID)
		e.order = slices.DeleteFunc(e.order, func(id string) bool { return id == in.ID })
	}
	e.emu.Unlock()
	if !live {
		return false
	}
	var refs []*queuedRef
	e.dmu.Lock()
	for _, id := range e.sched.RemoveGroup(in.ID) {
		delete(e.queued, id)
	}
	for _, ref := range e.running {
		if ref.inst == in {
			refs = append(refs, ref)
		}
	}
	stops := make([]func() bool, len(refs))
	for i, ref := range refs {
		e.unrun(ref)
		stops[i], ref.stopTimeout = ref.stopTimeout, nil
	}
	e.dmu.Unlock()
	for _, stop := range stops {
		if stop != nil {
			stop()
		}
	}
	return true
}

// buildRecovered rebuilds one instance from its grouped records — or, for
// a suspended instance, builds a stub that retains the raw records for
// hydration on first touch. Runs on recovery workers: it touches only the
// instance under construction.
func (e *Engine) buildRecovered(g *instGroup) (*Instance, error) {
	if g.retired != nil {
		return nil, g.retired
	}
	in := buildInstanceShell(g.meta)
	in.stub = g
	in.metaHeld = true
	var err error
	if g.meta.Status == InstanceSuspended {
		g.e = e
		err = checkHeaders(g.kvs)
	} else {
		err = e.buildStub(in)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// taskRecKey splits a task record's key, task/<inst>/<scope>/<task>, into its
// scope ID and task name.
func taskRecKey(key string) (scopeID, task string, ok bool) {
	rest, ok := strings.CutPrefix(key, "task/")
	if !ok {
		return "", "", false
	}
	_, sub, ok := splitInstKey(rest)
	// The task name follows the last '/': scope IDs may nest ("A/B[3]"),
	// task names cannot contain '/'.
	slash := strings.LastIndexByte(sub, '/')
	if !ok || slash < 0 {
		return "", "", false
	}
	scopeID, task = sub[:slash], sub[slash+1:]
	if scopeID == "-" {
		scopeID = ""
	}
	return scopeID, task, true
}

// scopeWhere names a scope of in for an error.
func scopeWhere(in *Instance, scopeID string) string { return in.ID + "/" + nzScope(scopeID) }

// buildInstanceShell constructs an Instance carrying only its metadata —
// the common base of a full rebuild and a stub.
func buildInstanceShell(meta InstanceMeta) *Instance {
	in := &Instance{
		InstanceMeta: meta,
		scopes:       make(map[string]*scope),
	}
	in.setStatus(meta.Status)
	return in
}

// buildScopes reconstructs the instance's scope tree from its decoded scope
// records, then decodes its task records (kvs) into their slots. It mutates
// only the instance under construction, so recovery workers may run it
// concurrently for different instances.
func (e *Engine) buildScopes(in *Instance, kvs []store.KV, recMap map[string]*scopeRec) error {
	// Sort records so parents come before children (shorter IDs first;
	// root "" is shortest): a child links to its already-rebuilt parent and
	// reads its whiteboard through it. A one-scope instance needs no slice.
	var one [1]*scopeRec
	scopeRecs := one[:0]
	if len(recMap) > 1 {
		scopeRecs = make([]*scopeRec, 0, len(recMap))
	}
	for _, r := range recMap {
		scopeRecs = append(scopeRecs, r)
	}
	slices.SortFunc(scopeRecs, func(a, b *scopeRec) int {
		if c := cmp.Compare(len(a.scopeID), len(b.scopeID)); c != 0 {
			return c
		}
		return strings.Compare(a.scopeID, b.scopeID)
	})
	for _, r := range scopeRecs {
		if r.create == nil {
			return fmt.Errorf("core: scope %s has no create record", scopeWhere(in, r.scopeID))
		}
		proc, err := e.resolveProc(r.create.ProcRef, r.create.ProcText)
		if err != nil {
			return fmt.Errorf("core: scope %s: %w", scopeWhere(in, r.scopeID), err)
		}
		sc := &scope{
			ID:         r.scopeID,
			Proc:       proc,
			ParentTask: r.create.ParentTask,
			ElemIndex:  r.create.ElemIndex,
			createK:    r.createK,
			dynK:       r.dynK,
			createHeld: true,
			dynHeld:    r.dyn != nil,
		}
		sc.layTasks()
		if !r.create.IsRoot {
			parent := in.scopes[r.create.Parent]
			if parent == nil {
				return fmt.Errorf("core: scope %s has missing parent %q", scopeWhere(in, r.scopeID), r.create.Parent)
			}
			sc.Parent = parent
			parent.adopt(sc)
		} else {
			in.root = sc
		}
		// Whiteboard: a Full record is the scope's whole whiteboard; any
		// other is what the scope owns, and the rest reads through to the
		// parent.
		if r.dyn != nil {
			sc.Done = r.dyn.Done
			if r.dyn.Full {
				sc.wbFull = true
				sc.Whiteboard = r.dyn.Entries // decoded for this scope alone: adopted, not copied
				if sc.Whiteboard == nil {
					sc.Whiteboard = make(map[string]ocr.Value)
				}
			} else {
				// Owned entries, then masks; a key the record both
				// enters and masks keeps its entry.
				if n := len(r.dyn.Entries) + len(r.dyn.Drop); n > 0 {
					sc.wbOwn = make([]ownedKey, 0, max(n, 4))
				}
				for k, v := range r.dyn.Entries {
					sc.wbOwn = append(sc.wbOwn, ownedKey{k, v, true})
				}
				slices.SortFunc(sc.wbOwn, byKey)
				for _, k := range r.dyn.Drop {
					if _, entered := sc.owned(k); !entered {
						sc.own(k, ocr.Null, false)
					}
				}
			}
		} else {
			e.touchMeta(in, sc) // the next checkpoint writes the missing record
		}
		in.scopes[sc.ID] = sc
	}
	if in.root == nil {
		return fmt.Errorf("core: instance %s has no root scope record", in.ID)
	}
	// Each task record decodes into its slot; a task with no record keeps
	// its inactive slot. A record that names no task of its scope's process
	// has no slot: it is dropped, and the instance's next checkpoint deletes
	// it.
	for _, kv := range kvs {
		scopeID, task, ok := taskRecKey(kv.Key)
		if !ok {
			continue
		}
		sc := in.scopes[scopeID]
		if sc == nil {
			return fmt.Errorf("core: scope %s has no create record", scopeWhere(in, scopeID))
		}
		ts := sc.task(task)
		if ts == nil {
			in.pendingDeletes = append(in.pendingDeletes, kv.Key)
			continue
		}
		name := ts.Name
		if err := decodeTaskRecord(kv.Value, ts); err != nil {
			return fmt.Errorf("core: corrupt task record %s: %w", kv.Key, err)
		}
		ts.Name, ts.taskK, ts.held = name, kv.Key, true
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
	// Resume children before parents. A one-scope instance needs no slice.
	var one [1]*scope
	ordered := one[:0]
	if len(in.scopes) > 1 {
		ordered = make([]*scope, 0, len(in.scopes))
	}
	for _, sc := range in.scopes {
		ordered = append(ordered, sc)
	}
	slices.SortFunc(ordered, func(a, b *scope) int {
		if c := cmp.Compare(len(b.ID), len(a.ID)); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
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

// hydrateLocked materializes a stub: the retained raw records are decoded,
// the scope tree rebuilt (buildStub), and execution state resumed — the work
// Recover deferred. Caller holds the instance's shard lock and runs inside a
// turn, so checkpoints produced here flush at its endTurn.
func (e *Engine) hydrateLocked(in *Instance) error {
	if in.stub == nil {
		return nil
	}
	if err := e.buildStub(in); err != nil {
		return fmt.Errorf("core: hydrating instance %s: %w", in.ID, err)
	}
	e.resumeInstance(in)
	e.emit(in, Event{Kind: EvServerRecovered, Instance: in.ID, Detail: "hydrated"})
	if len(in.dirty) > 0 || len(in.pendingDeletes) > 0 {
		e.persist(in)
	}
	return nil
}

// buildStub decodes a stub's records into its scope tree and drops the
// stub: phase 2's rebuild of a running instance, and hydration's. On error
// the stub is restored untouched, so the instance stays a valid meta-only
// shell and the caller's operation fails cleanly.
func (e *Engine) buildStub(in *Instance) error {
	g := in.stub
	deletes := len(in.pendingDeletes)
	recMap, err := decodeInstanceRecords(g.kvs)
	if err == nil {
		err = e.buildScopes(in, g.kvs, recMap)
	}
	if err != nil {
		in.root = nil
		in.scopes = make(map[string]*scope)
		in.clearDirty()
		in.pendingDeletes = in.pendingDeletes[:deletes]
		return err
	}
	in.stub = nil
	return nil
}

// Hydrated reports whether the instance's full state is in memory (false
// only for recovered suspended instances not touched since). Callers that
// merely observe an instance — the monitor, Progress — read a stub without
// hydrating it.
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
	for i, t := range sc.Proc.Tasks {
		ts := &sc.tasks[i]
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
	for i, t := range sc.Proc.Tasks {
		ts := &sc.tasks[i]
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
		e.finishTask(in, sc, t, ts, scopeOutputs(child))
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
		child.own(t.As, ts.OverElems[i], true)
		e.startScope(in, child)
	}
}
