package core

import (
	"sort"
)

// Segment GC: interned process texts (proc/<inst>/<hash> records) are
// content-addressed and deduplicated, so the store cannot refcount them —
// only the engine knows which hashes the live scope tree still references.
// A sphere abort tears scopes down mid-run (archive cleans up orphans only
// at completion), so a month-long instance can accumulate dead interned
// bodies. SweepProcs reconciles the on-disk set against the live tree; the
// snapshot cadence runs it just before each compaction so the rewritten
// image already excludes the garbage.
//
// Deletes ride the instance's pendingDeletes through the per-instance
// commit gate — never a separate store batch — so a sweep can never
// overtake an in-flight checkpoint that still writes the record it is
// deleting, and a hash deleted here is forgotten from procRefs under the
// same shard lock, so a scope reusing the text re-interns it.

// SweepProcs deletes interned process texts no longer referenced by any
// live scope, across all running/suspended instances. It returns the
// number of records scheduled for deletion and the live-reference manifest
// (instance ID → sorted content hashes) describing what remains — the
// snapshot pipeline embeds it in the store image for audit.
//
// Lazy stubs are skipped: their records are untouched on disk and every
// interned text stays live until hydration. Terminal instances are skipped
// too — archive already moved their records to the history space.
func (e *Engine) SweepProcs() (int, map[string][]string) {
	e.emu.RLock()
	ins := make([]*Instance, 0, len(e.order))
	for _, id := range e.order {
		ins = append(ins, e.instances[id])
	}
	e.emu.RUnlock()

	swept := 0
	manifest := make(map[string][]string)
	for _, in := range ins {
		live, n := e.sweepInstance(in)
		if live != nil {
			manifest[in.ID] = live
		}
		swept += n
	}
	e.metrics.procSwept(swept)
	return swept, manifest
}

// sweepInstance is one instance's sweep, in its own turn: it returns the
// instance's live hashes, sorted (nil for a terminal instance), and how many
// orphans it scheduled for deletion. endTurn flushes the delete batch through
// the commit gate before returning, so a caller that snapshots right after
// the sweep compacts a store with the garbage already gone.
func (e *Engine) sweepInstance(in *Instance) (live []string, swept int) {
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return nil, 0
	}
	scs := make([]*scope, 0, len(in.scopes))
	for _, sc := range in.scopes {
		scs = append(scs, sc)
	}
	seen := make(map[string]bool, 2)
	for _, sc := range scs {
		seen[sc.Proc.hash] = true
	}
	live = make([]string, 0, len(in.procRefs))
	var orphans []string
	for hash := range in.procRefs {
		if in.stub != nil || seen[hash] {
			live = append(live, hash)
		} else {
			orphans = append(orphans, hash)
		}
	}
	sort.Strings(live)
	if len(orphans) == 0 {
		return live, 0
	}
	sort.Strings(orphans)
	e.beginTurn(in)
	for _, hash := range orphans {
		delete(in.procRefs, hash)
		in.pendingDeletes = append(in.pendingDeletes, procKey(in.ID, hash))
	}
	e.persist(in)
	return live, len(orphans)
}
