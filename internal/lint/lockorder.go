package lint

import (
	"go/token"
	"sort"
	"strings"
)

// lockorder constructs the global lock-acquisition graph — who takes which
// lock class while already holding another, directly or through any
// resolved call chain — and enforces two things. First, the graph must be
// acyclic: a cycle is a potential deadlock the moment two goroutines enter
// it from different ends. Second, every edge must appear in the sanctioned
// partial order below: the nesting discipline the engine's documentation
// promises, pinned in a table so a new edge is a reviewed decision, not an
// accident. The table itself is asserted against the discovered graph by
// TestSanctionedLockOrder — a sanctioned edge no code exercises is as much
// an error as an unsanctioned one in code.

// sanctionedLockOrder is the sanctioned partial order over lock classes:
// from → the classes it may be held across. A class listing itself
// declares index-ordered self-acquisition (Crash takes every shard in
// ascending index order; no other path holds two shards).
var sanctionedLockOrder = map[string][]string{
	// The instance shard is the engine's outermost lock: a navigation
	// turn emits events (write-set append + ring publish), touches the
	// dispatcher maps, registers instances (emu), takes its commit-gate
	// sequence, and — in Crash, which holds every shard — drains the
	// per-instance commit gates. No store or executor lock appears here: a
	// turn's batch commits after the shard is released, and the jobs it
	// dispatched launch after that.
	"core.Engine.shards": {
		"core.Engine.shards", // Crash acquires all shards in ascending index order
		"core.Engine.emu",
		"core.Engine.dmu",
		"core.Instance.gateMu",
		"obs.Ring.mu",
		"cluster.Directory.mu",
	},
	// Crash wipes the registry and the dispatcher maps under emu → dmu.
	"core.Engine.emu": {"core.Engine.dmu"},
	// The dispatcher queries executor capacity while holding its queue.
	"core.Engine.dmu": {"cluster.Directory.mu"},
	// No store lock is taken under an instance's commit gate either: a write
	// set holds the gate by sequence (ckptDone), not by gateMu, across its
	// store batch — a phase-3 group holds many gates at once.
	// Disk group commit: the leader serializes flushes under wmu, briefly
	// claims the group under gmu, and appends to the WAL under the shared
	// image's mu (Mem and Disk embed one image type, so one class).
	"store.Disk.wmu": {"store.Disk.gmu", "store.image.mu", "wal.Log.mu"},
	"store.image.mu": {"wal.Log.mu"},
	// Executors reserve directory slots under their own bookkeeping lock.
	"remote.Server.mu":  {"cluster.Directory.mu"},
	"core.localExec.mu": {"cluster.Directory.mu"},
	// Shipper cursor changes re-pin the WAL retention floor.
	"wal.Shipper.mu": {"wal.Log.mu"},
	// A lease claim is a read-check-write of the lease record, serialized
	// under the table's own lock across the store calls.
	"fed.LeaseTable.mu": {
		"store.Disk.wmu", "store.Disk.gmu", "store.image.mu", "wal.Log.mu",
	},
	// RegisterTemplate commits a template's records and then swaps its
	// compiled form in under emu, both under its own lock, so two
	// registrations of one name leave the store and the engine on the same
	// definition. Nothing takes it under a shard or a store lock.
	"core.Engine.regMu": {
		"core.Engine.emu",
		"store.Disk.wmu", "store.Disk.gmu", "store.image.mu", "wal.Log.mu",
	},
}

func sanctionedEdge(from, to string) bool {
	for _, t := range sanctionedLockOrder[from] {
		if t == to {
			return true
		}
	}
	return false
}

// lockEdge is one observed nesting: To acquired while From is held.
type lockEdge struct{ From, To string }

type lockEdgeInfo struct {
	pos token.Pos
	via string // callee the acquisition arrives through, "" when direct
	pkg string // package path of the observing function
}

// discoverLockEdges scans every function with the held-lock scanner and
// records class-level nesting edges, both direct acquisitions and those a
// call's transitive may-acquire set implies. The first witness per edge
// wins; node order is deterministic, so messages are too.
func discoverLockEdges(prog *Program) map[lockEdge]lockEdgeInfo {
	edges := make(map[lockEdge]lockEdgeInfo)
	record := func(e lockEdge, info lockEdgeInfo) {
		if _, ok := edges[e]; !ok {
			edges[e] = info
		}
	}
	for _, n := range prog.nodes {
		node := n
		scanHeld(prog, node, &scanHooks{
			acquire: func(held []*holder, h *holder) {
				if h.class == "" {
					return
				}
				for _, hh := range liveHolders(held) {
					if hh.class == "" {
						continue
					}
					record(lockEdge{hh.class, h.class}, lockEdgeInfo{pos: h.pos, pkg: node.pkg.Path})
				}
			},
			call: func(held []*holder, rc *resolvedCall, pos token.Pos) {
				live := liveHolders(held)
				if len(live) == 0 {
					return
				}
				for _, c := range rc.callees {
					classes := make([]string, 0, len(c.acqAll))
					for cls := range c.acqAll {
						classes = append(classes, cls)
					}
					sort.Strings(classes)
					for _, cls := range classes {
						for _, hh := range live {
							if hh.class == "" {
								continue
							}
							record(lockEdge{hh.class, cls}, lockEdgeInfo{pos: pos, via: c.name, pkg: node.pkg.Path})
						}
					}
				}
			},
		})
	}
	return edges
}

func runLockOrder(mp *ModulePass) {
	all := discoverLockEdges(mp.Prog)

	// Fixture packages check cycles among their own classes; the
	// sanctioned table governs only the real tree.
	real := make(map[lockEdge]lockEdgeInfo)
	fixture := make(map[lockEdge]lockEdgeInfo)
	for e, info := range all {
		if testdataPkg(mp.Prog.classPkg[e.From]) || testdataPkg(mp.Prog.classPkg[e.To]) {
			if strings.Contains(info.pkg, "lint/testdata/lockorder") {
				fixture[e] = info
			}
			continue
		}
		real[e] = info
	}

	inCycle := cyclicEdges(real, true)
	reportCycleEdges(mp, real, inCycle)
	var rest []lockEdge
	for e := range real {
		if !inCycle[e] && !sanctionedEdge(e.From, e.To) {
			rest = append(rest, e)
		}
	}
	sortEdges(rest)
	for _, e := range rest {
		info := real[e]
		via := ""
		if info.via != "" {
			via = " (via call to " + info.via + ")"
		}
		mp.Reportf(info.pos, "lock-order edge %s → %s%s is not in the sanctioned table: add it to sanctionedLockOrder with a justification, or fix the nesting", e.From, e.To, via)
	}

	fixtureCycle := cyclicEdges(fixture, false)
	reportCycleEdges(mp, fixture, fixtureCycle)
}

// cyclicEdges returns the edges on some cycle. Self-edges explicitly
// declared in the sanctioned table (index-ordered acquisition) are skipped
// when honorSanctions is set.
func cyclicEdges(edges map[lockEdge]lockEdgeInfo, honorSanctions bool) map[lockEdge]bool {
	adj := make(map[string][]string)
	skip := func(e lockEdge) bool {
		return honorSanctions && e.From == e.To && sanctionedEdge(e.From, e.To)
	}
	for e := range edges {
		if skip(e) {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	in := make(map[lockEdge]bool)
	for e := range edges {
		if skip(e) {
			continue
		}
		if e.From == e.To || reaches(e.To, e.From) {
			in[e] = true
		}
	}
	return in
}

func reportCycleEdges(mp *ModulePass, edges map[lockEdge]lockEdgeInfo, inCycle map[lockEdge]bool) {
	var list []lockEdge
	for e := range inCycle {
		list = append(list, e)
	}
	sortEdges(list)
	for _, e := range list {
		info := edges[e]
		via := ""
		if info.via != "" {
			via = " (via call to " + info.via + ")"
		}
		mp.Reportf(info.pos, "lock-order cycle: acquiring %s while holding %s%s closes a cycle — a consistent global order is required to prevent deadlock", e.To, e.From, via)
	}
}

func sortEdges(list []lockEdge) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].From != list[j].From {
			return list[i].From < list[j].From
		}
		return list[i].To < list[j].To
	})
}
