package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// locksafe guards the engine's critical sections (PR 1's sharded lock
// table) with three rules over the held-lock scanner. Between a mu.Lock()
// and its Unlock there must be no operation that can block indefinitely — a
// channel send/receive/select, a WaitGroup wait, a network call — because a
// blocked holder stalls every instance hashed to that shard (sync.Cond.Wait
// is exempt: releasing the mutex while asleep is the condition-variable
// contract). A lock must be released on every way out of the function: by
// an explicit Unlock on that path, a deferred Unlock, or a deferred call
// that receives the lock. And a turn has one way out: a function that locks
// an instance shard and writes — starts a turn, adds to its write set, or
// hydrates a stub — must release the shard through a deferred endTurn and
// nowhere else, because a path that leaves by a bare Unlock strands the
// write set and every later quiesce blocks on it.
//
// The analysis is function-local over matched Lock/Unlock pairs on the same
// expression; blockingsend carries the first rule across call chains.

// turnWrites are the engine methods that start a turn or add to its write
// set; each is called with the instance's shard held.
var turnWrites = map[string]bool{
	"beginTurn": true, "persist": true, "archive": true, "emit": true, "hydrateLocked": true,
}

func runLockSafe(mp *ModulePass) {
	for _, n := range mp.Prog.nodes {
		if n.pkg.Path != "bioopera/internal/core" && !strings.Contains(n.pkg.Path, "lint/testdata/locksafe") {
			continue
		}
		shardClass := shortPkg(n.pkg.Path) + ".Engine.shards"
		var shards []*holder
		var unlocks []token.Pos
		writes := false
		scanHeld(mp.Prog, n, &scanHooks{
			acquire: func(_ []*holder, h *holder) {
				if h.class == shardClass {
					shards = append(shards, h)
				}
			},
			release: func(h *holder, pos token.Pos) {
				if h.class == shardClass {
					unlocks = append(unlocks, pos)
				}
			},
			blocking: func(held []*holder, what string, pos token.Pos) {
				if live := liveHolders(held); len(live) > 0 {
					mp.Reportf(pos, "%s while holding %s: blocking operations must not run inside the critical section", what, live[0].expr)
				}
			},
			call: func(_ []*holder, rc *resolvedCall, _ token.Pos) {
				for _, c := range rc.callees {
					if c.pkg == n.pkg && c.obj != nil && turnWrites[c.obj.Name()] {
						writes = true
					}
				}
			},
			exit: func(held []*holder, ret *ast.ReturnStmt) {
				for _, h := range liveHolders(held) {
					switch {
					case h.deferred != nil:
					case ret == nil:
						mp.Reportf(h.pos, "%s.%s() has no matching %s on every path", h.expr, h.lock, h.unlockName())
					default:
						mp.Reportf(ret.Pos(), "returns while %s is still %sed: release it on this path", h.expr, strings.ToLower(h.lock))
						h.released = true // one report per leak
					}
				}
			},
		})
		if !writes {
			continue
		}
		for _, h := range shards {
			if !endsTurn(h.deferred) {
				mp.Reportf(h.pos, "%s is an instance shard and this function writes a turn: release it with a deferred endTurn straight after the lock", h.expr)
			}
		}
		for _, pos := range unlocks {
			mp.Reportf(pos, "explicit Unlock of an instance shard in a function that writes a turn: the deferred endTurn is the only way out")
		}
	}
}

// endsTurn reports whether a holder's deferred release is a call to endTurn.
func endsTurn(deferred *ast.CallExpr) bool {
	if deferred == nil {
		return false
	}
	sel, ok := deferred.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "endTurn"
}
