package lint

import (
	"go/token"
	"strings"
)

// blockingsend generalizes locksafe interprocedurally: while any tracked
// lock is held, nothing reachable through the resolved call graph may
// block indefinitely — an unbuffered/blocking channel operation, a select
// without default, a WaitGroup wait, or a network write (every link writes
// its frames through internal/transport's bufio.Writer on a net.Conn).
// locksafe catches the syntactic cases inside internal/core; this pass
// catches the same hazard arriving through a call chain, e.g. the
// dispatcher holding a shard across Executor.Launch into a remote send.
//
// A deliberate bounded wait is annotated at the blocking operation itself
// (//bioopera:allow blockingsend <reason>): the fact layer clears the
// witness at its source, so one annotation covers every caller.

func blockingsendPkg(path string) bool {
	return lockTrackedPkgs[path] || strings.Contains(path, "lint/testdata/blockingsend")
}

func runBlockingSend(mp *ModulePass) {
	p := mp.Prog
	for _, n := range p.nodes {
		if !blockingsendPkg(n.pkg.Path) {
			continue
		}
		node := n
		scanHeld(p, node, &scanHooks{
			blocking: func(held []*holder, what string, pos token.Pos) {
				live := liveHolders(held)
				if len(live) == 0 {
					return
				}
				mp.Reportf(pos, "%s while holding %s can block the lock indefinitely", what, holderList(live))
			},
			call: func(held []*holder, rc *resolvedCall, pos token.Pos) {
				live := liveHolders(held)
				if len(live) == 0 {
					return
				}
				for _, c := range rc.callees {
					if c.mayBlock == nil {
						continue
					}
					mp.Reportf(pos, "call to %s while holding %s may block indefinitely: %s", c.name, holderList(live), c.mayBlock.describe(p.Fset))
					return
				}
			},
		})
	}
}

func holderList(live []*holder) string {
	parts := make([]string, len(live))
	for i, h := range live {
		parts[i] = h.describe()
	}
	return strings.Join(parts, ", ")
}
