package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// goroleak: every goroutine launched in a long-lived package must have a
// provable shutdown path, so a promoted standby or a killed worker never
// strands one. Three proofs are accepted, all resolved through the
// cross-package fact layer:
//
//  1. WaitGroup pairing — the goroutine body calls Done on a WaitGroup
//     object some function Adds to and some function Waits on (the object
//     identity crosses package boundaries: remote.Server.wg is one
//     types.Object everywhere).
//  2. Quit channel — the body receives from (or selects/ranges on) a
//     channel that a *different* function closes; assignment aliasing
//     (`stop := make(...); s.stop = stop`) is resolved per package.
//  3. Completion channel — the body closes a channel that a different
//     function (a Close, typically) receives from, joining the exit.
//
// Channel and Done facts are collected transitively over the body's
// resolved calls, so `go s.serve(conn)` is judged by serve's facts, not
// just the literal body. A goroutine none of the proofs cover is reported
// at the `go` statement; a deliberate exception carries
// //bioopera:allow goroleak with the reason shutdown is unnecessary.

// goroleakPkgs are the long-lived packages whose goroutines must be
// reaped. The workload packages (allvsall, darwin) run to completion under
// the engine's own lifecycle and stay out of scope.
var goroleakPkgs = map[string]bool{
	"bioopera/internal/core":      true,
	"bioopera/internal/remote":    true,
	"bioopera/internal/fed":       true,
	"bioopera/internal/transport": true,
	"bioopera/internal/obs":       true,
	"bioopera/internal/wal":       true,
	"bioopera/internal/store":     true,
	"bioopera/internal/sched":     true,
}

func goroleakPkg(path string) bool {
	return goroleakPkgs[path] || strings.Contains(path, "lint/testdata/goroleak")
}

// chanKey identifies a channel alias class within one package.
type chanKey struct {
	pkg  string
	root types.Object
}

// chanUsers indexes, per alias class, the functions that close or receive
// from it — the lookup side of the quit- and completion-channel proofs.
type chanUsers struct {
	closers map[chanKey][]*funcNode
	recvers map[chanKey][]*funcNode
}

func indexChanUsers(p *Program) *chanUsers {
	u := &chanUsers{
		closers: make(map[chanKey][]*funcNode),
		recvers: make(map[chanKey][]*funcNode),
	}
	for _, n := range p.nodes {
		uf := p.chanAlias[n.pkg.Path]
		for obj := range n.chClose {
			k := chanKey{n.pkg.Path, uf.find(obj)}
			u.closers[k] = append(u.closers[k], n)
		}
		for obj := range n.chRecv {
			k := chanKey{n.pkg.Path, uf.find(obj)}
			u.recvers[k] = append(u.recvers[k], n)
		}
	}
	return u
}

// outside reports whether any function in list is not part of the
// goroutine's own reached set — the closer/receiver must be someone else.
func outside(list []*funcNode, reached map[*funcNode]bool) bool {
	for _, n := range list {
		if !reached[n] {
			return true
		}
	}
	return false
}

func runGoroLeak(mp *ModulePass) {
	p := mp.Prog
	users := indexChanUsers(p)
	for _, n := range p.nodes {
		if !goroleakPkg(n.pkg.Path) {
			continue
		}
		for _, g := range n.goStmts {
			targets := p.goTargets(n, g)
			if len(targets) == 0 {
				mp.Reportf(g.Pos(), "goroutine target cannot be resolved statically, so no shutdown path can be proven: launch a named function or literal, or annotate with //bioopera:allow goroleak <reason>")
				continue
			}
			if p.provenShutdown(targets, users) {
				continue
			}
			mp.Reportf(g.Pos(), "goroutine launched here has no provable shutdown path: pair it with a WaitGroup Done/Wait, select on a quit channel a Close closes, or close a completion channel a Close receives")
		}
	}
}

// goTargets resolves the function bodies a go statement runs.
func (p *Program) goTargets(n *funcNode, g *ast.GoStmt) []*funcNode {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if t, found := p.byLit[lit]; found {
			return []*funcNode{t}
		}
		return nil
	}
	return p.calleesOf(n.pkg, g.Call)
}

// provenShutdown reports whether any resolved target satisfies any of the
// three shutdown proofs, judging each target by the facts of everything it
// reaches through resolved calls.
func (p *Program) provenShutdown(targets []*funcNode, users *chanUsers) bool {
	for _, t := range targets {
		reached := reachable(t)
		uf := p.chanAlias[t.pkg.Path]
		for rn := range reached {
			// Proof 1: WaitGroup pairing, module-wide by object identity.
			for o := range rn.wgDone {
				var added, waited bool
				for _, m := range p.nodes {
					added = added || m.wgAdd[o]
					waited = waited || m.wgWait[o]
				}
				if added && waited {
					return true
				}
			}
			// Proof 2: the body receives a channel someone else closes.
			for o := range rn.chRecv {
				k := chanKey{t.pkg.Path, uf.find(o)}
				if outside(users.closers[k], reached) {
					return true
				}
			}
			// Proof 3: the body closes a channel someone else receives.
			for o := range rn.chClose {
				k := chanKey{t.pkg.Path, uf.find(o)}
				if outside(users.recvers[k], reached) {
					return true
				}
			}
		}
	}
	return false
}

// reachable collects the nodes a body can reach through resolved calls,
// bounded to keep pathological graphs cheap.
func reachable(start *funcNode) map[*funcNode]bool {
	seen := map[*funcNode]bool{start: true}
	queue := []*funcNode{start}
	for len(queue) > 0 && len(seen) < 64 {
		n := queue[0]
		queue = queue[1:]
		for _, rc := range n.calls {
			for _, c := range rc.callees {
				if !seen[c] {
					seen[c] = true
					queue = append(queue, c)
				}
			}
		}
	}
	return seen
}
