package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The held-lock scanner shared by lockorder and blockingsend: a linear,
// branch-copying walk of one function body (modeled on locksafe's, but
// class-aware and callback-driven) that maintains the set of locks held at
// every statement. Hooks fire on acquisitions, on potentially blocking
// operations, and on call sites — the analyzers combine them with the
// program's transitive facts.

// holder is one acquired lock being tracked through the walk.
type holder struct {
	class    string // lock class, "" when unresolvable
	expr     string // rendered receiver, for release matching and messages
	rlock    bool
	pos      token.Pos
	released bool
}

func (h *holder) describe() string {
	if h.class != "" {
		return h.class
	}
	return h.expr
}

// scanHooks are the scanner's callbacks. held always includes released
// entries; liveHolders filters them.
type scanHooks struct {
	// acquire fires after h is pushed; held excludes h.
	acquire func(held []*holder, h *holder)
	// blocking fires on an operation that can block indefinitely: channel
	// send/receive, select without default, range over a channel, and
	// blocking external calls (Accept/Dial/network encode/WaitGroup.Wait).
	blocking func(held []*holder, what string, pos token.Pos)
	// call fires on every resolved or unresolved non-blocking call, after
	// lock-handoff arguments released their holders.
	call func(held []*holder, rc *resolvedCall, pos token.Pos)
}

func liveHolders(held []*holder) []*holder {
	var live []*holder
	for _, h := range held {
		if !h.released {
			live = append(live, h)
		}
	}
	return live
}

// scanHeld walks n's body with the hooks.
func scanHeld(p *Program, n *funcNode, hooks *scanHooks) {
	s := &heldScan{p: p, n: n, hooks: hooks}
	s.stmts(n.body.List, nil)
}

type heldScan struct {
	p     *Program
	n     *funcNode
	hooks *scanHooks
}

func (s *heldScan) stmts(list []ast.Stmt, held []*holder) []*holder {
	for _, st := range list {
		held = s.stmt(st, held)
	}
	return held
}

func (s *heldScan) stmt(st ast.Stmt, held []*holder) []*holder {
	switch x := st.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if expr, name, ok := s.lockCall(call); ok {
				switch name {
				case "Lock", "RLock":
					h := &holder{
						class: s.p.classOf(s.n, lockRecv(call)),
						expr:  expr, rlock: name == "RLock", pos: call.Pos(),
					}
					if s.hooks.acquire != nil {
						s.hooks.acquire(held, h)
					}
					return append(held, h)
				case "Unlock", "RUnlock":
					releaseHolder(held, expr, name == "RUnlock")
					return held
				}
			}
		}
		s.expr(x.X, held)
	case *ast.DeferStmt:
		// Deferred calls run at function exit, outside the sequential
		// critical section; they are not scanned. (Deferred Unlocks do
		// not release mid-body either — the lock stays held below.)
	case *ast.GoStmt:
		// The goroutine body is its own funcNode; only the call's
		// arguments evaluate here.
		for _, a := range x.Call.Args {
			s.expr(a, held)
		}
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			s.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.blocking(held, "channel send", x.Pos())
		s.expr(x.Value, held)
	case *ast.IncDecStmt:
		s.expr(x.X, held)
	case *ast.IfStmt:
		if x.Init != nil {
			held = s.stmt(x.Init, held)
		}
		s.expr(x.Cond, held)
		s.stmts(x.Body.List, copyHolders(held))
		if x.Else != nil {
			s.stmt(x.Else, copyHolders(held))
		}
	case *ast.ForStmt:
		if x.Init != nil {
			held = s.stmt(x.Init, held)
		}
		if x.Cond != nil {
			s.expr(x.Cond, held)
		}
		s.stmts(x.Body.List, copyHolders(held))
	case *ast.RangeStmt:
		if t := s.n.pkg.Info.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				s.blocking(held, "range over channel", x.Pos())
			}
		}
		s.expr(x.X, held)
		s.stmts(x.Body.List, copyHolders(held))
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = s.stmt(x.Init, held)
		}
		if x.Tag != nil {
			s.expr(x.Tag, held)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, copyHolders(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, copyHolders(held))
			}
		}
	case *ast.SelectStmt:
		// A select with a default clause never blocks; without one it
		// parks until a case is ready.
		hasDefault := false
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.blocking(held, "select", x.Pos())
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmts(cc.Body, copyHolders(held))
			}
		}
	case *ast.BlockStmt:
		held = s.stmts(x.List, held)
	case *ast.LabeledStmt:
		held = s.stmt(x.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s.expr(e, held)
		}
	}
	return held
}

// expr inspects one expression for receives and calls. Function literals
// are skipped — they do not execute here.
func (s *heldScan) expr(e ast.Expr, held []*holder) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(an ast.Node) bool {
		switch x := an.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.blocking(held, "channel receive", x.Pos())
			}
		case *ast.CallExpr:
			s.call(x, held)
		}
		return true
	})
}

func (s *heldScan) call(call *ast.CallExpr, held []*holder) {
	// Lock/Unlock as sub-expressions are rare and intentionally ignored
	// here; the statement walk handles the canonical forms.
	if _, name, ok := s.lockCall(call); ok && (name == "Lock" || name == "RLock" || name == "Unlock" || name == "RUnlock") {
		return
	}
	if what, blocking := s.externalBlocking(call); blocking {
		s.blocking(held, what, call.Pos())
		return
	}
	// A held lock passed as an argument hands release responsibility to
	// the callee (the dispatcher's endTurn pattern): the callee's
	// acquisitions are no longer nested under it.
	for _, arg := range call.Args {
		rendered := types.ExprString(arg)
		for _, h := range held {
			if !h.released && (rendered == h.expr || rendered == "&"+h.expr) {
				h.released = true
			}
		}
	}
	if s.hooks.call != nil {
		if rc, ok := s.n.callByAST[call]; ok {
			s.hooks.call(held, rc, call.Pos())
		}
	}
}

// externalBlocking recognizes calls outside the module that can block
// indefinitely: connection establishment and accept loops, WaitGroup
// waits, wall-clock sleeps, and writes to a connection — directly, or
// through the bufio.Writer internal/transport puts in front of every one
// (the JSON stream codecs no longer touch a socket: protocol payloads are
// marshaled into buffers and travel as transport frames).
func (s *heldScan) externalBlocking(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	info := s.n.pkg.Info
	name := sel.Sel.Name
	if sl, found := info.Selections[sel]; found {
		if fn, isFn := sl.Obj().(*types.Func); isFn && fn.Pkg() != nil {
			recv := types.TypeString(sl.Recv(), nil)
			switch fn.Pkg().Path() {
			case "sync":
				if name == "Wait" && strings.Contains(recv, "sync.WaitGroup") {
					return "sync.WaitGroup.Wait", true
				}
				return "", false
			case "bufio":
				if strings.Contains(recv, "bufio.Writer") && (name == "Write" || name == "Flush") {
					return "bufio.Writer." + name, true
				}
				return "", false
			}
			if strings.Contains(recv, "net.Conn") && (name == "Read" || name == "Write") {
				return "net.Conn." + name, true
			}
		}
	}
	// Name-based fallback for interface and external calls the type
	// layer cannot pin down (net.Listener.Accept, net.Dial, Serve).
	if callees := s.n.callByAST[call]; callees != nil && len(callees.callees) > 0 {
		return "", false // resolved module call: facts decide
	}
	switch name {
	case "Accept", "Dial", "DialTimeout", "Listen", "Serve", "ListenAndServe":
		if s.isCondOrModule(sel) {
			return "", false
		}
		return "call to " + types.ExprString(sel), true
	case "Sleep":
		if s.pkgFunc(sel, "time") {
			return "time.Sleep", true
		}
	}
	return "", false
}

// isCondOrModule filters the name fallback: module-defined targets are
// handled through facts, and sync.Cond.Wait never applies here.
func (s *heldScan) isCondOrModule(sel *ast.SelectorExpr) bool {
	if obj := s.n.pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
		return strings.HasPrefix(obj.Pkg().Path(), "bioopera/")
	}
	if sl, found := s.n.pkg.Info.Selections[sel]; found {
		if fn, ok := sl.Obj().(*types.Func); ok && fn.Pkg() != nil {
			return strings.HasPrefix(fn.Pkg().Path(), "bioopera/")
		}
	}
	return false
}

func (s *heldScan) pkgFunc(sel *ast.SelectorExpr, pkg string) bool {
	obj := s.n.pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

func (s *heldScan) blocking(held []*holder, what string, pos token.Pos) {
	if s.hooks.blocking != nil {
		s.hooks.blocking(held, what, pos)
	}
}

// lockCall recognizes x.Lock/RLock/Unlock/RUnlock on sync mutexes,
// returning the rendered receiver and the method name. sync.Cond's
// locker methods do not reach here (Cond has no Lock method itself).
func (s *heldScan) lockCall(call *ast.CallExpr) (expr, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sl, found := s.n.pkg.Info.Selections[sel]
	if !found {
		return "", "", false
	}
	obj := sl.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// lockRecv returns the receiver expression of a lock method call.
func lockRecv(call *ast.CallExpr) ast.Expr {
	return ast.Unparen(call.Fun).(*ast.SelectorExpr).X
}

func releaseHolder(held []*holder, expr string, runlock bool) {
	for i := len(held) - 1; i >= 0; i-- {
		h := held[i]
		if !h.released && h.expr == expr && h.rlock == runlock {
			h.released = true
			return
		}
	}
}

func copyHolders(held []*holder) []*holder {
	out := make([]*holder, len(held))
	for i, h := range held {
		c := *h
		out[i] = &c
	}
	return out
}
