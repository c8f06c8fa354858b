package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The held-lock scanner, the one statement walker locksafe, lockorder and
// blockingsend share: a linear, branch-copying walk of one function body that
// maintains the set of locks held at every statement. Branch bodies are
// walked with copies, so a branch that unlocks and returns does not release
// the fall-through path. Hooks fire on acquisitions and releases, on
// potentially blocking operations, on call sites and on every way out of the
// function — the analyzers combine them with the program's transitive facts.

// holder is one acquired lock being tracked through the walk.
type holder struct {
	class    string // lock class, "" when unresolvable
	expr     string // rendered receiver, for release matching and messages
	lock     string // the acquiring method: Lock or RLock
	pos      token.Pos
	released bool
	// deferred is the deferred call that releases the lock on every exit:
	// its Unlock, or a call that receives the lock (core's endTurn).
	deferred *ast.CallExpr
}

func (h *holder) unlockName() string {
	if h.lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
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
	// release fires on the explicit Unlock that released h.
	release func(h *holder, pos token.Pos)
	// blocking fires on an operation that can block indefinitely: channel
	// send/receive, select without default, range over a channel, and
	// blocking external calls (Accept/Dial/network encode/WaitGroup.Wait).
	blocking func(held []*holder, what string, pos token.Pos)
	// call fires on every resolved or unresolved non-blocking call.
	call func(held []*holder, rc *resolvedCall, pos token.Pos)
	// exit fires on every way out of the function: each return statement,
	// then the end of the body (ret nil) with what its top level still holds.
	exit func(held []*holder, ret *ast.ReturnStmt)
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
	held := s.stmts(n.body.List, nil)
	if hooks.exit != nil {
		hooks.exit(held, nil)
	}
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
						expr:  expr, lock: name, pos: call.Pos(),
					}
					if s.hooks.acquire != nil {
						s.hooks.acquire(held, h)
					}
					return append(held, h)
				case "Unlock", "RUnlock":
					if h := releaseHolder(held, expr, name); h != nil && s.hooks.release != nil {
						s.hooks.release(h, call.Pos())
					}
					return held
				}
			}
		}
		s.expr(x.X, held)
	case *ast.DeferStmt:
		// Deferred calls run at function exit, outside the sequential
		// critical section; they are not scanned. A deferred Unlock, or a
		// deferred call that is handed the lock, releases it on every exit
		// but not mid-body — the lock stays held below.
		for _, h := range held {
			if !h.released && s.releasesAtExit(x.Call, h) {
				h.deferred = x.Call
			}
		}
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
		if h := s.tryLocked(x); h != nil {
			if s.hooks.acquire != nil {
				s.hooks.acquire(held, h)
			}
			held = append(held, h)
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
		if s.hooks.exit != nil {
			s.hooks.exit(held, x)
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

// tryLocked recognizes `if !mu.TryLock() { ...; return }`, after which mu is
// held, and returns its holder.
func (s *heldScan) tryLocked(x *ast.IfStmt) *holder {
	not, ok := ast.Unparen(x.Cond).(*ast.UnaryExpr)
	if !ok || not.Op != token.NOT || x.Else != nil || len(x.Body.List) == 0 {
		return nil
	}
	call, ok := ast.Unparen(not.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if _, returns := x.Body.List[len(x.Body.List)-1].(*ast.ReturnStmt); !returns {
		return nil
	}
	expr, name, ok := s.lockCall(call)
	if !ok || name != "TryLock" {
		return nil
	}
	return &holder{class: s.p.classOf(s.n, lockRecv(call)), expr: expr, lock: "Lock", pos: call.Pos()}
}

// releasesAtExit reports whether a deferred call releases h: h's own
// Unlock, or a call that receives the lock.
func (s *heldScan) releasesAtExit(call *ast.CallExpr, h *holder) bool {
	if expr, name, ok := s.lockCall(call); ok {
		return expr == h.expr && name == h.unlockName()
	}
	for _, arg := range call.Args {
		if rendered := types.ExprString(arg); rendered == h.expr || rendered == "&"+h.expr {
			return true
		}
	}
	return false
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
// (no protocol encodes onto a socket: payloads are encoded into buffers and
// travel as transport frames).
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

// lockCall recognizes x.Lock/RLock/TryLock/Unlock/RUnlock on sync mutexes,
// returning the rendered receiver and the method name. sync.Cond's
// locker methods do not reach here (Cond has no Lock method itself).
func (s *heldScan) lockCall(call *ast.CallExpr) (expr, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
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

// releaseHolder releases the most recent matching acquisition (locks nest
// LIFO) and returns it, or nil.
func releaseHolder(held []*holder, expr, unlockName string) *holder {
	for i := len(held) - 1; i >= 0; i-- {
		h := held[i]
		if !h.released && h.expr == expr && h.unlockName() == unlockName {
			h.released = true
			return h
		}
	}
	return nil
}

func copyHolders(held []*holder) []*holder {
	out := make([]*holder, len(held))
	for i, h := range held {
		c := *h
		out[i] = &c
	}
	return out
}
