package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The whole-program layer. A Program indexes every function body across
// the loaded packages, resolves a static call-graph approximation (direct
// calls plus class-hierarchy expansion of module-defined interfaces), and
// computes cross-package facts keyed by types.Object: which lock classes a
// function may acquire, whether it may block indefinitely, which
// WaitGroups and channels tie a goroutine to a Close. Because every
// package is type-checked in one Loader universe, a field object like
// Engine.dmu is the *same* types.Object no matter which package the
// reference appears in — that identity is what lets facts flow across
// package boundaries. The module-scope analyzers (lockorder, goroleak,
// blockingsend) run over this instead of one package at a time.
//
// The call graph is an approximation, deliberately: calls through func
// values (callbacks, stored thunks like Launch.Run) are unresolved, and
// interface calls expand only to module-defined implementations. Both
// under-approximate reachability; the invariants these analyzers guard are
// enforced on everything the graph can see, and the graph sees every
// direct call and every Executor/Store-style dispatch in the
// tree.

// Program is the whole-module view the module-scope analyzers run over.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	nodes []*funcNode
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	// impls maps a module-defined interface method to the module types
	// that implement it (class-hierarchy analysis).
	impls map[*types.Func][]*funcNode

	// classPkg maps a lock class ("core.Engine.dmu") to the import path
	// of the package declaring the field.
	classPkg map[string]string

	// chanAlias unions channel-typed objects connected by assignment, per
	// package: `stop := make(chan struct{}); s.stop = stop` makes the
	// local and the field one channel for goroleak's shutdown proofs.
	chanAlias map[string]*unionFind

	// dirs are the //bioopera:allow directives of every loaded package.
	dirs []*directive
}

// funcNode is one function body: a declaration or a function literal.
type funcNode struct {
	pkg  *Package
	name string // display name, e.g. core.(*Engine).dispatch or core.NewSimRuntime$1
	body *ast.BlockStmt
	obj  *types.Func  // nil for literals
	lit  *ast.FuncLit // nil for declarations

	// returnsLock is the lock class this function hands out a pointer to
	// (the shardFor pattern), or "".
	returnsLock string
	// varClass maps local variables to the lock class they point at
	// (assigned from a field or a returns-lock call).
	varClass map[types.Object]string

	calls     []*resolvedCall
	callByAST map[*ast.CallExpr]*resolvedCall

	// Direct facts, then their transitive closures over the call graph.
	acqDirect   map[string]token.Pos
	blockDirect *blockFact
	acqAll      map[string]string // lock class → via-callee ("" = acquired here)
	mayBlock    *blockFact

	wgAdd, wgDone, wgWait map[types.Object]bool
	chRecv, chClose       map[types.Object]bool
	goStmts               []*ast.GoStmt
}

// resolvedCall is one call expression with its statically resolved
// callees. An interface call lists every module implementation; an empty
// list means the target is outside the module or a func value.
type resolvedCall struct {
	call    *ast.CallExpr
	label   string // rendered callee for messages
	callees []*funcNode
}

// blockFact is a may-block witness: the primitive operation and the call
// chain that reaches it.
type blockFact struct {
	what  string
	pos   token.Pos
	chain []string
}

func (b *blockFact) describe(fset *token.FileSet) string {
	p := fset.Position(b.pos)
	loc := fmt.Sprintf("%s:%d", shortPath(p.Filename), p.Line)
	if len(b.chain) == 0 {
		return fmt.Sprintf("%s at %s", b.what, loc)
	}
	return fmt.Sprintf("%s at %s via %s", b.what, loc, strings.Join(b.chain, " → "))
}

// shortPath trims a position's filename to its last two path elements.
func shortPath(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// lockTrackedPkgs are the packages whose mutex fields become lock classes:
// the concurrent heart of the system. Compute-cache mutexes elsewhere
// (allvsall, darwin) are leaves by construction and stay out of the graph.
var lockTrackedPkgs = map[string]bool{
	"bioopera/internal/core":      true,
	"bioopera/internal/remote":    true,
	"bioopera/internal/fed":       true,
	"bioopera/internal/transport": true,
	"bioopera/internal/obs":       true,
	"bioopera/internal/wal":       true,
	"bioopera/internal/store":     true,
	"bioopera/internal/sched":     true,
	"bioopera/internal/cluster":   true,
}

func lockTrackedPkg(path string) bool {
	return lockTrackedPkgs[path] || testdataPkg(path)
}

// buildProgram indexes functions, resolves the call graph, and computes
// facts. Valid blockingsend directives on a blocking operation clear that
// operation as a fact *source* — the suppression then covers every caller
// reached through the call graph, instead of needing one annotation per
// call site — and are marked used so they are not reported stale.
func buildProgram(pkgs []*Package, dirs []*directive) *Program {
	p := &Program{
		Pkgs:      pkgs,
		byObj:     make(map[*types.Func]*funcNode),
		byLit:     make(map[*ast.FuncLit]*funcNode),
		impls:     make(map[*types.Func][]*funcNode),
		classPkg:  make(map[string]string),
		chanAlias: make(map[string]*unionFind),
		dirs:      dirs,
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	p.indexFuncs()
	p.buildCHA()
	for _, n := range p.nodes {
		n.returnsLock = p.returnsLockClass(n)
	}
	for _, n := range p.nodes {
		p.collectFacts(n)
	}
	p.computeMayBlock()
	p.computeAcqAll()
	return p
}

// indexFuncs enumerates every function declaration and literal, in file
// and position order, so all downstream iteration is deterministic.
func (p *Program) indexFuncs() {
	for _, pkg := range p.Pkgs {
		p.chanAlias[pkg.Path] = newUnionFind()
		for _, f := range pkg.Files {
			var stack []string
			litSeq := make(map[string]int)
			ast.Inspect(f, func(an ast.Node) bool {
				switch fn := an.(type) {
				case *ast.FuncDecl:
					if fn.Body == nil {
						return false
					}
					obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
					name := shortPkg(pkg.Path) + "." + fn.Name.Name
					if fn.Recv != nil && len(fn.Recv.List) > 0 {
						name = shortPkg(pkg.Path) + ".(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
					}
					n := &funcNode{pkg: pkg, name: name, body: fn.Body, obj: obj}
					p.nodes = append(p.nodes, n)
					if obj != nil {
						p.byObj[obj] = n
					}
					stack = append(stack, name)
					return true
				case *ast.FuncLit:
					parent := shortPkg(pkg.Path)
					if len(stack) > 0 {
						parent = stack[len(stack)-1]
					}
					litSeq[parent]++
					name := fmt.Sprintf("%s$%d", parent, litSeq[parent])
					n := &funcNode{pkg: pkg, name: name, body: fn.Body, lit: fn}
					p.nodes = append(p.nodes, n)
					p.byLit[fn] = n
					stack = append(stack, name)
					return true
				}
				return true
			})
		}
	}
}

// buildCHA maps every module-defined interface method to the module types
// implementing it, so Executor.Launch-style dispatch resolves to the sim,
// local, and remote executors at once.
func (p *Program) buildCHA() {
	var ifaces []*types.Interface
	var ifaceObjs []map[string]*types.Func // method name → interface method object
	var concrete []types.Type
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() == 0 {
					continue
				}
				methods := make(map[string]*types.Func, iface.NumMethods())
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					methods[m.Name()] = m
				}
				ifaces = append(ifaces, iface)
				ifaceObjs = append(ifaceObjs, methods)
				continue
			}
			concrete = append(concrete, named)
		}
	}
	for _, ct := range concrete {
		pt := types.NewPointer(ct)
		for i, iface := range ifaces {
			var recv types.Type
			switch {
			case types.Implements(ct, iface):
				recv = ct
			case types.Implements(pt, iface):
				recv = pt
			default:
				continue
			}
			for name, im := range ifaceObjs[i] {
				obj, _, _ := types.LookupFieldOrMethod(recv, true, im.Pkg(), name)
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				node, ok := p.byObj[fn]
				if !ok {
					continue
				}
				dup := false
				for _, have := range p.impls[im] {
					if have == node {
						dup = true
					}
				}
				if !dup {
					p.impls[im] = append(p.impls[im], node)
				}
			}
		}
	}
}

// returnsLockClass recognizes the shardFor pattern: a function whose every
// return hands out a pointer into one mutex field, so `mu :=
// e.shardFor(id); mu.Lock()` acquires the class of Engine.shards.
func (p *Program) returnsLockClass(n *funcNode) string {
	if n.obj == nil {
		return ""
	}
	sig, ok := n.obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return ""
	}
	ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
	if !ok || !mutexType(ptr.Elem()) {
		return ""
	}
	class := ""
	ok = true
	ast.Inspect(n.body, func(an ast.Node) bool {
		ret, isRet := an.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 1 {
			return true
		}
		c := p.fieldClass(n.pkg, ret.Results[0])
		if c == "" || (class != "" && class != c) {
			ok = false
			return false
		}
		class = c
		return true
	})
	if !ok {
		return ""
	}
	return class
}

// mutexType reports whether t is (or contains, for slices and arrays) a
// sync.Mutex or sync.RWMutex.
func mutexType(t types.Type) bool {
	s := types.TypeString(t, nil)
	return strings.Contains(s, "sync.Mutex") || strings.Contains(s, "sync.RWMutex")
}

// derefAll strips every pointer layer off t.
func derefAll(t types.Type) types.Type {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = ptr.Elem()
	}
}

// fieldClass resolves an expression to a lock class when it denotes a
// mutex-typed field of a named type in a lock-tracked package:
// `&e.shards[i]` → "core.Engine.shards".
func (p *Program) fieldClass(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ""
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		default:
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			obj := resolveObj(pkg.Info, sel)
			field, ok := obj.(*types.Var)
			if !ok || !field.IsField() || !mutexType(field.Type()) {
				return ""
			}
			if field.Pkg() == nil || !lockTrackedPkg(field.Pkg().Path()) {
				return ""
			}
			t := derefAll(pkg.Info.TypeOf(sel.X))
			// A promoted field belongs to the embedded type that declares
			// it: d.mu on a Disk embedding image is store.image.mu.
			if s, ok := pkg.Info.Selections[sel]; ok {
				for _, i := range s.Index()[:len(s.Index())-1] {
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return ""
					}
					t = derefAll(st.Field(i).Type())
				}
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			class := shortPkg(field.Pkg().Path()) + "." + named.Obj().Name() + "." + field.Name()
			p.classPkg[class] = field.Pkg().Path()
			return class
		}
	}
}

// classOf resolves the receiver of a Lock/Unlock call to its lock class:
// a field chain directly, or a local variable traced to a field or a
// returns-lock call via the node's varClass map.
func (p *Program) classOf(n *funcNode, e ast.Expr) string {
	if c := p.fieldClass(n.pkg, e); c != "" {
		return c
	}
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := resolveObj(n.pkg.Info, id); obj != nil {
			return n.varClass[obj]
		}
	}
	return ""
}

// resolveObj resolves an expression to the object it denotes: a variable,
// a field, or nil.
func resolveObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return resolveObj(info, x.X)
		}
	case *ast.StarExpr:
		return resolveObj(info, x.X)
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// collectFacts walks one function body (not descending into nested
// literals — those are their own nodes) gathering call sites, lock
// acquisitions, blocking operations, and the WaitGroup/channel facts
// goroleak needs.
func (p *Program) collectFacts(n *funcNode) {
	info := n.pkg.Info
	n.varClass = make(map[types.Object]string)
	n.callByAST = make(map[*ast.CallExpr]*resolvedCall)
	n.acqDirect = make(map[string]token.Pos)
	n.wgAdd = make(map[types.Object]bool)
	n.wgDone = make(map[types.Object]bool)
	n.wgWait = make(map[types.Object]bool)
	n.chRecv = make(map[types.Object]bool)
	n.chClose = make(map[types.Object]bool)
	alias := p.chanAlias[n.pkg.Path]

	// Calls launched with `go` run on another goroutine, not here: they
	// must not contribute to this function's synchronous may-block or
	// may-acquire facts (goroleak judges them separately).
	goCalls := make(map[*ast.CallExpr]bool)
	walkOwn(n.body, func(an ast.Node) {
		if g, ok := an.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
	})

	walkOwn(n.body, func(an ast.Node) {
		switch x := an.(type) {
		case *ast.AssignStmt:
			p.recordAssigns(n, alias, x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, id := range x.Names {
				lhs = append(lhs, id)
			}
			p.recordAssigns(n, alias, lhs, x.Values)
		case *ast.GoStmt:
			n.goStmts = append(n.goStmts, x)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				p.recordChan(n, n.chRecv, alias, x.X)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					p.recordChan(n, n.chRecv, alias, x.X)
				}
			}
		case *ast.CallExpr:
			p.recordCall(n, alias, x, goCalls[x])
		}
	})

	// Blocking ops and direct acquisitions come from the held-lock
	// scanner, which knows that a select with a default never blocks.
	scanHeld(p, n, &scanHooks{
		acquire: func(_ []*holder, h *holder) {
			if h.class != "" {
				if _, ok := n.acqDirect[h.class]; !ok {
					n.acqDirect[h.class] = h.pos
				}
			}
		},
		blocking: func(_ []*holder, what string, pos token.Pos) {
			if n.blockDirect != nil {
				return
			}
			if p.clearBlockFact(pos) {
				return
			}
			n.blockDirect = &blockFact{what: what, pos: pos}
		},
	})
}

// clearBlockFact checks for a //bioopera:allow blockingsend directive on
// the blocking operation itself: that clears the fact at its source, so
// the one annotation covers every caller the fact would have propagated
// to. The directive counts as used.
func (p *Program) clearBlockFact(pos token.Pos) bool {
	if p.Fset == nil {
		return false
	}
	position := p.Fset.Position(pos)
	cleared := false
	for _, d := range p.dirs {
		if !d.valid || d.analyzer != "blockingsend" || d.pos.Filename != position.Filename {
			continue
		}
		if d.fileWide || d.pos.Line == position.Line || d.pos.Line == position.Line-1 {
			d.used = true
			cleared = true
		}
	}
	return cleared
}

// recordAssigns unions channel aliases and traces lock-pointer locals.
func (p *Program) recordAssigns(n *funcNode, alias *unionFind, lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return // multi-value call: nothing to trace
	}
	info := n.pkg.Info
	for i, l := range lhs {
		r := rhs[i]
		lobj := resolveObj(info, l)
		if lobj == nil {
			continue
		}
		if t := info.TypeOf(l); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				if robj := resolveObj(info, r); robj != nil {
					alias.union(lobj, robj)
				}
			}
		}
		if cls := p.rhsLockClass(n, r); cls != "" {
			n.varClass[lobj] = cls
		}
	}
}

// rhsLockClass resolves an assignment RHS to a lock class: a field chain,
// an already-traced local, or a call to a returns-lock function.
func (p *Program) rhsLockClass(n *funcNode, r ast.Expr) string {
	if cls := p.classOf(n, r); cls != "" {
		return cls
	}
	call, ok := ast.Unparen(r).(*ast.CallExpr)
	if !ok {
		return ""
	}
	for _, callee := range p.calleesOf(n.pkg, call) {
		if callee.returnsLock != "" {
			return callee.returnsLock
		}
	}
	return ""
}

// recordChan notes a receive or close on a channel object.
func (p *Program) recordChan(n *funcNode, set map[types.Object]bool, alias *unionFind, e ast.Expr) {
	if obj := resolveObj(n.pkg.Info, e); obj != nil {
		alias.add(obj)
		set[obj] = true
	}
}

// recordCall resolves one call's callees and the WaitGroup/close facts it
// carries. goCall marks a `go` statement's call: its facts (Done pairing,
// closes) still register, but it is not a synchronous call edge.
func (p *Program) recordCall(n *funcNode, alias *unionFind, call *ast.CallExpr, goCall bool) {
	info := n.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && info.Uses[id] != nil && info.Uses[id].Pkg() == nil {
		if len(call.Args) == 1 {
			p.recordChan(n, n.chClose, alias, call.Args[0])
		}
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, found := info.Selections[sel]; found {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				recv := types.TypeString(s.Recv(), nil)
				if strings.Contains(recv, "sync.WaitGroup") {
					if obj := resolveObj(info, sel.X); obj != nil {
						switch sel.Sel.Name {
						case "Add":
							n.wgAdd[obj] = true
						case "Done":
							n.wgDone[obj] = true
						case "Wait":
							n.wgWait[obj] = true
						}
					}
				}
			}
		}
	}
	if goCall {
		return
	}
	rc := &resolvedCall{call: call, label: types.ExprString(call.Fun), callees: p.calleesOf(n.pkg, call)}
	n.calls = append(n.calls, rc)
	n.callByAST[call] = rc
}

// calleesOf statically resolves a call: direct function or method calls
// map to their body; interface method calls expand to every module
// implementation; everything else (func values, external code) resolves to
// nothing.
func (p *Program) calleesOf(pkg *Package, call *ast.CallExpr) []*funcNode {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return p.staticCallee(fn)
		}
	case *ast.FuncLit:
		if n, ok := p.byLit[fun]; ok {
			return []*funcNode{n}
		}
	case *ast.SelectorExpr:
		if s, found := info.Selections[fun]; found {
			if fn, ok := s.Obj().(*types.Func); ok {
				if isInterfaceMethod(fn) {
					return p.impls[fn]
				}
				return p.staticCallee(fn)
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return p.staticCallee(fn)
		}
	}
	return nil
}

func (p *Program) staticCallee(fn *types.Func) []*funcNode {
	if n, ok := p.byObj[fn]; ok {
		return []*funcNode{n}
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// computeMayBlock propagates blocking witnesses up the call graph to a
// fixed point: a function may block if it blocks directly or calls (along
// any resolved edge) a function that may.
func (p *Program) computeMayBlock() {
	for _, n := range p.nodes {
		n.mayBlock = n.blockDirect
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.nodes {
			if n.mayBlock != nil {
				continue
			}
		calls:
			for _, rc := range n.calls {
				for _, c := range rc.callees {
					if c.mayBlock == nil {
						continue
					}
					chain := append([]string{c.name}, c.mayBlock.chain...)
					if len(chain) > 4 {
						chain = chain[:4]
					}
					n.mayBlock = &blockFact{what: c.mayBlock.what, pos: c.mayBlock.pos, chain: chain}
					changed = true
					break calls
				}
			}
		}
	}
}

// computeAcqAll closes the may-acquire lock-class sets over the call
// graph, recording the first callee each class arrives through.
func (p *Program) computeAcqAll() {
	for _, n := range p.nodes {
		n.acqAll = make(map[string]string, len(n.acqDirect))
		for cls := range n.acqDirect {
			n.acqAll[cls] = ""
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.nodes {
			for _, rc := range n.calls {
				for _, c := range rc.callees {
					for cls := range c.acqAll {
						if _, ok := n.acqAll[cls]; !ok {
							n.acqAll[cls] = c.name
							changed = true
						}
					}
				}
			}
		}
	}
}

// unionFind is a tiny disjoint-set over types.Object, for channel
// aliasing.
type unionFind struct {
	parent map[types.Object]types.Object
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[types.Object]types.Object)} }

func (u *unionFind) add(o types.Object) {
	if _, ok := u.parent[o]; !ok {
		u.parent[o] = o
	}
}

func (u *unionFind) find(o types.Object) types.Object {
	u.add(o)
	for u.parent[o] != o {
		u.parent[o] = u.parent[u.parent[o]]
		o = u.parent[o]
	}
	return o
}

func (u *unionFind) union(a, b types.Object) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// walkOwn visits every node in a body except nested function literals,
// which are separate funcNodes with their own walks.
func walkOwn(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(an ast.Node) bool {
		if _, isLit := an.(*ast.FuncLit); isLit {
			return false
		}
		if an != nil {
			visit(an)
		}
		return true
	})
}
