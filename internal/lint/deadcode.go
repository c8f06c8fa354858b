package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deadcode reports every function or method declaration that nothing
// reaches from the program's roots: the main and init functions and the
// package-level initializers of every package, and the exported API of
// package bioopera — its functions, and the exported methods and fields of
// every module type it names, transitively. Code that only tests call is
// dead by this rule; a function a test or CI gate needs as a reference
// carries //bioopera:allow deadcode <which test or gate>, and that one
// directive keeps everything the function reaches alive too.
//
// Reachability rides the Program's index (byObj) and its class-hierarchy
// map (impls). Any reference to a function is an edge — a call, a func
// value, a method value or a method expression — and an instantiation
// counts for its origin. A referenced module interface method reaches
// every module implementation. A standard-library interface method is
// called by code the loader never sees, so a live type's methods that
// implement one of stdIfaces by method set are live.
type deadcode struct {
	p      *Program
	mod    map[*types.Package]bool
	liveFn map[*types.Func]bool
	liveTy map[*types.TypeName]bool
	apiTy  map[*types.TypeName]bool
}

// stdIfaces are the standard-library interfaces the runtime calls into —
// error and its Unwrap, fmt.Stringer, flag.Value, sort and heap, io,
// http.Handler, json, types.Importer — as method name → parameter and
// result types.
var stdIfaces = []map[string]string{
	{"Error": "()(string)"},
	{"Unwrap": "()(error)"},
	{"String": "()(string)"},
	{"Set": "(string)(error)", "String": "()(string)"},
	{"Len": "()(int)", "Less": "(int,int)(bool)", "Swap": "(int,int)()"},
	{"Len": "()(int)", "Less": "(int,int)(bool)", "Swap": "(int,int)()", "Push": "(any)()", "Pop": "()(any)"},
	{"Read": "([]byte)(int,error)"},
	{"Write": "([]byte)(int,error)"},
	{"ServeHTTP": "(net/http.ResponseWriter,*net/http.Request)()"},
	{"MarshalJSON": "()([]byte,error)"},
	{"UnmarshalJSON": "([]byte)(error)"},
	{"Import": "(string)(*go/types.Package,error)"},
}

func runDeadCode(mp *ModulePass) {
	p := mp.Prog
	d := &deadcode{p: p, mod: map[*types.Package]bool{}, liveFn: map[*types.Func]bool{},
		liveTy: map[*types.TypeName]bool{}, apiTy: map[*types.TypeName]bool{}}
	for _, pkg := range p.Pkgs {
		d.mod[pkg.Types] = true
	}
	for _, pkg := range p.Pkgs {
		d.roots(pkg)
	}
	var dead []*funcNode
	for _, n := range p.nodes {
		path := n.pkg.Path
		if n.obj != nil && !d.liveFn[n.obj] && (!testdataPkg(path) || strings.Contains(path, "lint/testdata/deadcode")) {
			dead = append(dead, n)
		}
	}
	// An allowed function is still reported, so its directive counts as
	// used; what it reaches is not.
	allowed := map[*funcNode]bool{}
	for _, n := range dead {
		if p.allowsDeadCode(n) {
			allowed[n] = true
			d.markFn(n.obj)
		}
	}
	for _, n := range dead {
		if allowed[n] || !d.liveFn[n.obj] {
			mp.Reportf(n.obj.Pos(), "%s is unreachable: no main, init or bioopera API reaches it — delete it, or name the test or gate that needs it in //bioopera:allow deadcode", n.name)
		}
	}
}

// roots marks a package's main and init functions, its package-level
// initializers and, for package bioopera, its exported API.
func (d *deadcode) roots(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main") {
					d.markFn(pkg.Info.Defs[decl.Name].(*types.Func))
				}
			case *ast.GenDecl:
				if decl.Tok == token.VAR {
					d.walk(pkg, decl)
				}
			}
		}
	}
	if pkg.Path != "bioopera" {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			if fn, ok := obj.(*types.Func); ok {
				d.markFn(fn)
			}
			d.markType(obj.Type(), true)
		}
	}
}

// walk marks every function a syntax tree references and every type its
// expressions have, nested function literals included.
func (d *deadcode) walk(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(an ast.Node) bool {
		if id, ok := an.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				d.markFn(fn)
			}
		}
		if e, ok := an.(ast.Expr); ok {
			if t := pkg.Info.TypeOf(e); t != nil {
				d.markType(t, false)
			}
		}
		return true
	})
}

func (d *deadcode) markFn(fn *types.Func) {
	fn = fn.Origin()
	if d.liveFn[fn] {
		return
	}
	d.liveFn[fn] = true
	d.markType(fn.Type(), false)
	if isInterfaceMethod(fn) {
		for _, n := range d.p.impls[fn] {
			d.markFn(n.obj)
		}
	} else if n, ok := d.p.byObj[fn]; ok {
		d.walk(n.pkg, n.body)
	}
}

// markType marks the module types t names as live, and with them their
// standard-interface methods. api marks t as named by package bioopera's
// API, which makes its exported methods and fields live as well.
func (d *deadcode) markType(t types.Type, api bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			d.markType(t.TypeArgs().At(i), api)
		}
		t = t.Origin()
		obj := t.Obj()
		if !d.mod[obj.Pkg()] {
			return
		}
		var recv types.Type = types.NewPointer(t)
		if types.IsInterface(t) {
			recv = t
		}
		ms := types.NewMethodSet(recv)
		if !d.liveTy[obj] {
			d.liveTy[obj] = true
			for _, iface := range stdIfaces {
				d.markStdIface(ms, iface)
			}
			d.markType(t.Underlying(), false)
		}
		if api && !d.apiTy[obj] {
			d.apiTy[obj] = true
			for i := 0; i < ms.Len(); i++ {
				if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
					d.markFn(fn)
					d.markType(fn.Type(), true)
				}
			}
			d.markType(t.Underlying(), true)
		}
	case *types.Map:
		d.markType(t.Key(), api)
		d.markType(t.Elem(), api)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		d.markType(t.Elem(), api)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); !api || f.Exported() {
				d.markType(f.Type(), api)
			}
		}
	case *types.Signature:
		d.markType(t.Params(), api)
		d.markType(t.Results(), api)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			d.markType(t.At(i).Type(), api)
		}
	}
}

// markStdIface marks the methods of ms that implement iface.
func (d *deadcode) markStdIface(ms *types.MethodSet, iface map[string]string) {
	var fns []*types.Func
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		if want, ok := iface[fn.Name()]; ok && want == sigKey(fn.Type().(*types.Signature)) {
			fns = append(fns, fn)
		}
	}
	if len(fns) == len(iface) {
		for _, fn := range fns {
			d.markFn(fn)
		}
	}
}

// sigKey renders a signature's parameter and result types, without names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// allowsDeadCode reports whether n's declaration carries a valid
// //bioopera:allow deadcode directive on its line or the line above.
func (p *Program) allowsDeadCode(n *funcNode) bool {
	pos := p.Fset.Position(n.obj.Pos())
	for _, dir := range p.dirs {
		if dir.valid && dir.analyzer == "deadcode" && dir.pos.Filename == pos.Filename &&
			(dir.pos.Line == pos.Line || dir.pos.Line == pos.Line-1) {
			return true
		}
	}
	return false
}
