// Package lint is biooperalint: a stdlib-only static-analysis framework
// enforcing the project's dependability invariants — the rules the Go
// compiler cannot see but the paper's guarantees rest on. Traces must be
// bit-identical across replays, so deterministic packages may not read the
// wall clock (walltime) or iterate maps in observable order (maprange);
// recoverability means persistence errors may never be silently dropped
// (droppederr); and the sharded engine must not block or leak while
// holding its locks (locksafe). Violations are either fixed or suppressed
// in place with a //bioopera:allow directive, which must name a real
// analyzer and carry a reason (directive).
//
// The framework is deliberately small: an Analyzer is a function over a
// type-checked package, diagnostics are positions plus messages, and the
// suppression directive is resolved after all analyzers ran so stale
// directives are themselves diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant check run over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //bioopera:allow
	// directives.
	Name string
	// Doc is the one-line invariant the analyzer guards.
	Doc string
	// Run reports violations found in the pass's package.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// DirectiveName is the analyzer name under which directive-misuse
// diagnostics (unknown analyzer, missing reason, stale suppression) are
// reported. It is a valid target of //bioopera:allow in name checks but
// its own diagnostics cannot be suppressed.
const DirectiveName = "directive"

// Analyzers returns the per-package analyzer suite, in running order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{Name: "walltime", Doc: "deterministic packages must use the sim virtual clock, never the wall clock", Run: runWalltime},
		{Name: "droppederr", Doc: "store/WAL/persist/Close errors must flow somewhere, never be dropped", Run: runDroppedErr},
		{Name: "maprange", Doc: "trace-order-sensitive code must not iterate maps unsorted", Run: runMapRange},
		{Name: "hotjson", Doc: "no package under internal/ but obs and ocr imports encoding/json: records, frames and leases use the binary codec", Run: runHotJSON},
		{Name: "storeio", Doc: "no non-test file in internal/store imports os: every byte the store keeps or ships is written by internal/wal", Run: runStoreIO},
	}
}

// ModuleAnalyzer is one invariant check over the whole loaded program: it
// sees the cross-package fact layer and call graph instead of one package
// at a time.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass carries the program through one module analyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Prog     *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModuleAnalyzers returns the whole-program analyzer suite, in running
// order.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		{Name: "locksafe", Doc: "internal/core critical sections never block or leak their lock, and a turn leaves its shard through one deferred endTurn", Run: runLockSafe},
		{Name: "lockorder", Doc: "the global lock-acquisition graph must stay acyclic and within the sanctioned partial order", Run: runLockOrder},
		{Name: "goroleak", Doc: "every goroutine in a long-lived package needs a provable shutdown path tied to a Close", Run: runGoroLeak},
		{Name: "blockingsend", Doc: "no blocking channel operation or network write may be reachable while a lock is held", Run: runBlockingSend},
		{Name: "deadcode", Doc: "every function is reached from a main, an init or package bioopera's API, or names the test that needs it", Run: runDeadCode},
	}
}

// KnownAnalyzerNames lists every name a //bioopera:allow directive may
// reference.
func KnownAnalyzerNames() []string {
	names := []string{DirectiveName}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	for _, a := range ModuleAnalyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Run executes the full analyzer suite — per-package passes plus the
// whole-program passes over the cross-package fact layer — resolves
// //bioopera:allow directives, and returns the surviving diagnostics plus
// any directive-misuse diagnostics, sorted by position.
func Run(pkgs []*Package) []Diagnostic {
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   collect,
			}
			a.Run(pass)
		}
	}

	// Directives are collected before the program builds: a blockingsend
	// directive on a blocking operation clears the fact at its source
	// (and is marked used there), so one annotation covers every caller.
	var dirs []*directive
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, misuse := collectDirectives(pkg.Fset, pkg.Files)
		dirs = append(dirs, ds...)
		diags = append(diags, misuse...)
	}
	prog := buildProgram(pkgs, dirs)
	for _, a := range ModuleAnalyzers() {
		a.Run(&ModulePass{Analyzer: a, Prog: prog, report: collect})
	}

	kept, stale := applyDirectives(raw, dirs)
	diags = append(diags, kept...)
	diags = append(diags, stale...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// deterministicPkg reports whether a package must stay replay-identical:
// the simulation kernel, the scheduler, the engine, the persistence layer
// (WAL and store — their contents are replayed on recovery and shipped to
// standbys, so wall-clock leakage would diverge replicas), the transport
// (it reads time only through sim.Clock, which its tests drive), the two
// protocols over it — the worker link (its liveness is the transport's
// timer) and the federation (heartbeats, failure detection, call deadlines
// and the gateway's retry waits read one sim.Clock, so a test can replay a
// failover window) — and the all-vs-all workload. Lint testdata fixtures are always in scope so
// golden tests exercise every analyzer.
func deterministicPkg(path string) bool {
	switch path {
	case "bioopera/internal/sim",
		"bioopera/internal/sched",
		"bioopera/internal/core",
		"bioopera/internal/obs",
		"bioopera/internal/wal",
		"bioopera/internal/store",
		"bioopera/internal/codec",
		"bioopera/internal/fed",
		"bioopera/internal/transport",
		"bioopera/internal/remote",
		"bioopera/internal/allvsall":
		return true
	}
	return testdataPkg(path)
}

// testdataPkg reports whether path is a lint golden-test fixture.
func testdataPkg(path string) bool {
	return strings.Contains(path, "lint/testdata/")
}
