package lint

import (
	"go/ast"
	"go/types"
)

// walltimeBanned is every package-level identifier of the time package
// that reads or schedules against the wall clock. Pure-duration helpers
// (time.Duration, time.Second, Duration.Round, ...) stay legal: the
// invariant bans clocks, not units. §5's experiments replay bit-identically
// only because the sim's virtual clock is the single time source.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

// runWalltime flags wall-clock use in deterministic packages. The one wall
// clock behind sim.Clock (internal/sim/wall.go) and the few readings that
// never feed back into replayable state (latency histograms, a long-poll's
// pacing) carry //bioopera:allow walltime directives saying why.
func runWalltime(p *Pass) {
	if !deterministicPkg(p.Pkg.Path()) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" || !walltimeBanned[sel.Sel.Name] {
				return true
			}
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in deterministic package %s: use the sim virtual clock", sel.Sel.Name, p.Pkg.Path())
			return true
		})
	}
}
