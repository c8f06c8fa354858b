package lint

// noFileIOPkgs are the packages that touch no file: every byte the store
// keeps or ships is framed and written by internal/wal (a snapshot is the
// log's base), so internal/store needs no os of its own. Like hotjson, the
// rule is about imports, not function names.
var noFileIOPkgs = map[string]bool{
	"bioopera/internal/store": true,

	"bioopera/internal/lint/testdata/storeio": true, // the golden fixture
}

// runStoreIO flags an os import, under any name, in a non-test file of a
// package noFileIOPkgs names. A deliberate exception carries
// //bioopera:allow storeio with a reason.
func runStoreIO(p *Pass) {
	path := p.Pkg.Path()
	if !noFileIOPkgs[path] {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				p.Reportf(imp.Pos(), "%s imports os: the store does no file I/O of its own; every byte it keeps or ships is written by internal/wal", path)
			}
		}
	}
}
