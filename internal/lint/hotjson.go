package lint

import "strings"

// jsonOutputPkgs are the packages under internal/ that may import
// encoding/json, because all they make of it is output: obs renders the
// monitor's HTTP API, ocr gives Value the JSON methods those renderings use.
// Everywhere else under internal/ every record, frame and lease is a codec
// record, and JSON must not creep back in as a second format to read. The
// rule is about imports, not function names: a rename never edits it.
var jsonOutputPkgs = map[string]bool{
	"bioopera/internal/obs": true,
	"bioopera/internal/ocr": true,

	"bioopera/internal/lint/testdata/hotjsonout": true, // the golden fixture's allowed package
}

// runHotJSON flags an encoding/json import in a non-test file of a package
// under internal/ that jsonOutputPkgs does not name. A deliberate exception
// carries //bioopera:allow hotjson with a reason.
func runHotJSON(p *Pass) {
	path := p.Pkg.Path()
	if !strings.HasPrefix(path, "bioopera/internal/") || jsonOutputPkgs[path] {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/json"` {
				p.Reportf(imp.Pos(), "%s imports encoding/json: under internal/ only obs and ocr make JSON, for output; records and frames use the binary codec (internal/codec)", path)
			}
		}
	}
}
