package core_test

import (
	"testing"

	"bioopera/internal/allvsall"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/tower"
)

// TestCompileEquivalenceLabTemplates runs TestCompileEquivalence's check over
// the paper's two workloads: the tower of information (with its gene-prediction
// subprocess) and the all-vs-all.
func TestCompileEquivalenceLabTemplates(t *testing.T) {
	for _, src := range []string{tower.Source, tower.GenePredictionSource, allvsall.Source} {
		ps, err := ocr.ParseFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if err := core.CheckCompiled(p); err != nil {
				t.Error(err)
			}
		}
	}
}
