package tower

import (
	"fmt"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/ocr"
)

// This file exposes the tower as BioOpera processes: one subprocess
// template per floor (the paper: "the tower of information is built as a
// process where every step is a subprocess") plus the parent process that
// chains them.

// TemplateName is the parent process name.
const TemplateName = "TowerOfInformation"

// Source contains every tower template in OCR.
const Source = `
PROCESS GeneFinding "Locate genes (ORFs) in raw DNA" {
  INPUT dna, min_codons;
  OUTPUT genes;
  ACTIVITY Find {
    CALL tower.find_genes(dna = dna, min = min_codons);
    OUT genes;
    MAP genes -> genes;
    RETRY 1;
  }
}

PROCESS Translation "Translate gene DNA into protein sequences" {
  INPUT genes;
  OUTPUT proteins;
  BLOCK PerGene PARALLEL OVER genes AS gene {
    MAP results -> proteins;
    OUTPUT protein;
    ACTIVITY T {
      CALL tower.translate_one(gene = gene);
      OUT protein;
      MAP protein -> protein;
      RETRY 1;
    }
  }
}

PROCESS PairwiseAlignments "Estimate pairwise PAM distances" {
  INPUT proteins, threshold;
  OUTPUT distances;
  ACTIVITY Distances {
    CALL tower.distances(proteins = proteins, threshold = threshold);
    OUT distances;
    MAP distances -> distances;
    RETRY 2;
  }
}

PROCESS MultipleAlignment "Center-star progressive MSA" {
  INPUT proteins, distances;
  OUTPUT alignment;
  ACTIVITY MSA {
    CALL tower.msa(proteins = proteins, distances = distances);
    OUT alignment;
    MAP alignment -> alignment;
    RETRY 1;
  }
}

PROCESS PhylogeneticTree "Neighbour-joining tree" {
  INPUT distances;
  OUTPUT tree;
  ACTIVITY NJ {
    CALL tower.njtree(distances = distances);
    OUT tree;
    MAP tree -> tree;
    RETRY 1;
  }
}

PROCESS AncestralSequences "Fitch-parsimony ancestral reconstruction" {
  INPUT alignment, distances;
  OUTPUT ancestor;
  ACTIVITY Fitch {
    CALL tower.ancestral(alignment = alignment, distances = distances);
    OUT ancestor;
    MAP ancestor -> ancestor;
    RETRY 1;
  }
}

PROCESS StructurePrediction "Chou-Fasman secondary structure" {
  INPUT proteins;
  OUTPUT predictions;
  BLOCK PerProtein PARALLEL OVER proteins AS protein {
    MAP results -> predictions;
    OUTPUT ss;
    ACTIVITY CF {
      CALL tower.predict_one(protein = protein);
      OUT ss;
      MAP ss -> ss;
      RETRY 1;
    }
  }
}

PROCESS TowerOfInformation "Raw DNA to structure predictions (paper Fig. 1)" {
  INPUT dna, min_codons, threshold;
  OUTPUT proteins, alignment, tree, ancestor, predictions;

  SUBPROCESS FindGenes USES "GeneFinding" {
    IN dna = dna, min_codons = min_codons;
    OUT genes;
    MAP genes -> genes;
  }
  SUBPROCESS Translate USES "Translation" {
    IN genes = genes;
    OUT proteins;
    MAP proteins -> proteins;
  }
  SUBPROCESS Pairwise USES "PairwiseAlignments" {
    IN proteins = proteins, threshold = threshold;
    OUT distances;
    MAP distances -> distances;
  }
  SUBPROCESS MSA USES "MultipleAlignment" {
    IN proteins = proteins, distances = distances;
    OUT alignment;
    MAP alignment -> alignment;
  }
  SUBPROCESS Phylo USES "PhylogeneticTree" {
    IN distances = distances;
    OUT tree;
    MAP tree -> tree;
  }
  SUBPROCESS Ancestral USES "AncestralSequences" {
    IN alignment = alignment, distances = distances;
    OUT ancestor;
    MAP ancestor -> ancestor;
  }
  SUBPROCESS Structure USES "StructurePrediction" {
    IN proteins = proteins;
    OUT predictions;
    MAP predictions -> predictions;
  }

  FindGenes -> Translate;
  Translate -> Pairwise;
  Translate -> Structure;
  Pairwise -> MSA;
  Pairwise -> Phylo;
  MSA -> Ancestral;
  Phylo -> Ancestral;
}
`

// Register installs the tower.* programs.
func Register(lib *core.Library) error {
	programs := []core.Program{
		{
			Name: "tower.find_genes",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				dna := args["dna"].AsStr()
				if dna == "" {
					return nil, fmt.Errorf("no DNA input")
				}
				minCodons := args["min"].AsInt()
				if minCodons <= 0 {
					minCodons = 40
				}
				orfs := FindORFs(dna, minCodons)
				genes := make([]ocr.Value, len(orfs))
				for i, o := range orfs {
					genes[i] = ocr.Str(o.DNA)
				}
				return map[string]ocr.Value{"genes": ocr.List(genes...)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				return scaledCost(len(args["dna"].AsStr()), 50*time.Microsecond)
			},
		},
		{
			Name: "tower.translate_one",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				p, err := Translate(args["gene"].AsStr())
				if err != nil {
					return nil, err
				}
				return map[string]ocr.Value{"protein": ocr.Str(p)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				return scaledCost(len(args["gene"].AsStr()), 10*time.Microsecond)
			},
		},
		{
			Name: "tower.distances",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				proteins, err := strList(args["proteins"])
				if err != nil {
					return nil, err
				}
				threshold := args["threshold"].AsNum()
				if threshold == 0 {
					threshold = 60
				}
				d, err := DistanceMatrix(proteins, threshold)
				if err != nil {
					return nil, err
				}
				return map[string]ocr.Value{"distances": matrixValue(d)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				n := args["proteins"].Len()
				return scaledCost(n*n, 20*time.Millisecond)
			},
		},
		{
			Name: "tower.msa",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				proteins, err := strList(args["proteins"])
				if err != nil {
					return nil, err
				}
				d, err := matrixFromValue(args["distances"])
				if err != nil {
					return nil, err
				}
				rows, err := MultipleAlign(proteins, d)
				if err != nil {
					return nil, err
				}
				vs := make([]ocr.Value, len(rows))
				for i, r := range rows {
					vs[i] = ocr.Str(r)
				}
				return map[string]ocr.Value{"alignment": ocr.List(vs...)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				return scaledCost(args["proteins"].Len(), 100*time.Millisecond)
			},
		},
		{
			Name: "tower.njtree",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				d, err := matrixFromValue(args["distances"])
				if err != nil {
					return nil, err
				}
				tree, err := NeighborJoining(d, nil)
				if err != nil {
					return nil, err
				}
				return map[string]ocr.Value{"tree": ocr.Str(tree.Newick())}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				n := args["distances"].Len()
				return scaledCost(n*n*n, time.Millisecond)
			},
		},
		{
			Name: "tower.ancestral",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				msa, err := strList(args["alignment"])
				if err != nil {
					return nil, err
				}
				d, err := matrixFromValue(args["distances"])
				if err != nil {
					return nil, err
				}
				tree, err := NeighborJoining(d, nil)
				if err != nil {
					return nil, err
				}
				anc, err := FitchAncestral(tree, msa)
				if err != nil {
					return nil, err
				}
				return map[string]ocr.Value{"ancestor": ocr.Str(anc)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				return scaledCost(args["alignment"].Len(), 50*time.Millisecond)
			},
		},
		{
			Name: "tower.predict_one",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				ss, err := PredictSecondary(args["protein"].AsStr())
				if err != nil {
					return nil, err
				}
				return map[string]ocr.Value{"ss": ocr.Str(ss)}, nil
			},
			Cost: func(args map[string]ocr.Value) time.Duration {
				return scaledCost(len(args["protein"].AsStr()), 100*time.Microsecond)
			},
		},
	}
	for _, p := range programs {
		if err := lib.Register(p); err != nil {
			return err
		}
	}
	return nil
}

// Inputs builds process inputs for a genome.
func Inputs(dna string, minCodons int, threshold float64) map[string]ocr.Value {
	return map[string]ocr.Value{
		"dna":        ocr.Str(dna),
		"min_codons": ocr.Int(minCodons),
		"threshold":  ocr.Num(threshold),
	}
}

func scaledCost(n int, per time.Duration) time.Duration {
	d := time.Duration(n) * per
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

func strList(v ocr.Value) ([]string, error) {
	if v.Kind() != ocr.KindList {
		return nil, fmt.Errorf("tower: expected list, got %s", v.Kind())
	}
	out := make([]string, v.Len())
	for i := range out {
		e := v.At(i)
		if e.Kind() != ocr.KindString {
			return nil, fmt.Errorf("tower: list element %d is %s, want string", i, e.Kind())
		}
		out[i] = e.AsStr()
	}
	return out, nil
}

func matrixValue(d [][]float64) ocr.Value {
	rows := make([]ocr.Value, len(d))
	for i, r := range d {
		cells := make([]ocr.Value, len(r))
		for j, x := range r {
			cells[j] = ocr.Num(x)
		}
		rows[i] = ocr.List(cells...)
	}
	return ocr.List(rows...)
}

func matrixFromValue(v ocr.Value) ([][]float64, error) {
	if v.Kind() != ocr.KindList {
		return nil, fmt.Errorf("tower: distance matrix is %s, want list", v.Kind())
	}
	d := make([][]float64, v.Len())
	for i := range d {
		row := v.At(i)
		if row.Kind() != ocr.KindList {
			return nil, fmt.Errorf("tower: matrix row %d is %s", i, row.Kind())
		}
		d[i] = make([]float64, row.Len())
		for j := range d[i] {
			d[i][j] = row.At(j).AsNum()
		}
	}
	return d, nil
}

// StrList decodes a list-of-strings output value (exported for examples).
func StrList(v ocr.Value) ([]string, error) { return strList(v) }
