package tower

import (
	"strings"
	"testing"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
)

func TestCodonTableComplete(t *testing.T) {
	if len(codonTable) != 64 {
		t.Fatalf("codon table has %d entries", len(codonTable))
	}
	stops := 0
	for _, aa := range codonTable {
		if aa == '*' {
			stops++
		}
	}
	if stops != 3 {
		t.Fatalf("%d stop codons, want 3", stops)
	}
}

func TestTranslate(t *testing.T) {
	p, err := Translate("ATGGCTTGTGATTAA") // M A C D stop
	if err != nil {
		t.Fatal(err)
	}
	if p != "MACD" {
		t.Fatalf("protein = %q", p)
	}
	if _, err := Translate("ATGXYZ"); err == nil {
		t.Fatal("invalid base accepted")
	}
	if _, err := Translate("ATG"); err == nil {
		t.Fatal("too-short gene accepted")
	}
}

func TestGenerateAndFindORFs(t *testing.T) {
	dna, planted := GenerateGenome(GenomeOptions{Genes: 5, MeanCodons: 80, Seed: 3, Related: true})
	if len(planted) != 5 {
		t.Fatalf("planted %d proteins", len(planted))
	}
	orfs := FindORFs(dna, 40)
	if len(orfs) < 5 {
		t.Fatalf("found %d ORFs, want ≥ 5", len(orfs))
	}
	// Every planted protein must be recovered by translating some ORF.
	found := map[string]bool{}
	for _, o := range orfs {
		found[translateORF(o.DNA)] = true
	}
	for i, p := range planted {
		if !found[p] {
			t.Fatalf("planted protein %d not recovered", i)
		}
	}
	// ORF invariants.
	for _, o := range orfs {
		if !strings.HasPrefix(o.DNA, "ATG") {
			t.Fatalf("ORF does not start with ATG: %q", o.DNA[:9])
		}
		if (o.End-o.Start)%3 != 0 {
			t.Fatalf("ORF length not a codon multiple")
		}
		if o.Start%3 != o.Frame {
			t.Fatalf("ORF frame mismatch: start %d frame %d", o.Start, o.Frame)
		}
	}
}

func TestFindORFsEmpty(t *testing.T) {
	if got := FindORFs("", 10); got != nil {
		t.Fatalf("ORFs in empty DNA: %v", got)
	}
	if got := FindORFs("TTTTTTTTT", 1); got != nil {
		t.Fatalf("ORFs without ATG: %v", got)
	}
}

func TestDistanceMatrixProperties(t *testing.T) {
	_, proteins := GenerateGenome(GenomeOptions{Genes: 4, MeanCodons: 60, Seed: 5, Related: true})
	d, err := DistanceMatrix(proteins, 60)
	if err != nil {
		t.Fatal(err)
	}
	n := len(proteins)
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %v", i, i, d[i][i])
		}
		for j := 0; j < n; j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if d[i][j] < 0 || d[i][j] > maxDistance {
				t.Fatalf("d[%d][%d] = %v out of range", i, j, d[i][j])
			}
		}
	}
	// Related genes must be measurably closer than the cap.
	if d[0][1] >= maxDistance {
		t.Fatalf("related pair at max distance: %v", d[0][1])
	}
}

func TestGlobalAlignAndMSA(t *testing.T) {
	proteins := []string{
		"MKVLITGGAGFIG",
		"MKVLITGAGFIG",  // one deletion
		"MKVLITGGAGWIG", // one substitution
	}
	d, err := DistanceMatrix(proteins, 10)
	if err != nil {
		t.Fatal(err)
	}
	msa, err := MultipleAlign(proteins, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(msa) != 3 {
		t.Fatalf("msa rows = %d", len(msa))
	}
	width := len(msa[0])
	for i, r := range msa {
		if len(r) != width {
			t.Fatalf("row %d width %d != %d", i, len(r), width)
		}
		// Removing gaps recovers the original.
		if strings.ReplaceAll(r, "-", "") != proteins[i] {
			t.Fatalf("row %d = %q does not respell %q", i, r, proteins[i])
		}
	}
	// Highly similar sequences: most columns gap-free.
	if countGapFree(msa) < width-3 {
		t.Fatalf("only %d/%d gap-free columns", countGapFree(msa), width)
	}
	if gapFraction(msa) > 0.2 {
		t.Fatalf("gap fraction %v", gapFraction(msa))
	}
}

func TestMSAEdgeCases(t *testing.T) {
	if msa, err := MultipleAlign(nil, nil); err != nil || msa != nil {
		t.Fatalf("empty MSA = %v, %v", msa, err)
	}
	msa, err := MultipleAlign([]string{"MKV"}, [][]float64{{0}})
	if err != nil || len(msa) != 1 || msa[0] != "MKV" {
		t.Fatalf("single MSA = %v, %v", msa, err)
	}
	if _, err := MultipleAlign([]string{"MK", "MV"}, [][]float64{{0}}); err == nil {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestNeighborJoining(t *testing.T) {
	// Additive tree: ((A,B),(C,D)) with known distances.
	d := [][]float64{
		{0, 4, 10, 10},
		{4, 0, 10, 10},
		{10, 10, 0, 4},
		{10, 10, 4, 0},
	}
	tree, err := NeighborJoining(d, []string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if ls := leaves(tree); len(ls) != 4 {
		t.Fatalf("tree has %d leaves", len(ls))
	}
	nwk := tree.Newick()
	// A and B must be siblings (and C,D): check the Newick groups them.
	if !strings.Contains(nwk, "A") || !strings.Contains(nwk, "D") {
		t.Fatalf("newick = %s", nwk)
	}
	// Structural check on the unrooted split {A,B} | {C,D}: some
	// internal node must have exactly {A,B} or exactly {C,D} under it,
	// and no node may pair a member of each side.
	var goodSplit, badSplit bool
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		ls := leaves(n)
		if len(ls) == 2 {
			set := map[int]bool{ls[0]: true, ls[1]: true}
			switch {
			case set[0] && set[1], set[2] && set[3]:
				goodSplit = true
			default:
				badSplit = true
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	if !goodSplit || badSplit {
		t.Fatalf("NJ failed to recover the {A,B}|{C,D} split: %s", nwk)
	}
}

func TestNeighborJoiningEdge(t *testing.T) {
	if _, err := NeighborJoining(nil, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	one, err := NeighborJoining([][]float64{{0}}, []string{"X"})
	if err != nil || !one.IsLeaf() || one.Name != "X" {
		t.Fatalf("1-leaf tree = %+v, %v", one, err)
	}
	two, err := NeighborJoining([][]float64{{0, 6}, {6, 0}}, nil)
	if err != nil || len(leaves(two)) != 2 {
		t.Fatalf("2-leaf tree = %+v, %v", two, err)
	}
	if _, err := NeighborJoining([][]float64{{0, 1}}, nil); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestFitchAncestral(t *testing.T) {
	msa := []string{"MKVA", "MKVA", "MRVA", "MRVG"}
	d := [][]float64{
		{0, 1, 5, 6},
		{1, 0, 5, 6},
		{5, 5, 0, 2},
		{6, 6, 2, 0},
	}
	tree, err := NeighborJoining(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	anc, err := FitchAncestral(tree, msa)
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 4 {
		t.Fatalf("ancestor = %q", anc)
	}
	if anc[0] != 'M' || anc[2] != 'V' {
		t.Fatalf("ancestor = %q, conserved columns lost", anc)
	}
	// Gap handling: a gap column resolves to a residue when possible.
	msaGap := []string{"M-A", "MKA", "MKA", "M-A"}
	anc2, err := FitchAncestral(tree, msaGap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(anc2, "M") || !strings.HasSuffix(anc2, "A") {
		t.Fatalf("gapped ancestor = %q", anc2)
	}
	if _, err := FitchAncestral(tree, []string{"AB", "A"}); err == nil {
		t.Fatal("ragged MSA accepted")
	}
}

func TestPredictSecondary(t *testing.T) {
	// Poly-alanine/glutamate: strong helix formers.
	ss, err := PredictSecondary("AEAEAEAEAEAEAEAE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ss, "H") {
		t.Fatalf("helix peptide predicted %q", ss)
	}
	// Poly-valine/isoleucine: strong sheet formers.
	ss2, err := PredictSecondary("VIVIVIVIVIVIVIVI")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ss2, "E") {
		t.Fatalf("sheet peptide predicted %q", ss2)
	}
	// Glycine/proline: breakers → coil.
	ss3, err := PredictSecondary("GPGPGPGPGPGP")
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(ss3, "HE") {
		t.Fatalf("breaker peptide predicted %q", ss3)
	}
	if out, err := PredictSecondary(""); err != nil || out != "" {
		t.Fatalf("empty = %q, %v", out, err)
	}
	if _, err := PredictSecondary("AX"); err == nil {
		t.Fatal("unknown residue accepted")
	}
	// Output length always matches input.
	ss4, _ := PredictSecondary("MKVLITGGAGFIGSAEAEAE")
	if len(ss4) != 20 {
		t.Fatalf("prediction length %d", len(ss4))
	}
}

func TestTemplatesParseAndValidate(t *testing.T) {
	ps, err := ocr.ParseFile(Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 8 {
		t.Fatalf("templates = %d, want 8", len(ps))
	}
	byName := map[string]*ocr.Process{}
	for _, p := range ps {
		byName[p.Name] = p
	}
	resolve := func(name string) (*ocr.Process, bool) {
		p, ok := byName[name]
		return p, ok
	}
	for _, p := range ps {
		if err := p.ValidateWithTemplates(resolve); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestTowerEndToEnd(t *testing.T) {
	// The whole tower through the engine, with every floor a
	// subprocess.
	dna, planted := GenerateGenome(GenomeOptions{Genes: 4, MeanCodons: 60, Seed: 7, Related: true})

	lib := core.NewLibrary()
	if err := Register(lib); err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewSimRuntime(core.SimConfig{Seed: 1, Spec: cluster.IkLinux(), Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(Source); err != nil {
		t.Fatal(err)
	}
	id, err := rt.Engine.StartProcess(TemplateName, Inputs(dna, 30, 60), core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != core.InstanceDone {
		t.Fatalf("tower instance: %s (%s)", in.Status, in.FailureReason)
	}

	proteins, err := StrList(in.Outputs["proteins"])
	if err != nil {
		t.Fatal(err)
	}
	if len(proteins) < len(planted) {
		t.Fatalf("proteins = %d, want ≥ %d", len(proteins), len(planted))
	}
	msa, err := StrList(in.Outputs["alignment"])
	if err != nil {
		t.Fatal(err)
	}
	if len(msa) != len(proteins) {
		t.Fatalf("alignment rows = %d", len(msa))
	}
	tree := in.Outputs["tree"].AsStr()
	if !strings.HasSuffix(tree, ";") || !strings.Contains(tree, "(") {
		t.Fatalf("tree = %q", tree)
	}
	anc := in.Outputs["ancestor"].AsStr()
	if len(anc) == 0 {
		t.Fatal("no ancestral sequence")
	}
	preds, err := StrList(in.Outputs["predictions"])
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(proteins) {
		t.Fatalf("predictions = %d", len(preds))
	}
	for i, ss := range preds {
		if len(ss) != len(proteins[i]) {
			t.Fatalf("prediction %d length %d != protein %d", i, len(ss), len(proteins[i]))
		}
	}
}

// countGapFree reports how many alignment columns are gap-free — a quality
// metric.
func countGapFree(msa []string) int {
	if len(msa) == 0 {
		return 0
	}
	n := 0
	for col := 0; col < len(msa[0]); col++ {
		free := true
		for _, row := range msa {
			if col >= len(row) || row[col] == Gap {
				free = false
				break
			}
		}
		if free {
			n++
		}
	}
	return n
}

// gapFraction reports the fraction of gap characters in an MSA.
func gapFraction(msa []string) float64 {
	var gaps, total int
	for _, r := range msa {
		total += len(r)
		gaps += strings.Count(r, string(rune(Gap)))
	}
	if total == 0 {
		return 0
	}
	return float64(gaps) / float64(total)
}

// leaves returns the leaf indices under n, in order.
func leaves(n *TreeNode) []int {
	if n.IsLeaf() {
		return []int{n.Leaf}
	}
	var out []int
	for _, c := range n.Children {
		out = append(out, leaves(c)...)
	}
	return out
}
