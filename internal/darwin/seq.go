// Package darwin is the bioinformatics substrate of the reproduction.
//
// The paper runs all computational steps through Darwin (Gonnet, Hallett,
// Korostensky, Bernardin: "Darwin version 2.0, an interpreted computer
// language for the biosciences"), using a dynamic-programming local
// alignment with PAM-family scoring matrices and affine gap penalties
// (Smith & Waterman 1981; Gonnet, Cohen & Benner 1992). Darwin is not
// redistributable, so this package implements the same algorithms from
// scratch:
//
//   - protein sequences and a seeded synthetic Swiss-Prot-like generator,
//   - a PAM scoring-matrix family built by powering a 1-PAM mutation
//     matrix,
//   - Smith–Waterman local alignment with affine gaps (Gotoh's algorithm),
//   - two-phase all-vs-all matching: a fast fixed-PAM pass followed by a
//     refinement that searches for the PAM distance maximizing similarity,
//   - a calibrated cost model so the cluster simulator can charge virtual
//     CPU time for alignments without running them.
package darwin

import (
	"fmt"
	"math/rand"
	"strings"
)

// Alphabet is the 20 standard amino acids in alphabetical one-letter order.
const Alphabet = "ACDEFGHIKLMNPQRSTVWY"

// NumAA is the alphabet size.
const NumAA = len(Alphabet)

// aaIndex maps an amino-acid letter to its alphabet position, or -1.
var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i := 0; i < NumAA; i++ {
		aaIndex[Alphabet[i]] = int8(i)
		aaIndex[Alphabet[i]+'a'-'A'] = int8(i)
	}
}

// Index returns the alphabet position of residue c, or -1 when c is not an
// amino-acid letter.
func Index(c byte) int { return int(aaIndex[c]) }

// Sequence is one protein entry of a dataset.
type Sequence struct {
	ID       int    // position in the dataset, 0-based (the paper's entry index)
	Name     string // accession-like label
	Residues []byte // indices into Alphabet (NOT letters)
}

// Len returns the sequence length.
func (s *Sequence) Len() int { return len(s.Residues) }

// String renders the residues as one-letter amino-acid codes.
func (s *Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s.Residues))
	for _, r := range s.Residues {
		sb.WriteByte(Alphabet[r])
	}
	return sb.String()
}

// ParseSequence builds a Sequence from one-letter codes. Unknown letters
// are an error.
func ParseSequence(id int, name, letters string) (*Sequence, error) {
	res := make([]byte, 0, len(letters))
	for i := 0; i < len(letters); i++ {
		idx := Index(letters[i])
		if idx < 0 {
			return nil, fmt.Errorf("darwin: sequence %q has invalid residue %q at %d", name, letters[i], i)
		}
		res = append(res, byte(idx))
	}
	return &Sequence{ID: id, Name: name, Residues: res}, nil
}

// Dataset is an ordered collection of sequences — the stand-in for a
// Swiss-Prot release.
type Dataset struct {
	Name    string
	Entries []*Sequence
}

// Len returns the number of entries.
func (d *Dataset) Len() int { return len(d.Entries) }

// TotalResidues returns the summed length of all entries.
func (d *Dataset) TotalResidues() int {
	var n int
	for _, s := range d.Entries {
		n += s.Len()
	}
	return n
}

// PairCount returns the number of distinct unordered pairs — the paper's
// "approximately 3.2·10^9 individual pairwise alignments" for N = 80,000.
func (d *Dataset) PairCount() int64 {
	n := int64(d.Len())
	return n * (n - 1) / 2
}

// backgroundFreq holds approximate Swiss-Prot amino-acid frequencies
// (Robinson & Robinson style), indexed like Alphabet.
var backgroundFreq = normalizeFreqs([NumAA]float64{
	0.0826, // A
	0.0137, // C
	0.0546, // D
	0.0675, // E
	0.0386, // F
	0.0708, // G
	0.0227, // H
	0.0593, // I
	0.0582, // K
	0.0965, // L
	0.0241, // M
	0.0406, // N
	0.0472, // P
	0.0393, // Q
	0.0553, // R
	0.0660, // S
	0.0535, // T
	0.0687, // V
	0.0110, // W
	0.0292, // Y
})

// normalizeFreqs scales the table to sum to exactly 1: the PAM unit
// definition (1% expected change per position) depends on it.
func normalizeFreqs(f [NumAA]float64) [NumAA]float64 {
	var sum float64
	for _, x := range f {
		sum += x
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

// GenOptions configure the synthetic dataset generator.
type GenOptions struct {
	// N is the number of entries.
	N int
	// MeanLen is the mean sequence length (Swiss-Prot's is ≈ 360;
	// tests use shorter). Lengths follow a clamped geometric-ish
	// distribution around the mean.
	MeanLen int
	// MinLen clamps the shortest sequence. Default 20.
	MinLen int
	// FamilyFraction is the fraction of entries generated as mutated
	// copies of earlier entries, so that the all-vs-all finds genuine
	// matches. Default 0.3.
	FamilyFraction float64
	// FamilyPAM is the mutation distance applied to family copies.
	// Default 60 (clearly related, clearly diverged).
	FamilyPAM float64
	// Seed makes generation deterministic.
	Seed int64
}

func (o *GenOptions) fill() {
	if o.MeanLen <= 0 {
		o.MeanLen = 360
	}
	if o.MinLen <= 0 {
		o.MinLen = 20
	}
	if o.FamilyFraction == 0 {
		o.FamilyFraction = 0.3
	}
	if o.FamilyPAM == 0 {
		o.FamilyPAM = 60
	}
}

// Generate produces a deterministic synthetic dataset. A fraction of the
// entries are evolutionary relatives of earlier entries (point mutations
// plus short indels at the configured PAM distance); the rest are drawn
// i.i.d. from the background frequencies.
func Generate(opts GenOptions) *Dataset {
	opts.fill()
	rng := rand.New(rand.NewSource(opts.Seed))
	d := &Dataset{Name: fmt.Sprintf("synthetic-%d", opts.N)}
	mutator := NewMutator(opts.FamilyPAM)
	for i := 0; i < opts.N; i++ {
		var seq *Sequence
		if i > 0 && rng.Float64() < opts.FamilyFraction {
			parent := d.Entries[rng.Intn(i)]
			seq = mutator.Mutate(parent, rng)
		} else {
			seq = randomSequence(rng, opts.MeanLen, opts.MinLen)
		}
		seq.ID = i
		seq.Name = fmt.Sprintf("SYN%05d", i)
		d.Entries = append(d.Entries, seq)
	}
	return d
}

// randomSequence draws a fresh sequence from the background distribution.
func randomSequence(rng *rand.Rand, meanLen, minLen int) *Sequence {
	// Length: exponential around the mean, clamped.
	ln := minLen + int(rng.ExpFloat64()*float64(meanLen-minLen))
	if ln > 5*meanLen {
		ln = 5 * meanLen
	}
	res := make([]byte, ln)
	for i := range res {
		res[i] = byte(sampleAA(rng))
	}
	return &Sequence{Residues: res}
}

// sampleAA draws a residue index from the background frequencies.
func sampleAA(rng *rand.Rand) int {
	x := rng.Float64()
	for i, f := range backgroundFreq {
		x -= f
		if x < 0 {
			return i
		}
	}
	return NumAA - 1
}

// Mutator applies evolution at a fixed PAM distance using the package's
// mutation matrix.
type Mutator struct {
	pam   float64
	probs *MutationMatrix // transition probabilities at distance pam
}

// NewMutator returns a mutator for the given PAM distance.
func NewMutator(pam float64) *Mutator {
	return &Mutator{pam: pam, probs: MutationAt(pam)}
}

// Mutate returns an evolved copy of s: every residue is substituted
// according to the PAM transition probabilities, and occasional short
// insertions/deletions are applied.
func (m *Mutator) Mutate(s *Sequence, rng *rand.Rand) *Sequence {
	out := make([]byte, 0, s.Len()+8)
	// Indel rate grows with distance but stays modest.
	indelRate := 0.0005 * m.pam
	for _, r := range s.Residues {
		if rng.Float64() < indelRate {
			if rng.Intn(2) == 0 {
				continue // deletion
			}
			// insertion of 1-3 background residues
			for k := rng.Intn(3) + 1; k > 0; k-- {
				out = append(out, byte(sampleAA(rng)))
			}
		}
		out = append(out, byte(m.probs.Sample(int(r), rng)))
	}
	if len(out) == 0 {
		out = append(out, byte(sampleAA(rng)))
	}
	return &Sequence{Residues: out}
}
