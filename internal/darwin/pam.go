package darwin

import (
	"math"
	"math/rand"
	"sync"
)

// MutationMatrix is a row-stochastic 20×20 matrix: entry [i][j] is the
// probability that residue i is observed as residue j after some amount of
// evolution. MutationAt(1) is the 1-PAM matrix (1% expected change).
type MutationMatrix struct {
	P [NumAA][NumAA]float64
	// cum caches row-wise cumulative sums for sampling.
	cum [NumAA][NumAA]float64
}

// aaClass groups amino acids by physico-chemical similarity; substitutions
// within a class are more likely. This synthetic affinity structure
// replaces the (non-redistributable) Dayhoff counts; the resulting matrix
// family has the same mathematical shape (row-stochastic, detailed-balance
// with the background frequencies, powered to larger distances).
var aaClass = map[byte]int{
	'A': 0, 'G': 0, 'S': 0, 'T': 0, 'P': 0, // small / polar-ish
	'C': 1,                         // cysteine, its own world
	'D': 2, 'E': 2, 'N': 2, 'Q': 2, // acidic + amides
	'K': 3, 'R': 3, 'H': 3, // basic
	'I': 4, 'L': 4, 'M': 4, 'V': 4, // aliphatic hydrophobic
	'F': 5, 'W': 5, 'Y': 5, // aromatic
}

// classAffinity is the relative substitution propensity between classes.
const (
	sameClassAffinity  = 6.0
	crossClassAffinity = 1.0
)

// pam1 is the generated 1-PAM matrix, built once.
var pam1 = buildPAM1()

func buildPAM1() *MutationMatrix {
	var m MutationMatrix
	// Raw exchangeability: symmetric affinity × target background
	// frequency (a simple reversible model).
	var raw [NumAA][NumAA]float64
	for i := 0; i < NumAA; i++ {
		ci := aaClass[Alphabet[i]]
		for j := 0; j < NumAA; j++ {
			if i == j {
				continue
			}
			cj := aaClass[Alphabet[j]]
			aff := crossClassAffinity
			if ci == cj {
				aff = sameClassAffinity
			}
			raw[i][j] = aff * backgroundFreq[j]
		}
	}
	// Scale each row so the expected change per position across the
	// background distribution is exactly 1% (the definition of 1 PAM).
	var totalChange float64
	var rowSum [NumAA]float64
	for i := 0; i < NumAA; i++ {
		for j := 0; j < NumAA; j++ {
			rowSum[i] += raw[i][j]
		}
		totalChange += backgroundFreq[i] * rowSum[i]
	}
	scale := 0.01 / totalChange
	for i := 0; i < NumAA; i++ {
		var off float64
		for j := 0; j < NumAA; j++ {
			if i != j {
				m.P[i][j] = raw[i][j] * scale
				off += m.P[i][j]
			}
		}
		m.P[i][i] = 1 - off
	}
	m.fillCum()
	return &m
}

func (m *MutationMatrix) fillCum() {
	for i := 0; i < NumAA; i++ {
		var c float64
		for j := 0; j < NumAA; j++ {
			c += m.P[i][j]
			m.cum[i][j] = c
		}
		m.cum[i][NumAA-1] = 1 // guard against rounding
	}
}

// mul returns a × b.
func mul(a, b *MutationMatrix) *MutationMatrix {
	var out MutationMatrix
	for i := 0; i < NumAA; i++ {
		for k := 0; k < NumAA; k++ {
			aik := a.P[i][k]
			if aik == 0 {
				continue
			}
			for j := 0; j < NumAA; j++ {
				out.P[i][j] += aik * b.P[k][j]
			}
		}
	}
	out.fillCum()
	return &out
}

// identityMatrix returns the 0-PAM matrix.
func identityMatrix() *MutationMatrix {
	var m MutationMatrix
	for i := 0; i < NumAA; i++ {
		m.P[i][i] = 1
	}
	m.fillCum()
	return &m
}

var (
	mutCacheMu sync.Mutex
	mutCache   = map[int]*MutationMatrix{}
)

// MutationAt returns the mutation matrix at PAM distance d (rounded to the
// nearest integer ≥ 0), computed by fast exponentiation of the 1-PAM
// matrix and cached.
func MutationAt(d float64) *MutationMatrix {
	n := int(math.Round(d))
	if n < 0 {
		n = 0
	}
	mutCacheMu.Lock()
	defer mutCacheMu.Unlock()
	if m, ok := mutCache[n]; ok {
		return m
	}
	result := identityMatrix()
	base := pam1
	for k := n; k > 0; k >>= 1 {
		if k&1 == 1 {
			result = mul(result, base)
		}
		if k > 1 {
			base = mul(base, base)
		}
	}
	mutCache[n] = result
	return result
}

// Sample draws the residue that i evolves into.
func (m *MutationMatrix) Sample(i int, rng *rand.Rand) int {
	x := rng.Float64()
	row := &m.cum[i]
	for j := 0; j < NumAA; j++ {
		if x < row[j] {
			return j
		}
	}
	return NumAA - 1
}

// ScoreMatrix is a log-odds substitution scoring matrix in tenth-bits
// (×10 log10 odds, the GCB convention), derived from a mutation matrix.
type ScoreMatrix struct {
	// PAM is the evolutionary distance the matrix models.
	PAM float64
	S   [NumAA][NumAA]float64
	// GapOpen and GapExtend are the affine penalties (negative).
	GapOpen   float64
	GapExtend float64
}

var (
	scoreCacheMu sync.Mutex
	scoreCache   = map[int]*ScoreMatrix{}
)

// ScoreAt returns the scoring matrix for PAM distance d (cached per
// rounded distance).
func ScoreAt(d float64) *ScoreMatrix {
	n := int(math.Round(d))
	if n < 1 {
		n = 1
	}
	scoreCacheMu.Lock()
	if sm, ok := scoreCache[n]; ok {
		scoreCacheMu.Unlock()
		return sm
	}
	scoreCacheMu.Unlock()

	m := MutationAt(float64(n))
	sm := &ScoreMatrix{PAM: float64(n)}
	for i := 0; i < NumAA; i++ {
		for j := 0; j < NumAA; j++ {
			odds := m.P[i][j] / backgroundFreq[j]
			if odds < 1e-10 {
				odds = 1e-10
			}
			sm.S[i][j] = 10 * math.Log10(odds)
		}
	}
	// Affine gap penalties in the GCB style: opening gets cheaper as
	// distance grows (gaps are more plausible between diverged
	// sequences), extension stays mild.
	sm.GapOpen = -(26 - 5*math.Log10(float64(n)))
	sm.GapExtend = -1.2

	scoreCacheMu.Lock()
	scoreCache[n] = sm
	scoreCacheMu.Unlock()
	return sm
}
