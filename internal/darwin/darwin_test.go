package darwin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestAlphabet(t *testing.T) {
	if NumAA != 20 {
		t.Fatalf("NumAA = %d", NumAA)
	}
	for i := 0; i < NumAA; i++ {
		if Index(Alphabet[i]) != i {
			t.Fatalf("Index(%c) = %d, want %d", Alphabet[i], Index(Alphabet[i]), i)
		}
	}
	if Index('a') != 0 || Index('y') != 19 {
		t.Fatal("lower-case index broken")
	}
	if Index('Z') != -1 || Index('*') != -1 {
		t.Fatal("invalid residues should map to -1")
	}
}

func TestParseSequence(t *testing.T) {
	s, err := ParseSequence(3, "P1", "ACDEfghi")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8 || s.String() != "ACDEFGHI" {
		t.Fatalf("round trip = %q", s.String())
	}
	if s.ID != 3 || s.Name != "P1" {
		t.Fatalf("metadata = %+v", s)
	}
	if _, err := ParseSequence(0, "bad", "AC!DE"); err == nil {
		t.Fatal("invalid residue accepted")
	}
}

func TestBackgroundFreqSumsToOne(t *testing.T) {
	var sum float64
	for i := 0; i < NumAA; i++ {
		sum += backgroundFreq[i]
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("background frequencies sum to %v", sum)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenOptions{N: 50, MeanLen: 80, Seed: 7})
	b := Generate(GenOptions{N: 50, MeanLen: 80, Seed: 7})
	if a.Len() != 50 || b.Len() != 50 {
		t.Fatalf("lens = %d/%d", a.Len(), b.Len())
	}
	for i := range a.Entries {
		if a.Entries[i].String() != b.Entries[i].String() {
			t.Fatalf("generation not deterministic at entry %d", i)
		}
	}
	c := Generate(GenOptions{N: 50, MeanLen: 80, Seed: 8})
	same := 0
	for i := range a.Entries {
		if a.Entries[i].String() == c.Entries[i].String() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds generated identical datasets")
	}
}

func TestGenerateProperties(t *testing.T) {
	d := Generate(GenOptions{N: 200, MeanLen: 60, MinLen: 10, Seed: 1})
	if d.PairCount() != 200*199/2 {
		t.Fatalf("PairCount = %d", d.PairCount())
	}
	for i, s := range d.Entries {
		if s.ID != i {
			t.Fatalf("entry %d has ID %d", i, s.ID)
		}
		if s.Len() < 1 {
			t.Fatalf("entry %d empty", i)
		}
		for _, r := range s.Residues {
			if int(r) >= NumAA {
				t.Fatalf("entry %d has residue %d out of range", i, r)
			}
		}
	}
	if d.TotalResidues() < 200*10 {
		t.Fatalf("TotalResidues = %d suspiciously small", d.TotalResidues())
	}
}

func TestMutationMatrixStochastic(t *testing.T) {
	for _, d := range []float64{1, 30, 120, 250} {
		m := MutationAt(d)
		for i := 0; i < NumAA; i++ {
			var sum float64
			for j := 0; j < NumAA; j++ {
				p := m.P[i][j]
				if p < -1e-12 || p > 1+1e-12 {
					t.Fatalf("PAM%v P[%d][%d] = %v out of [0,1]", d, i, j, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("PAM%v row %d sums to %v", d, i, sum)
			}
		}
	}
}

// expectedIdentity returns the probability that a residue pair at PAM
// distance d is identical, averaged over the background: ≈ 99% at PAM 1,
// decaying toward ≈ 6% at large distances.
func expectedIdentity(d float64) float64 {
	m := MutationAt(d)
	var p float64
	for i := 0; i < NumAA; i++ {
		p += backgroundFreq[i] * m.P[i][i]
	}
	return p
}

func TestPAM1Definition(t *testing.T) {
	// At distance 1, the expected identity across the background must
	// be 99% — the definition of the PAM unit.
	id := expectedIdentity(1)
	if math.Abs(id-0.99) > 1e-6 {
		t.Fatalf("expectedIdentity(1) = %v, want 0.99", id)
	}
}

func TestIdentityDecaysWithDistance(t *testing.T) {
	prev := 1.0
	for _, d := range []float64{1, 10, 40, 120, 250, 500} {
		id := expectedIdentity(d)
		if id >= prev {
			t.Fatalf("identity did not decay: %v at PAM %v (prev %v)", id, d, prev)
		}
		prev = id
	}
	// Very large distances approach the background self-identity
	// (sum f_i^2 ≈ 0.059).
	if id := expectedIdentity(2000); math.Abs(id-0.059) > 0.02 {
		t.Fatalf("asymptotic identity = %v, want ≈ 0.059", id)
	}
}

func TestMutationPower(t *testing.T) {
	// MutationAt(2) must equal MutationAt(1)^2.
	m1 := MutationAt(1)
	m2 := MutationAt(2)
	sq := mul(m1, m1)
	for i := 0; i < NumAA; i++ {
		for j := 0; j < NumAA; j++ {
			if math.Abs(m2.P[i][j]-sq.P[i][j]) > 1e-12 {
				t.Fatalf("PAM2 != PAM1^2 at [%d][%d]", i, j)
			}
		}
	}
}

func TestScoreMatrixDiagonalPositive(t *testing.T) {
	sm := ScoreAt(120)
	for i := 0; i < NumAA; i++ {
		if sm.S[i][i] <= 0 {
			t.Fatalf("self score of %c at PAM120 = %v, want > 0", Alphabet[i], sm.S[i][i])
		}
	}
	if sm.GapOpen >= 0 || sm.GapExtend >= 0 {
		t.Fatal("gap penalties must be negative")
	}
}

func TestScoreAtCachesAndClamps(t *testing.T) {
	a := ScoreAt(120)
	b := ScoreAt(120.2)
	if a != b {
		t.Fatal("ScoreAt not cached per rounded distance")
	}
	if ScoreAt(0).PAM != 1 || ScoreAt(-5).PAM != 1 {
		t.Fatal("ScoreAt should clamp to PAM 1")
	}
}

func TestAlignIdenticalSequences(t *testing.T) {
	s, _ := ParseSequence(0, "s", "MKVLITGGAGFIGSHLVDRLMAEGHEVIC")
	al := Align(s, s, ScoreAt(40))
	if al.Score <= 0 {
		t.Fatalf("self alignment score = %v", al.Score)
	}
	if al.Identity != 1 {
		t.Fatalf("self alignment identity = %v, want 1", al.Identity)
	}
	if al.Length != s.Len() {
		t.Fatalf("self alignment length = %d, want %d", al.Length, s.Len())
	}
	if al.AStart != 0 || al.AEnd != s.Len() {
		t.Fatalf("self alignment span = [%d,%d)", al.AStart, al.AEnd)
	}
}

func TestAlignFindsEmbeddedMotif(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	motif := "WWYYFFHHKKRRDDEE" // distinctive
	pre := randomSequence(rng, 40, 30)
	post := randomSequence(rng, 40, 30)
	a, _ := ParseSequence(0, "a", pre.String()+motif+post.String())
	b, _ := ParseSequence(1, "b", motif)
	al := Align(a, b, ScoreAt(40))
	if al.Identity < 0.9 {
		t.Fatalf("motif identity = %v", al.Identity)
	}
	if al.BEnd-al.BStart < len(motif)-2 {
		t.Fatalf("motif span = [%d,%d)", al.BStart, al.BEnd)
	}
	if al.AStart < pre.Len()-2 || al.AEnd > pre.Len()+len(motif)+2 {
		t.Fatalf("located motif at [%d,%d), expected near [%d,%d)", al.AStart, al.AEnd, pre.Len(), pre.Len()+len(motif))
	}
}

func TestAlignEmpty(t *testing.T) {
	e := &Sequence{}
	s, _ := ParseSequence(0, "s", "ACDE")
	al := Align(e, s, ScoreAt(100))
	if al.Score != 0 || al.Length != 0 {
		t.Fatalf("empty alignment = %+v", al)
	}
}

func TestScoreOnlyMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mut := NewMutator(50)
	sm := ScoreAt(80)
	for trial := 0; trial < 25; trial++ {
		a := randomSequence(rng, 60, 20)
		var b *Sequence
		if trial%2 == 0 {
			b = mut.Mutate(a, rng) // related pair
		} else {
			b = randomSequence(rng, 60, 20)
		}
		full := Align(a, b, sm)
		fast, cells := ScoreOnly(a, b, sm)
		if math.Abs(full.Score-fast) > 1e-6 {
			t.Fatalf("trial %d: Align=%v ScoreOnly=%v", trial, full.Score, fast)
		}
		if cells != int64(a.Len())*int64(b.Len()) {
			t.Fatalf("cells = %d", cells)
		}
	}
}

func TestRelatedScoresHigherThanUnrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mut := NewMutator(60)
	sm := ScoreAt(80)
	wins := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		a := randomSequence(rng, 120, 80)
		rel := mut.Mutate(a, rng)
		unrel := randomSequence(rng, 120, 80)
		sRel, _ := ScoreOnly(a, rel, sm)
		sUn, _ := ScoreOnly(a, unrel, sm)
		if sRel > sUn {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("related pair outscored unrelated only %d/%d times", wins, trials)
	}
}

func TestRefinePAMRecoversDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, truePAM := range []float64{30, 90, 160} {
		mut := NewMutator(truePAM)
		a := randomSequence(rng, 300, 250)
		b := mut.Mutate(a, rng)
		res := RefinePAM(a, b, 5, 250)
		if res.Evaluations < 3 {
			t.Fatalf("suspiciously few evaluations: %d", res.Evaluations)
		}
		// Golden-section on a noisy objective: accept a generous band.
		if math.Abs(res.PAM-truePAM) > truePAM*0.75+25 {
			t.Errorf("true PAM %v estimated as %v", truePAM, res.PAM)
		}
	}
}

func TestQueuePartition(t *testing.T) {
	q := QueueRange(0, 10)
	parts := q.Partition(3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Fatalf("partition covers %d entries", total)
	}
	if len(parts[0])-len(parts[2]) > 1 {
		t.Fatalf("unbalanced partition: %v", parts)
	}
	// Clamping.
	if got := len(q.Partition(0)); got != 1 {
		t.Fatalf("Partition(0) = %d parts", got)
	}
	if got := len(q.Partition(99)); got != 10 {
		t.Fatalf("Partition(99) = %d parts", got)
	}
}

func TestPairsOwnedCoversAllPairsOnce(t *testing.T) {
	const n = 17
	q := QueueRange(0, n)
	seen := make(map[[2]int]int)
	parts := q.Partition(4)
	start := 0
	for _, p := range parts {
		PairsOwned(q, start, len(p), func(a, b int) bool {
			if a >= b {
				t.Fatalf("pair (%d,%d) not ordered", a, b)
			}
			seen[[2]int{a, b}]++
			return true
		})
		start += len(p)
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("covered %d pairs, want %d", len(seen), n*(n-1)/2)
	}
	for pair, count := range seen {
		if count != 1 {
			t.Fatalf("pair %v computed %d times", pair, count)
		}
	}
}

func TestPairsOwnedEarlyStop(t *testing.T) {
	q := QueueRange(0, 10)
	calls := 0
	PairsOwned(q, 0, 10, func(a, b int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop after %d calls", calls)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	short := c.PairCost(50, 50)
	long := c.PairCost(500, 500)
	if long <= short {
		t.Fatal("longer pairs must cost more")
	}
	// TEU cost: init dominates tiny TEUs.
	lengths := make([]int, 10)
	for i := range lengths {
		lengths[i] = 100
	}
	q := QueueRange(0, 10)
	one := c.TEUCost(q, 0, 10, lengths)
	if one <= c.DarwinInit {
		t.Fatal("TEU cost must exceed init overhead")
	}
	// Splitting into 10 TEUs pays init 10 times; total CPU grows.
	var split time.Duration
	start := 0
	for _, p := range q.Partition(10) {
		split += c.TEUCost(q, start, len(p), lengths)
		start += len(p)
	}
	if split <= one+8*c.DarwinInit {
		t.Fatalf("10-way split cost %v vs single %v: init overhead missing", split, one)
	}
}

func TestFixedPAMPassFindsFamilies(t *testing.T) {
	d := Generate(GenOptions{N: 30, MeanLen: 80, Seed: 21, FamilyFraction: 0.5, FamilyPAM: 40})
	full := QueueRange(0, d.Len())
	matches := FixedPAMPass(d, full, 0, len(full), FixedPAMOptions{})
	if len(matches) == 0 {
		t.Fatal("no matches found in a dataset full of families")
	}
	for _, m := range matches {
		if m.A >= m.B {
			t.Fatalf("match %+v not ordered", m)
		}
		if m.Score < 80 {
			t.Fatalf("match below threshold: %+v", m)
		}
	}
}

func TestRefinePassFiltersAndAnnotates(t *testing.T) {
	d := Generate(GenOptions{N: 20, MeanLen: 70, Seed: 4, FamilyFraction: 0.5, FamilyPAM: 30})
	full := QueueRange(0, d.Len())
	q := FixedPAMPass(d, full, 0, len(full), FixedPAMOptions{})
	if len(q) == 0 {
		t.Skip("no first-pass matches with this seed")
	}
	r := RefinePass(d, q, RefineOptions{})
	if len(r) > len(q) {
		t.Fatal("refinement created matches")
	}
	for _, m := range r {
		if m.PAM < 5 || m.PAM > 250 {
			t.Fatalf("refined PAM out of range: %+v", m)
		}
		if m.Length == 0 {
			t.Fatalf("refined match has no alignment length: %+v", m)
		}
	}
}

func TestPartitionedEqualsSerial(t *testing.T) {
	// The invariant behind the whole granularity experiment: the union
	// of per-TEU results must be independent of the partitioning.
	d := Generate(GenOptions{N: 24, MeanLen: 60, Seed: 13, FamilyFraction: 0.5, FamilyPAM: 35})
	serial := AllVsAllSerial(d, FixedPAMOptions{}, RefineOptions{})

	full := QueueRange(0, d.Len())
	for _, n := range []int{2, 5, 24} {
		var sets [][]Match
		start := 0
		for _, p := range full.Partition(n) {
			q := FixedPAMPass(d, full, start, len(p), FixedPAMOptions{})
			sets = append(sets, RefinePass(d, q, RefineOptions{}))
			start += len(p)
		}
		merged := MergeMatches(sets...)
		if len(merged) != len(serial) {
			t.Fatalf("n=%d: %d matches, serial found %d", n, len(merged), len(serial))
		}
		for i := range merged {
			if merged[i].A != serial[i].A || merged[i].B != serial[i].B {
				t.Fatalf("n=%d: pair mismatch at %d: %+v vs %+v", n, i, merged[i], serial[i])
			}
			if math.Abs(merged[i].Score-serial[i].Score) > 1e-9 {
				t.Fatalf("n=%d: score mismatch at %d", n, i)
			}
		}
	}
}

func TestSortOrders(t *testing.T) {
	ms := []Match{
		{A: 2, B: 3, Score: 100, PAM: 90},
		{A: 0, B: 5, Score: 200, PAM: 30},
		{A: 0, B: 1, Score: 150, PAM: 30},
		{A: 1, B: 2, Score: 120, PAM: 200},
	}
	SortByEntry(ms)
	if ms[0].B != 1 || ms[1].B != 5 || ms[2].A != 1 || ms[3].A != 2 {
		t.Fatalf("SortByEntry = %+v", ms)
	}
	SortByPAM(ms)
	if ms[0].PAM != 30 || ms[0].Score != 200 { // tie on PAM broken by score desc
		t.Fatalf("SortByPAM = %+v", ms)
	}
	if ms[3].PAM != 200 {
		t.Fatalf("SortByPAM tail = %+v", ms)
	}
}

func TestMergeMatchesDedup(t *testing.T) {
	a := []Match{{A: 0, B: 1, Score: 100}}
	b := []Match{{A: 0, B: 1, Score: 150}, {A: 1, B: 2, Score: 90}}
	m := MergeMatches(a, b)
	if len(m) != 2 {
		t.Fatalf("merged = %+v", m)
	}
	if m[0].Score != 150 {
		t.Fatal("dedup kept the lower-scoring record")
	}
}

// Property: alignment score is symmetric and non-negative.
func TestAlignSymmetryProperty(t *testing.T) {
	sm := ScoreAt(100)
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := randomSequence(ra, 40, 10)
		b := randomSequence(rb, 40, 10)
		sab, _ := ScoreOnly(a, b, sm)
		sba, _ := ScoreOnly(b, a, sm)
		return sab >= 0 && math.Abs(sab-sba) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: self-alignment dominates: score(a,a) ≥ score(a,b) for random b.
func TestSelfAlignmentDominatesProperty(t *testing.T) {
	sm := ScoreAt(60)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSequence(rng, 50, 20)
		b := randomSequence(rng, 50, 20)
		saa, _ := ScoreOnly(a, a, sm)
		sab, _ := ScoreOnly(a, b, sm)
		return saa >= sab
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCostTableMatchesCostModel(t *testing.T) {
	// The closed-form cost table must agree with the O(pairs) model on
	// every partition of several queues (within per-pair rounding).
	c := DefaultCostModel()
	ds := Generate(GenOptions{N: 60, MeanLen: 120, Seed: 19})
	lengths := ds.Lengths()
	for _, qn := range []int{1, 7, 60} {
		q := make(Queue, qn)
		for i := range q {
			q[i] = i
		}
		table := NewCostTable(c, q, lengths)
		for _, n := range []int{1, 3, qn} {
			start := 0
			for _, p := range q.Partition(n) {
				slow := c.FixedTEUCost(q, start, len(p), lengths)
				fast := table.FixedTEUCost(start, len(p))
				if diff := slow - fast; diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("qn=%d n=%d start=%d: fixed %v vs %v", qn, n, start, slow, fast)
				}
				slowR := c.RefineTEUCost(q, start, len(p), lengths)
				fastR := table.RefineTEUCost(start, len(p))
				if diff := slowR - fastR; diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("qn=%d n=%d start=%d: refine %v vs %v", qn, n, start, slowR, fastR)
				}
				// Pair counts agree exactly.
				var pairs int64
				PairsOwned(q, start, len(p), func(a, b int) bool { pairs++; return true })
				if got := table.Pairs(start, len(p)); got != pairs {
					t.Fatalf("pairs %d vs %d", got, pairs)
				}
				start += len(p)
			}
		}
	}
}

func TestCostTableTotals(t *testing.T) {
	c := DefaultCostModel()
	ds := Generate(GenOptions{N: 25, MeanLen: 80, Seed: 20})
	q := QueueRange(0, ds.Len())
	table := NewCostTable(c, q, ds.Lengths())
	// Out-of-range clamps.
	if table.Pairs(20, 100) != table.Pairs(20, 5) {
		t.Fatal("Pairs does not clamp")
	}
}
