package darwin

import "time"

// Queue is the paper's "queue file": the ordered list of dataset entry
// indices taking part in an all-vs-all. Discarding ill-behaving entries
// and restarting with a subset is done by editing the queue, never the
// dataset.
type Queue []int

// QueueRange returns the queue of the n entries from index start on.
func QueueRange(start, n int) Queue {
	q := make(Queue, n)
	for i := range q {
		q[i] = start + i
	}
	return q
}

// Partition splits the queue into n contiguous task-execution units
// (TEUs, §3.3). n is clamped to [1, len(q)]. Chunk sizes differ by at
// most one.
func (q Queue) Partition(n int) []Queue {
	if n < 1 {
		n = 1
	}
	if n > len(q) {
		n = len(q)
	}
	parts := make([]Queue, 0, n)
	base, rem := len(q)/n, len(q)%n
	idx := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		parts = append(parts, q[idx:idx+size])
		idx += size
	}
	return parts
}

// PairsOwned reports the pairs a TEU computes: for each queue position p
// owned by the TEU, the pairs (q[p], q[k]) for all later positions k in
// the *full* queue. This is the paper's scheme ("align E_j against SP38",
// with "care taken to rule out redundant comparisons across different
// subprocesses"): each unordered pair is computed exactly once, by the
// TEU owning its earlier queue position.
//
// fn receives dataset entry indices (a, b); iteration stops early if fn
// returns false.
func PairsOwned(full Queue, ownedStart, ownedLen int, fn func(a, b int) bool) {
	for p := ownedStart; p < ownedStart+ownedLen && p < len(full); p++ {
		for k := p + 1; k < len(full); k++ {
			if !fn(full[p], full[k]) {
				return
			}
		}
	}
}

// CostModel converts alignment work into virtual CPU time for the cluster
// simulator. Defaults are calibrated so a 500-entry all-vs-all at mean
// length 360 costs ≈ 1000 CPU-seconds as a single TEU, matching the scale
// of the paper's Fig. 4 (ik-sun cluster).
type CostModel struct {
	// DarwinInit is the per-activity-invocation startup cost of the
	// external Darwin process ("a few seconds to schedule, distribute,
	// initiate, and merge"); it is what makes fine granularity wasteful.
	DarwinInit time.Duration
	// CellTime is the CPU time per dynamic-programming cell.
	CellTime time.Duration
	// RefineFactor multiplies pair cost for the PAM-refinement pass,
	// which re-aligns each *match* several times. It is charged only
	// on the fraction of pairs that match.
	RefineFactor float64
	// MatchFraction is the expected fraction of pairs that reach the
	// score threshold and therefore go through refinement.
	MatchFraction float64
	// PerPairOverhead is bookkeeping cost per pair independent of
	// length (I/O, match record handling).
	PerPairOverhead time.Duration
}

// DefaultCostModel returns the calibrated model used by the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		DarwinInit:      2 * time.Second,
		CellTime:        55 * time.Nanosecond,
		RefineFactor:    7, // golden-section search runs ≈ 7 full alignments
		MatchFraction:   0.05,
		PerPairOverhead: 30 * time.Microsecond,
	}
}

// PairCost returns the virtual CPU time to align one pair of the given
// lengths, including the amortized refinement expectation.
func (c CostModel) PairCost(lenA, lenB int) time.Duration {
	cells := float64(lenA) * float64(lenB)
	base := time.Duration(cells * float64(c.CellTime))
	refine := time.Duration(float64(base) * c.RefineFactor * c.MatchFraction)
	return base + refine + c.PerPairOverhead
}

// TEUCost returns the virtual CPU time of a whole TEU: Darwin startup plus
// every owned pair. lengths maps entry index to sequence length.
func (c CostModel) TEUCost(full Queue, ownedStart, ownedLen int, lengths []int) time.Duration {
	total := c.DarwinInit
	PairsOwned(full, ownedStart, ownedLen, func(a, b int) bool {
		total += c.PairCost(lengths[a], lengths[b])
		return true
	})
	return total
}

// FixedPairCost is the fast-pass cost of one pair (no refinement).
func (c CostModel) FixedPairCost(lenA, lenB int) time.Duration {
	cells := float64(lenA) * float64(lenB)
	return time.Duration(cells*float64(c.CellTime)) + c.PerPairOverhead
}

// RefinePairCost is the cost of refining one *matching* pair: the
// golden-section search re-aligns it RefineFactor times.
func (c CostModel) RefinePairCost(lenA, lenB int) time.Duration {
	cells := float64(lenA) * float64(lenB)
	return time.Duration(cells * float64(c.CellTime) * c.RefineFactor)
}

// FixedTEUCost is the fast-pass cost of a whole TEU: Darwin startup plus
// every owned pair.
func (c CostModel) FixedTEUCost(full Queue, ownedStart, ownedLen int, lengths []int) time.Duration {
	total := c.DarwinInit
	PairsOwned(full, ownedStart, ownedLen, func(a, b int) bool {
		total += c.FixedPairCost(lengths[a], lengths[b])
		return true
	})
	return total
}

// RefineTEUCost is the refinement cost of a TEU, charging the expected
// matching fraction of its pairs.
func (c CostModel) RefineTEUCost(full Queue, ownedStart, ownedLen int, lengths []int) time.Duration {
	var pairSum time.Duration
	PairsOwned(full, ownedStart, ownedLen, func(a, b int) bool {
		pairSum += c.RefinePairCost(lengths[a], lengths[b])
		return true
	})
	return c.DarwinInit + time.Duration(float64(pairSum)*c.MatchFraction)
}

// MergeCost is the cost of merging n match records into one file.
func (c CostModel) MergeCost(n int64) time.Duration {
	return c.DarwinInit + time.Duration(n)*c.PerPairOverhead
}

// Lengths extracts the per-entry lengths of a dataset, the only thing the
// cost model needs.
func (d *Dataset) Lengths() []int {
	ls := make([]int, d.Len())
	for i, s := range d.Entries {
		ls[i] = s.Len()
	}
	return ls
}
