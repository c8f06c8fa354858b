package darwin

import "time"

// CostTable precomputes suffix sums over a queue so TEU costs at
// Swiss-Prot scale (3.2·10⁹ pairs for N = 80,000) are computed in O(TEU
// entries) instead of O(pairs). It answers the same questions as
// CostModel.FixedTEUCost / RefineTEUCost, exactly.
type CostTable struct {
	Model CostModel
	n     int
	// sufLen[p] = Σ_{k ≥ p} lengths[queue[k]]
	sufLen []float64
}

// NewCostTable builds the table for a queue over the given entry lengths.
func NewCostTable(model CostModel, queue Queue, lengths []int) *CostTable {
	n := len(queue)
	t := &CostTable{Model: model, n: n, sufLen: make([]float64, n+1)}
	for p := n - 1; p >= 0; p-- {
		t.sufLen[p] = t.sufLen[p+1] + float64(lengths[queue[p]])
	}
	return t
}

// lenAt recovers the length of the entry at queue position p.
func (t *CostTable) lenAt(p int) float64 { return t.sufLen[p] - t.sufLen[p+1] }

// Pairs returns the number of pairs owned by positions [start, start+count).
func (t *CostTable) Pairs(start, count int) int64 {
	var pairs int64
	end := start + count
	if end > t.n {
		end = t.n
	}
	for p := start; p < end; p++ {
		pairs += int64(t.n - 1 - p)
	}
	return pairs
}

// cells returns Σ over owned pairs of len_a × len_b.
func (t *CostTable) cells(start, count int) float64 {
	var cells float64
	end := start + count
	if end > t.n {
		end = t.n
	}
	for p := start; p < end; p++ {
		cells += t.lenAt(p) * t.sufLen[p+1]
	}
	return cells
}

// FixedTEUCost matches CostModel.FixedTEUCost.
func (t *CostTable) FixedTEUCost(start, count int) time.Duration {
	cells := t.cells(start, count)
	pairs := t.Pairs(start, count)
	return t.Model.DarwinInit +
		time.Duration(cells*float64(t.Model.CellTime)) +
		time.Duration(pairs)*t.Model.PerPairOverhead
}

// RefineTEUCost matches CostModel.RefineTEUCost.
func (t *CostTable) RefineTEUCost(start, count int) time.Duration {
	cells := t.cells(start, count)
	pairSum := cells * float64(t.Model.CellTime) * t.Model.RefineFactor
	return t.Model.DarwinInit + time.Duration(pairSum*t.Model.MatchFraction)
}
