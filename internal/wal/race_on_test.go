//go:build race

package wal

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// Put, and the compiler does not rewrite append(s, make([]T, n)...) into an
// in-place grow, so slices.Grow allocates a temporary; allocation budgets
// that count either do not hold.
const raceEnabled = true
