//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// Put, so pooled-object allocation budgets do not hold.
const raceEnabled = true
