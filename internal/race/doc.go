// Package race reports whether the program was built with the race
// detector. Allocation budgets measured through a sync.Pool consult it: the
// race detector makes the pool drop a random share of what is put back, so
// those counts are not meaningful under -race.
package race
