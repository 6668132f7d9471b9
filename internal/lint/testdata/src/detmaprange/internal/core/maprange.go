// Package core is a detmaprange fixture: its path ends in internal/core, the
// local algorithm's package, so it is under the determinism contract too.
package core

// firstKey leaks map order into a decision input.
func firstKey(m map[int]float64) int {
	for k := range m { // want "range over map"
		return k
	}
	return -1
}
