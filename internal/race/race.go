//go:build race

package race

// Enabled reports whether the race detector is on.
const Enabled = true
