// Package engine is a nondetsource fixture: its path ends in
// internal/engine, so it is treated as a determinism-contract package.
package engine

import (
	"math/rand"
	"os"
	"time"
)

func clock() int64 {
	t := time.Now()   // want "time.Now reads the wall clock"
	_ = time.Since(t) // want "time.Since reads the wall clock"
	return t.UnixNano()
}

func env() string {
	return os.Getenv("HOME") // want "os.Getenv reads the process environment"
}

func global() float64 {
	return rand.Float64() // want "rand.Float64 draws from the global generator"
}

func globalPerm(n int) []int {
	return rand.Perm(n) // want "rand.Perm draws from the global generator"
}

// seeded is the approved pattern: an explicit source, seeded from the cell.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// injected stores the clock function without calling it: the injection-point
// pattern (cf. FSBackend.now) is the remediation, not a violation.
type ticker struct{ now func() time.Time }

func injected() ticker {
	return ticker{now: time.Now}
}

// telemetry documents a wall-clock read that never feeds a pinned result.
func telemetry() time.Time {
	//gatherlint:ignore nondetsource wall-clock telemetry only, never folded into results
	return time.Now()
}
