// Package sim is an obsread fixture: its path ends in internal/sim, so the
// one-way telemetry contract applies — it may write to the real internal/obs
// registry but never read it back.
package sim

import (
	"io"

	"github.com/fatgather/fatgather/internal/obs"
)

var (
	events   = obs.NewCounter("fixture_events_total", obs.L("kind", "step"))
	inflight = obs.NewGauge("fixture_inflight")
	latency  = obs.NewHistogram("fixture_seconds")
)

// write exercises the approved direction: instruments only absorb values.
func write(seconds float64) {
	events.Inc()
	events.Add(3)
	inflight.Set(1)
	inflight.Add(-1)
	latency.Observe(seconds)
	obs.Warnf("sim", "corrupt record %d skipped", 7)
	obs.SweepBegin("E5", "w1")
	obs.SweepGroups(10)
	obs.SweepGroupClaimed()
	obs.SweepCells(4, 2)
	obs.SweepAdaptive("g", 3, 0.5, false)
	obs.SweepGroupDone()
	obs.SweepEnd()
}

// read violates the one-way contract in every clause: each call pulls
// telemetry state back into a result-producing package.
func read(w io.Writer) int64 {
	v := events.Value()                // want "obs read API Value"
	_ = obs.Default.Snapshot()         // want "obs read API Snapshot"
	_ = obs.ProgressSnapshot()         // want "obs read API ProgressSnapshot"
	_ = obs.Default.WritePrometheus(w) // want "obs read API WritePrometheus"
	_ = obs.Handler()                  // want "obs read API Handler"
	return v
}

// steering documents the directive escape hatch (and the hazard the analyzer
// exists for: branching on telemetry).
func steering() bool {
	//gatherlint:ignore obsread fixture documents the directive escape hatch
	return inflight.Value() > 0
}
