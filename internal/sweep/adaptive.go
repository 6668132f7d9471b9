package sweep

import (
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
)

// Telemetry (internal/obs): open/closed group gauges, write-only per the
// one-way contract — the stopping rule consults only its own samples. The
// per-group CI state feeding /progress flows through obs.SweepAdaptive.
var (
	obsAdaptiveOpen   = obs.NewGauge("fatgather_sweep_adaptive_groups_open")
	obsAdaptiveClosed = obs.NewGauge("fatgather_sweep_adaptive_groups_closed")
)

// DefaultMaxSeeds is the per-group seed cap when Adaptive.MaxSeeds is unset.
const DefaultMaxSeeds = 32

// Adaptive configures adaptive seed scheduling: after the initial replicas,
// every cell group (same cell modulo seeds) keeps receiving one extra seed
// replica per round until the 95% confidence interval half-width of its
// event count over the group's successful runs falls to TargetCI or below,
// or the group reaches MaxSeeds replicas. The zero value turns adaptive
// scheduling off: the input cells run as a fixed grid.
type Adaptive struct {
	// TargetCI is the 95% CI half-width to reach, in events.
	TargetCI float64
	// MaxSeeds caps the replicas per group (default DefaultMaxSeeds). The
	// initial replicas count against the cap.
	MaxSeeds int
}

// withDefaults fills in the seed cap of an adaptive configuration. The zero
// value stays zero, and its stopAt closes every group at its input
// replicas: a fixed grid is an adaptive grid capped at what it was given.
func (a Adaptive) withDefaults() Adaptive {
	if a != (Adaptive{}) && a.MaxSeeds <= 0 {
		a.MaxSeeds = DefaultMaxSeeds
	}
	return a
}

// stopAt is the adaptive stopping rule, shared by the round loop and the
// claim loop so both walk the exact same deterministic trajectory: a group
// stops growing after seeds replicas when it hit the cap, when the CI over
// the successful runs' event counts reached the target, or when every
// replica so far failed to run (more seeds cannot tighten an interval that
// has no observations). values must be the event counts of the successful
// runs among exactly the first seeds replicas.
func (a Adaptive) stopAt(seeds int, values []float64) bool {
	if seeds >= a.MaxSeeds {
		return true
	}
	if metrics.CI95HalfWidth(values) <= a.TargetCI {
		return true
	}
	return len(values) == 0 && seeds >= 2
}

// nextReplica derives a group's next seed replica from its sample cell and
// the maximum workload seed consumed so far: workload seed maxSeed+1, and the
// adversary seed derived exactly like engine.Batch.Cells does. The full
// adversary label (not the bare name) feeds the seed stream: fault variants
// of one strategy must draw decorrelated schedules, and for fault-free cells
// label == name so historic replica seeds are preserved.
func nextReplica(sample engine.Cell, maxSeed int64) engine.Cell {
	next := sample
	next.WorkloadSeed = maxSeed + 1
	next.AdversarySeed = engine.DeriveSeed(next.WorkloadSeed,
		engine.StreamOf(string(next.Workload), next.AdversaryLabel(), next.AlgorithmName()),
		int64(next.N))
	return next
}

// GroupSeeds records what adaptive scheduling did to one cell group.
type GroupSeeds struct {
	// Key is the group key: the cell key with both seeds zeroed.
	Key string
	// Seeds is the number of seed replicas the group actually consumed.
	Seeds int
	// HalfWidth is the final 95% CI half-width of the event count over the
	// group's successful runs (+Inf with fewer than two successes).
	HalfWidth float64
	// Converged reports whether the group reached the target (false means it
	// stopped at the seed cap instead).
	Converged bool
}

// GroupKey collapses a cell to its group identity, GroupSeeds.Key: the cell
// key with the seed coordinates removed, so replicas of the same grid point
// share a group.
func GroupKey(c engine.Cell) string {
	c.WorkloadSeed = 0
	c.AdversarySeed = 0
	return c.Key()
}

// cellGroup is one cell group of a sweep: the cells that differ only in
// their seeds.
type cellGroup struct {
	key string
	// initial holds the group's input replicas, in input order; nextReplica
	// derives the extras from the first.
	initial []engine.Cell

	// final is the group's closed trajectory, results collected; nil while
	// the group is open.
	final *adaptiveProgress
}

// groupCells partitions cells into cell groups in first-seen (and hence
// deterministic) order; of[i] is the group of cells[i].
func groupCells(cells []engine.Cell) (groups, of []*cellGroup) {
	byKey := make(map[string]*cellGroup)
	of = make([]*cellGroup, len(cells))
	for i, c := range cells {
		key := GroupKey(c)
		g, ok := byKey[key]
		if !ok {
			g = &cellGroup{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.initial = append(g.initial, c)
		of[i] = g
	}
	return groups, of
}
