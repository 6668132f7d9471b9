package sweep

import (
	"fmt"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/workload"
)

// Telemetry (internal/obs): write-only handles, one-way contract — the
// resumable layer counts what it executed vs restored but never reads the
// counters back.
var (
	obsCellsExecuted = obs.NewCounter("fatgather_sweep_cells_executed_total")
	obsCellsRestored = obs.NewCounter("fatgather_sweep_cells_restored_total")
)

// Options configures a sweep run.
type Options struct {
	// Engine is the underlying engine configuration (worker count, workload
	// hook). Its OnResult is ignored. When its Workloads hook is nil, Run
	// memoizes workload generation per (kind, n, seed) for the call.
	Engine engine.Options
	// Store, when non-nil, is consulted for completed cells before running
	// and receives every fresh result as workers finish.
	Store *Store
	// Adaptive configures adaptive seed scheduling; the zero value runs the
	// input cells as a fixed grid.
	Adaptive Adaptive
	// Shard makes the run one worker of a sharded sweep; the zero value is a
	// solo run.
	Shard Shard
}

// Stats reports what a sweep run actually did.
type Stats struct {
	// Executed is the number of cells that ran in this process.
	Executed int
	// Restored is the number of cells served from the store.
	Restored int
	// AppendErrs counts results that could not be checkpointed (the run
	// continues; those cells simply re-run on resume).
	AppendErrs int

	// The group counters below stay zero in a solo run.

	// GroupsClaimed counts the cell groups this worker claimed and ran.
	GroupsClaimed int
	// GroupsSkipped counts the groups this worker did not run: completed or
	// freshly leased by peers.
	GroupsSkipped int
	// LeasesReclaimed counts expired (or corrupt) leases this worker took
	// over — each one is a dead peer's group being re-run.
	LeasesReclaimed int
	// LeaseErrs counts groups whose lease could not be claimed or created at
	// all (lease directory unwritable, I/O errors). Such groups run without
	// a lease — liveness and correctness never depend on lease arbitration,
	// only work-splitting does — so a positive count means possible
	// duplicated work; Warnings reports it.
	LeaseErrs int

	// Groups records what adaptive scheduling did to every cell group, in
	// first-seen order. It is nil for fixed grids.
	Groups []GroupSeeds
}

// Warnings renders the non-fatal problems of a run — checkpoint appends that
// failed and groups that ran without a lease — as one line each, for callers
// to surface.
func (s Stats) Warnings() []string {
	var out []string
	if s.AppendErrs > 0 {
		out = append(out, fmt.Sprintf("sweep: %d results could not be checkpointed and will re-run on resume", s.AppendErrs))
	}
	if s.LeaseErrs > 0 {
		out = append(out, fmt.Sprintf("sweep: %d cell groups ran without a lease (lease dir trouble); peers may duplicate that work", s.LeaseErrs))
	}
	return out
}

// Run executes the cells like engine.Run, behind the store: cells whose key
// is already checkpointed are restored instead of re-run, and every fresh
// result is streamed to the store as its worker finishes, so a resumed run
// executes only the missing cells and still returns exactly what an
// uninterrupted run would.
//
// Options.Adaptive grows the grid: each cell group (cells that differ only
// in their seeds) keeps receiving derived seed replicas until its stopping
// rule fires, and the results come in round order — the input cells, then
// one extra replica per still-open group per round. Input cells keep their
// input position as Index; extra replicas are numbered on from len(cells).
// Options.Shard makes the call one worker of a fleet. The input picks the
// loop, never a flag:
//
//   - With Shard.Owner and a Store, the claim loop (runClaims) drains the
//     whole sweep cooperatively through leases, and every worker returns
//     the complete result set, byte-identical to a solo run.
//   - Otherwise the round loop (runRounds) runs it solo.
//
// Both loops walk a group's seed trajectory with the same cellGroup.eval
// and lay out their results with the same assemble.
//
// Correctness never depends on lease arbitration: records are keyed by the
// cell's full identity and are bit-identical no matter which worker
// produced them, so a lost lease race can at worst duplicate work.
func Run(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	if opts.Engine.Workloads == nil {
		opts.Engine.Workloads = workload.NewCache().Generate
	}
	if opts.Shard.Owner != "" && opts.Store != nil {
		return runClaims(cells, opts)
	}
	return runRounds(cells, opts)
}

// runRounds is the round loop behind solo runs. Each round executes one
// batch of cells: the input cells first, then one extra seed replica per
// still-open group, groups in first-seen order, until the stopping rule
// closes every group. A fixed grid is exactly one round, and does no
// grouping work at all.
func runRounds(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	ad := opts.Adaptive.withDefaults()
	if ad == (Adaptive{}) {
		return execute(cells, opts)
	}
	groups, of := groupCells(cells)
	obs.SweepGroups(len(groups))
	h := history{store: opts.Store, local: make(map[string]Stored)}

	var stats Stats
	execRestored := 0
	for pending := cells; len(pending) > 0; {
		res, st := execute(pending, opts)
		stats.Executed += st.Executed
		stats.AppendErrs += st.AppendErrs
		execRestored += st.Restored
		h.remember(res)

		pending = nil
		open, closed := 0, 0
		for _, g := range groups {
			if g.final != nil {
				closed++
				continue
			}
			pr := g.eval(ad, h, false)
			obs.SweepAdaptive(g.key, pr.seeds, pr.halfWidth, pr.closed)
			if pr.closed {
				pr = g.eval(ad, h, true)
				g.final = &pr
				closed++
				continue
			}
			open++
			pending = append(pending, pr.pending...)
		}
		obsAdaptiveOpen.Set(float64(open))
		obsAdaptiveClosed.Set(float64(closed))
	}

	out := assemble(groups, of, ad, &stats, execRestored)
	return out, stats
}

// execute is one round of a sweep: engine.Run behind the store. Cells whose
// key is checkpointed are restored instead of re-run, and every fresh result
// is streamed to the store as its worker finishes. The results come back in
// cell order, Index the position in cells.
func execute(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	n := len(cells)
	results := make([]engine.CellResult, n)
	var stats Stats

	keys := make([]string, n)
	missing := make([]int, 0, n)
	for i, c := range cells {
		keys[i] = c.Key()
		if opts.Store != nil {
			if st, ok := opts.Store.Lookup(keys[i]); ok {
				results[i] = st.result(i, c)
				stats.Restored++
				continue
			}
		}
		missing = append(missing, i)
	}
	stats.Executed = len(missing)
	obsCellsExecuted.Add(int64(stats.Executed))
	obsCellsRestored.Add(int64(stats.Restored))
	obs.SweepCells(int64(stats.Executed), int64(stats.Restored))

	sub := make([]engine.Cell, len(missing))
	for k, i := range missing {
		sub[k] = cells[i]
	}
	eopts := opts.Engine
	eopts.OnResult = func(r engine.CellResult) {
		g := missing[r.Index]
		r.Index = g
		results[g] = r
		if opts.Store != nil {
			if err := opts.Store.Append(keys[g], r); err != nil {
				stats.AppendErrs++
			}
		}
	}
	engine.Run(sub, eopts)
	return results, stats
}
