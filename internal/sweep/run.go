package sweep

import (
	"fmt"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/metrics"
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
	// hook). Its OnResult is ignored — use Options.OnResult, which also sees
	// the cells restored from the store.
	Engine engine.Options
	// Store, when non-nil, is consulted for completed cells before running
	// and receives every fresh result as workers finish.
	Store *Store
	// Cache, when non-nil, memoizes workload generation per (kind, n, seed)
	// for the cells that actually run (ignored when Engine.Workloads is set).
	Cache *workload.Cache
	// OnResult, when non-nil, is invoked once per returned result in
	// strictly increasing Index order — restored and freshly computed cells
	// interleaved exactly as an uninterrupted solo run would stream them. A
	// static shard's unclaimed placeholders are not streamed. It runs on the
	// calling goroutine.
	OnResult func(engine.CellResult)
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

	// GroupsClaimed counts the cell groups this worker ran: the groups it
	// claimed through a lease, or a static shard's own share.
	GroupsClaimed int
	// GroupsSkipped counts the groups this worker did not run: completed or
	// freshly leased by peers, or outside its static share.
	GroupsSkipped int
	// LeasesReclaimed counts expired (or corrupt) leases this worker took
	// over — each one is a dead peer's group being re-run.
	LeasesReclaimed int
	// GroupsStolen counts the claimed groups that lay outside this worker's
	// static share (Shard.Steal): tail work taken over from the fleet once
	// the worker's own share was drained. Always <= GroupsClaimed.
	GroupsStolen int
	// LeaseErrs counts groups whose lease could not be claimed or created at
	// all (lease directory unwritable, I/O errors). Such groups run without
	// a lease — liveness and correctness never depend on lease arbitration,
	// only work-splitting does — so a positive count means possible
	// duplicated work; Warnings reports it.
	LeaseErrs int

	// Groups records what adaptive scheduling did to every cell group this
	// worker can account for (all of them unless statically sharded), in
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
// executes only the missing cells and still returns — and streams through
// OnResult — exactly what an uninterrupted run would.
//
// Options.Adaptive grows the grid: each cell group (cells that differ only
// in their seeds) keeps receiving derived seed replicas until its stopping
// rule fires, and the results come in round order — the input cells, then
// one extra replica per still-open group per round. Options.Shard makes the
// call one worker of a sharded sweep. The input picks the loop, never a
// flag:
//
//   - With Shard.Owner and a Store, the claim loop (runClaims) drains the
//     whole sweep cooperatively through leases, and every worker returns
//     the complete result set, byte-identical to a solo run.
//   - Otherwise the round loop (runRounds) runs it: solo, or as a static
//     shard (Shard.Shards > 1) that runs only its own groups and returns
//     foreign cells it cannot merge from the store with Err ==
//     ErrNotClaimed.
//
// Correctness never depends on lease arbitration: records are keyed by the
// cell's full identity and are bit-identical no matter which worker
// produced them, so a lost lease race can at worst duplicate work.
func Run(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	if opts.Shard.Owner != "" && opts.Store != nil {
		return runClaims(cells, opts)
	}
	return runRounds(cells, opts)
}

// runRounds is the round loop behind solo and statically sharded runs. Each
// round executes one batch of cells: the input cells first, then one extra
// seed replica per still-open group, groups in first-seen order, until the
// stopping rule closes every group. A fixed grid is exactly one round, and
// a solo fixed grid does no grouping work at all.
//
// A static shard keeps only its own groups. It merges foreign input
// replicas from a shared store cell by cell, and a foreign group's extra
// replicas only once the store holds the group's whole, closed trajectory.
func runRounds(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	ad := opts.Adaptive.withDefaults()
	adaptive := ad != (Adaptive{})
	static := opts.Shard.Shards > 1
	if !adaptive && !static {
		return execute(cells, opts, nil)
	}
	groups, pendingOf := groupCells(cells)
	obs.SweepGroups(len(groups))
	if static {
		for _, g := range groups {
			g.foreign = !opts.Shard.mine(g.key)
		}
	}
	skip := func(i int) bool { return pendingOf[i].foreign }

	userOnResult := opts.OnResult
	offset := 0
	if userOnResult != nil {
		opts.OnResult = func(r engine.CellResult) {
			r.Index += offset // round-local to global
			userOnResult(r)
		}
	}
	var (
		all   []engine.CellResult
		stats Stats
	)
	for pending := cells; len(pending) > 0; {
		offset = len(all)
		res, st := execute(pending, opts, skip)
		stats.Executed += st.Executed
		stats.Restored += st.Restored
		stats.AppendErrs += st.AppendErrs
		for i := range res {
			res[i].Index = offset + i
			pendingOf[i].observe(res[i])
		}
		if offset == 0 && adaptive && opts.Store != nil {
			for _, g := range groups {
				g.merged = g.foreign && g.eval(ad, opts.Store, nil, false).closed
			}
		}
		all = append(all, res...)
		if !adaptive {
			break
		}

		pending, pendingOf = nil, nil
		open, closed := 0, 0
		for _, g := range groups {
			if g.foreign && !g.merged {
				continue
			}
			hw := metrics.CI95HalfWidth(g.values)
			if ad.stopAt(g.seeds, g.values) {
				closed++
				obs.SweepAdaptive(g.key, g.seeds, hw, true)
				continue
			}
			open++
			obs.SweepAdaptive(g.key, g.seeds, hw, false)
			pending = append(pending, nextReplica(g.sample, g.maxSeed))
			pendingOf = append(pendingOf, g)
		}
		obsAdaptiveOpen.Set(float64(open))
		obsAdaptiveClosed.Set(float64(closed))
	}

	for _, g := range groups {
		if adaptive && (!g.foreign || g.merged) {
			stats.Groups = append(stats.Groups, g.info(ad, g.seeds, metrics.CI95HalfWidth(g.values)))
		}
		if !static {
			continue
		}
		if g.foreign {
			stats.GroupsSkipped++
		} else {
			stats.GroupsClaimed++
			obs.SweepGroupClaimed(false)
			obs.SweepGroupDone()
		}
	}
	return all, stats
}

// execute is one round of a sweep: engine.Run behind the store. Cells whose
// key is checkpointed are restored instead of re-run, and every fresh result
// is streamed to the store as its worker finishes. A missing cell for which
// skip (when non-nil) reports true is not run: it comes back as a
// placeholder with Err == ErrNotClaimed. OnResult sees every other cell in
// increasing Index order, restored and fresh interleaved exactly as an
// uninterrupted run streams them.
func execute(cells []engine.Cell, opts Options, skip func(i int) bool) ([]engine.CellResult, Stats) {
	n := len(cells)
	results := make([]engine.CellResult, n)
	var stats Stats

	keys := make([]string, n)
	missing := make([]int, 0, n)
	for i, c := range cells {
		keys[i] = c.Key()
		if opts.Store != nil {
			if st, ok := opts.Store.Lookup(keys[i]); ok {
				results[i] = engine.CellResult{
					Index:   i,
					Cell:    c,
					Result:  st.Result,
					Err:     st.Err,
					Elapsed: st.Elapsed,
				}
				stats.Restored++
				continue
			}
		}
		if skip != nil && skip(i) {
			results[i] = engine.CellResult{Index: i, Cell: c, Err: ErrNotClaimed}
			continue
		}
		missing = append(missing, i)
	}
	stats.Executed = len(missing)
	obsCellsExecuted.Add(int64(stats.Executed))
	obsCellsRestored.Add(int64(stats.Restored))
	obs.SweepCells(int64(stats.Executed), int64(stats.Restored))

	eopts := opts.Engine
	if eopts.Workloads == nil && opts.Cache != nil {
		eopts.Workloads = opts.Cache.Generate
	}

	// Stream restored and fresh results interleaved in global cell order:
	// everything before a fresh cell is either restored (pre-filled above) or
	// an earlier fresh cell (already streamed, since the engine reports the
	// missing subset in increasing order).
	emitted := 0
	emitThrough := func(limit int) {
		for ; emitted < limit; emitted++ {
			if opts.OnResult != nil && !isNotClaimed(results[emitted].Err) {
				opts.OnResult(results[emitted])
			}
		}
	}

	sub := make([]engine.Cell, len(missing))
	for k, i := range missing {
		sub[k] = cells[i]
	}
	eopts.OnResult = func(r engine.CellResult) {
		g := missing[r.Index]
		r.Index = g
		results[g] = r
		if opts.Store != nil {
			if err := opts.Store.Append(keys[g], r); err != nil {
				stats.AppendErrs++
			}
		}
		emitThrough(g + 1)
	}
	engine.Run(sub, eopts)
	emitThrough(n)
	return results, stats
}
