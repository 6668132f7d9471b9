package fatgather

import (
	"fmt"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
	"github.com/fatgather/fatgather/internal/workload"
)

// BatchOptions configures RunBatch: the cross product of Workloads, Ns,
// Adversaries and Algorithms is run for Seeds consecutive seeds starting at
// SeedStart, fanned out over a worker pool.
type BatchOptions struct {
	// Workloads defaults to {WorkloadClustered}.
	Workloads []Workload
	// Ns defaults to {8}.
	Ns []int
	// Adversaries defaults to {AdversaryRandomAsync}. Entries may be full
	// adversary spec strings ("crash(2)", "fair+noise=0.1"), so fault
	// injection rides the batch grid like any other axis.
	Adversaries []AdversaryName
	// Algorithms defaults to {AlgorithmPaper}.
	Algorithms []AlgorithmName
	// Seeds is the number of seeds per grid point (default 5); workload
	// seeds are SeedStart, SeedStart+1, ... (SeedStart defaults to 1).
	// Adversary randomness is derived per cell from the seed and the cell's
	// coordinates, so every cell is reproducible in isolation.
	Seeds     int
	SeedStart int64
	// Delta is the liveness minimum-progress distance (default 0.05).
	Delta float64
	// MaxEvents bounds each run (default 200000 events).
	MaxEvents int
	// StopWhenGathered stops each run as soon as the geometric goal holds.
	StopWhenGathered bool
	// Workers sizes the worker pool; <=0 means one worker per CPU core.
	// Results are bit-identical for every worker count.
	Workers int
	// SweepDir, when non-empty, streams every cell result to an on-disk
	// store in that directory as workers finish. Together with Resume, a
	// restarted batch re-runs only the cells the store does not hold yet;
	// the results are byte-identical to an uninterrupted run.
	SweepDir string
	// Coordinator, when non-empty, is the base URL of a gatherd coordinator
	// (http://host:port); the batch then checkpoints and coordinates through
	// the coordinator's "batch" store instead of a shared filesystem
	// directory. Mutually exclusive with SweepDir. Coordinator batches always
	// resume: the coordinator's record log is shared fleet state, never reset
	// by one worker. Composes with ShardOwner exactly like SweepDir does —
	// leases just live on the coordinator instead of in lease files.
	Coordinator string
	// Resume reuses completed cells found in SweepDir; without it an
	// existing store is reset and the batch starts clean.
	Resume bool
	// AdaptiveCI, when positive, enables adaptive seed scheduling: every
	// (workload, n, adversary, algorithm) group keeps receiving extra seed
	// replicas beyond Seeds until the 95% confidence interval half-width of
	// its event count falls to AdaptiveCI, or the group reaches
	// AdaptiveMaxSeeds replicas. Each group's actual consumption is reported
	// in BatchGroup.SeedsUsed.
	AdaptiveCI float64
	// AdaptiveMaxSeeds caps the seed replicas per group in adaptive mode
	// (default 32).
	AdaptiveMaxSeeds int
	// ShardOwner, when non-empty, runs this batch as one worker of a
	// cooperative multi-process sweep over SweepDir (required): cell groups
	// are claimed through lease files, groups completed or freshly leased by
	// peers are skipped, and a killed worker's expired leases are reclaimed
	// so its cells re-run. Sharded batches always resume (the shared store
	// is never reset), and every cooperating worker returns the complete
	// result set — byte-identical to a single-process run — once the fleet
	// drains the sweep. Composes with AdaptiveCI: the fleet coordinates the
	// data-dependent adaptive grid through the shared store (any worker can
	// pick up a group, run its next seed block and re-evaluate the CI
	// against the merged cross-worker history), converging on the same
	// per-group seed counts as a single adaptive process.
	ShardOwner string
	// LeaseTTL is how long a sharded worker's lease outlives its last
	// heartbeat before peers may reclaim it (default 30s). It requires
	// ShardOwner and may not exceed 24h (sweep.MaxLeaseHorizon).
	LeaseTTL time.Duration
}

// BatchCell identifies one run within a batch.
type BatchCell struct {
	Workload  Workload
	N         int
	Adversary AdversaryName
	Algorithm AlgorithmName
	// Seed is the workload seed of the cell.
	Seed int64
	// AdversarySeed is the per-cell adversary seed the batch derived from
	// Seed and the cell's grid coordinates. Passing both seeds (and the rest
	// of the cell's knobs) to Run replays the cell exactly.
	AdversarySeed int64
}

// BatchCellResult pairs a cell with its run result.
type BatchCellResult struct {
	Cell   BatchCell
	Result Result
	// Err reports a cell that could not run; Result is zero then.
	Err error
}

// BatchGroup aggregates the seeds of one (workload, n, adversary, algorithm)
// grid point.
type BatchGroup struct {
	Workload  Workload
	N         int
	Adversary AdversaryName
	Algorithm AlgorithmName
	// Runs counts completed runs; Errors counts cells that failed to run.
	Runs   int
	Errors int
	// GatheredRate and TerminatedRate are fractions of completed runs.
	GatheredRate   float64
	TerminatedRate float64
	// StalledRate and LivelockedRate are the fractions of completed runs
	// that ended "stalled" (adversary scheduled no robot) respectively
	// "livelocked" (certified zero-progress cycle).
	StalledRate    float64
	LivelockedRate float64
	// Median cost measures over completed runs.
	MedianEvents   float64
	MedianCycles   float64
	MedianDistance float64
	// SeedsUsed is the number of seed replicas the group actually consumed:
	// equal to BatchOptions.Seeds for fixed-seed batches, and the adaptive
	// scheduler's per-group consumption when AdaptiveCI is set.
	SeedsUsed int
	// CIHalfWidth is the final 95% confidence interval half-width of the
	// group's event count (adaptive batches only; 0 otherwise). IsInf when
	// the group has fewer than two successful runs.
	CIHalfWidth float64
}

// BatchResult reports a batch: every per-cell result (in deterministic grid
// order: algorithm, workload, n, adversary, seed, then any adaptive replicas)
// plus per-point aggregates.
type BatchResult struct {
	Cells  []BatchCellResult
	Groups []BatchGroup
	// Warnings reports non-fatal sweep-store problems: corrupt records
	// skipped on load (those cells re-ran) and version mismatches.
	Warnings []string
	// Executed and Restored count the cells run in this process vs served
	// from the SweepDir store (Restored is 0 without a store).
	Executed int
	Restored int
	// Claimed and Skipped count the cell groups this worker ran vs left to
	// peers in a sharded batch (both 0 without sharding), and Reclaimed
	// counts expired leases taken over from dead workers.
	Claimed   int
	Skipped   int
	Reclaimed int
}

// RunBatch runs a declarative batch of gathering simulations across all CPU
// cores (or opts.Workers). Per-seed results are bit-identical regardless of
// worker count, and any single cell can be replayed exactly with Run by
// passing the cell's Seed and AdversarySeed (plus the batch's Delta,
// MaxEvents and StopWhenGathered).
func RunBatch(opts BatchOptions) (BatchResult, error) {
	algNames := opts.Algorithms
	if len(algNames) == 0 {
		algNames = []AlgorithmName{AlgorithmPaper}
	}
	algs := make([]sim.Algorithm, len(algNames))
	for i, name := range algNames {
		alg, err := algorithmFor(name)
		if err != nil {
			return BatchResult{}, err
		}
		algs[i] = alg
	}
	advNames := opts.Adversaries
	if len(advNames) == 0 {
		advNames = []AdversaryName{AdversaryRandomAsync}
	}
	advs := make([]string, len(advNames))
	for i, name := range advNames {
		advs[i] = string(name)
	}
	kinds := make([]workload.Kind, len(opts.Workloads))
	for i, w := range opts.Workloads {
		kinds[i] = workload.Kind(w)
	}
	// A negative SeedStart could yield a cell with workload seed 0, which Run
	// cannot replay (seed 0 means "default to 1" there); keep seeds positive.
	if opts.SeedStart < 0 {
		return BatchResult{}, fmt.Errorf("%w: SeedStart must be positive (or 0 for the default), got %d", ErrBadOptions, opts.SeedStart)
	}
	shard := sweep.Shard{Owner: opts.ShardOwner, TTL: opts.LeaseTTL}
	if err := shard.Validate(); err != nil {
		return BatchResult{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}

	batch := engine.Batch{
		Workloads:        kinds,
		Ns:               opts.Ns,
		Adversaries:      advs,
		Algorithms:       algs,
		Seeds:            opts.Seeds,
		SeedStart:        opts.SeedStart,
		Delta:            opts.Delta,
		MaxEvents:        opts.MaxEvents,
		StopWhenGathered: opts.StopWhenGathered,
	}
	cells := batch.Cells()
	if err := engine.ValidateCells(cells); err != nil {
		return BatchResult{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}

	st, warnings, err := netbackend.OpenStore(opts.SweepDir, opts.Coordinator, "batch", opts.Resume, shard)
	if err != nil {
		return BatchResult{}, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	if st != nil {
		defer st.Close()
	}
	sweepOpts := sweep.Options{
		Engine: engine.Options{Workers: opts.Workers},
		Store:  st,
		Shard:  shard,
	}
	if opts.AdaptiveCI > 0 {
		sweepOpts.Adaptive = sweep.Adaptive{TargetCI: opts.AdaptiveCI, MaxSeeds: opts.AdaptiveMaxSeeds}
	}
	results, stats := sweep.Run(cells, sweepOpts)
	warnings = append(warnings, stats.Warnings()...)
	col := engine.NewCollector(func(r engine.CellResult) string {
		// The full adversary label (base strategy + fault decorations) keys
		// the groups, so "crash(1)" and "crash(2)" cells never merge.
		return fmt.Sprintf("%s|%s|%d|%s", r.Cell.AlgorithmName(), r.Cell.Workload, r.Cell.N, r.Cell.AdversaryLabel())
	})
	for _, r := range results {
		col.Add(r)
	}
	groups := col.Groups()

	out := BatchResult{
		Cells:     make([]BatchCellResult, len(results)),
		Warnings:  warnings,
		Executed:  stats.Executed,
		Restored:  stats.Restored,
		Claimed:   stats.GroupsClaimed,
		Skipped:   stats.GroupsSkipped,
		Reclaimed: stats.LeasesReclaimed,
	}
	for i, r := range results {
		cell := BatchCellResult{
			Cell: BatchCell{
				Workload:      Workload(r.Cell.Workload),
				N:             r.Cell.N,
				Adversary:     AdversaryName(r.Cell.AdversaryLabel()),
				Algorithm:     AlgorithmName(r.Cell.AlgorithmName()),
				Seed:          r.Cell.WorkloadSeed,
				AdversarySeed: r.Cell.AdversarySeed,
			},
			Err: r.Err,
		}
		if r.Err == nil {
			cell.Result = resultFromSim(r.Result)
		}
		out.Cells[i] = cell
	}
	out.Groups = make([]BatchGroup, len(groups))
	for i, g := range groups {
		out.Groups[i] = BatchGroup{
			Workload:       Workload(g.Sample.Workload),
			N:              g.Sample.N,
			Adversary:      AdversaryName(g.Sample.AdversaryLabel()),
			Algorithm:      AlgorithmName(g.Sample.AlgorithmName()),
			Runs:           g.Runs,
			Errors:         g.Errors,
			GatheredRate:   g.GatheredRate,
			TerminatedRate: g.TerminatedRate,
			StalledRate:    g.StalledRate,
			LivelockedRate: g.LivelockedRate,
			MedianEvents:   g.Events.Median,
			MedianCycles:   g.Cycles.Median,
			MedianDistance: g.Distance.Median,
			SeedsUsed:      g.Runs + g.Errors,
		}
	}
	// The adaptive scheduler groups by full cell identity minus seeds, the
	// collector by the public grid point; within one batch (uniform Delta,
	// MaxEvents, ...) both partitions are identical, so the per-group seed
	// info pairs up by group key (fixed grids have none).
	schedules := make(map[string]sweep.GroupSeeds, len(stats.Groups))
	for _, info := range stats.Groups {
		schedules[info.Key] = info
	}
	for i, g := range groups {
		if info, ok := schedules[sweep.GroupKey(g.Sample)]; ok {
			out.Groups[i].SeedsUsed = info.Seeds
			out.Groups[i].CIHalfWidth = info.HalfWidth
		}
	}
	return out, nil
}
