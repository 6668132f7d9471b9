package sweep

import (
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
)

// adaptiveProgress is a group's position on its seed trajectory, as derived
// from the known results alone (see history). The trajectory — which seed replicas a group
// consumes, and when it stops — is a deterministic function of the
// per-replica results (the stopping rule Adaptive.stopAt evaluated on seed
// prefixes), so every worker that sees the same store history computes the
// same progress. That recomputability is the convergence contract of the
// claim loop: the store is the ground truth, and the live /progress view
// (obs.SweepAdaptive) is a write-only report of it, never read back by the
// workers themselves.
type adaptiveProgress struct {
	// results holds the completed replicas in trajectory order; when closed
	// it is the group's full replica set.
	results []engine.CellResult
	// pending is the next block of work: the still-missing initial replicas,
	// or the single next extra replica once the initial block is complete.
	// Empty iff closed.
	pending []engine.Cell
	// seeds is the number of replicas consumed so far (final once closed).
	seeds int
	// halfWidth is the 95% CI half-width over the successful replicas so far.
	halfWidth float64
	// closed reports that the stopping rule fired: converged or at the cap.
	// A fixed-grid group closes as soon as its input block is known.
	closed bool
}

// history is what a run knows of the sweep's results: the results this run
// produced (local, read first) over the store's in-memory view. The local
// overlay means a result whose checkpoint Append failed still advances its
// group's trajectory — the failure only makes the cell re-run on a later
// resume — and a run without a store walks its trajectories from memory.
type history struct {
	store *Store
	local map[string]Stored
}

func (h history) lookup(key string) (Stored, bool) {
	if st, ok := h.local[key]; ok {
		return st, true
	}
	if h.store == nil {
		return Stored{}, false
	}
	return h.store.Lookup(key)
}

// remember records a batch of this run's results in the local overlay.
func (h history) remember(res []engine.CellResult) {
	for _, r := range res {
		h.local[r.Cell.Key()] = Stored{Result: r.Result, Err: r.Err, Elapsed: r.Elapsed}
	}
}

// eval walks the group's deterministic seed trajectory against the run's
// history: first the input replicas, then derived extras (nextReplica) for
// as long as the stopping rule keeps the group open and a result for the
// next replica is known. It never runs anything — callers run
// progress.pending and re-eval.
//
// collect controls whether pr.results is materialized. The loops peek at
// groups on every round or poll tick just to learn closed/pending; copying
// every known result (with its snapshot series) there would be sustained
// allocation churn proportional to the whole sweep, so peeks pass false and
// the full result set is built exactly once, when the group closes.
func (g *cellGroup) eval(ad Adaptive, h history, collect bool) adaptiveProgress {
	var pr adaptiveProgress
	var values []float64
	var maxSeed int64
	have := 0
	observe := func(c engine.Cell, st Stored) {
		have++
		if collect {
			pr.results = append(pr.results, st.result(0, c))
		}
		if st.Err == nil {
			values = append(values, float64(st.Result.Events))
		}
	}
	for _, c := range g.initial {
		if c.WorkloadSeed > maxSeed {
			maxSeed = c.WorkloadSeed
		}
		if st, ok := h.lookup(c.Key()); ok {
			observe(c, st)
		} else {
			pr.pending = append(pr.pending, c)
		}
	}
	if len(pr.pending) > 0 {
		// The stopping rule is only ever evaluated on complete seed prefixes
		// (a round finishes before the loop decides): the initial block must
		// land first.
		pr.seeds = have
		pr.halfWidth = metrics.CI95HalfWidth(values)
		return pr
	}
	pr.seeds = len(g.initial)
	for !ad.stopAt(pr.seeds, values) {
		next := nextReplica(g.initial[0], maxSeed)
		maxSeed = next.WorkloadSeed
		st, ok := h.lookup(next.Key())
		if !ok {
			pr.pending = append(pr.pending, next)
			pr.halfWidth = metrics.CI95HalfWidth(values)
			return pr
		}
		observe(next, st)
		pr.seeds++
	}
	pr.closed = true
	pr.halfWidth = metrics.CI95HalfWidth(values)
	return pr
}

// assemble lays a run's results out in round order — the input cells in
// input order, then round by round one extra replica per group still open
// in that round, groups in first-seen order — and completes stats. Every
// group is closed when either loop returns. of maps each input cell to its
// group; input cells keep their input position as Index, and extras are
// numbered on from len(of).
func assemble(groups, of []*cellGroup, ad Adaptive, stats *Stats, execRestored int) []engine.CellResult {
	out := make([]engine.CellResult, 0, len(of))
	next := make(map[*cellGroup]int, len(groups))
	for i, g := range of {
		r := g.final.results[next[g]]
		next[g]++
		r.Index = i
		out = append(out, r)
	}
	for round, emitted := 0, true; emitted; round++ {
		emitted = false
		for _, g := range groups {
			if k := len(g.initial) + round; k < len(g.final.results) {
				r := g.final.results[k]
				r.Index = len(out)
				out = append(out, r)
				emitted = true
			}
		}
	}

	// Everything returned but not executed here was served from the store —
	// either resumed from an earlier run or appended by peers.
	stats.Restored = len(out) - stats.Executed
	if merged := stats.Restored - execRestored; merged > 0 {
		obsCellsRestored.Add(int64(merged))
		obs.SweepCells(0, int64(merged))
	}
	if ad != (Adaptive{}) {
		for _, g := range groups {
			stats.Groups = append(stats.Groups, GroupSeeds{
				Key:       g.key,
				Seeds:     g.final.seeds,
				HalfWidth: g.final.halfWidth,
				Converged: g.final.halfWidth <= ad.TargetCI,
			})
		}
	}
	return out
}

// runClaims is the claim loop: one worker of a cooperative fleet that
// shares opts.Store. Cell groups are claimed through the store backend's
// leases; the claiming worker merges the fleet's stored history, runs the
// group's next block of replicas, re-evaluates the stopping rule against the
// merged history, and repeats until the group closes. Groups closed by peers
// are collected lease-free from the store, and the loop polls until every
// group is closed, reclaiming expired leases on the way. Adaptive groups
// report their live progress (seeds consumed, CI half-width, open/closed)
// to /progress.
//
// Every worker returns the complete result set in the round loop's order
// (assemble), byte-identical for any fleet size, with no replica executed
// twice while leases hold.
func runClaims(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	ad := opts.Adaptive.withDefaults()
	adaptive := ad != (Adaptive{})
	sh := opts.Shard.withDefaults()
	store := opts.Store
	groups, of := groupCells(cells)
	obs.SweepGroups(len(groups))

	b := store.Backend()
	// report sends a group's progress to /progress. Fixed grids have no
	// adaptive state to report.
	report := func(g *cellGroup, pr adaptiveProgress) {
		if adaptive {
			obs.SweepAdaptive(g.key, pr.seeds, pr.halfWidth, pr.closed)
		}
	}

	var stats Stats
	execRestored, closed := 0, 0
	h := history{store: store, local: make(map[string]Stored)}
	// finish collects a closed group's full replica set.
	finish := func(g *cellGroup) {
		pr := g.eval(ad, h, true)
		g.final = &pr
		closed++
	}

	// attemptRun claims one open group and runs it to closure. It reports
	// whether this worker made progress on the group (claimed it, or closed
	// it leaselessly); false means a peer holds a fresh lease.
	attemptRun := func(g *cellGroup) bool {
		status, err := b.TryClaim(g.key, sh.Owner, sh.TTL)
		leased := err == nil
		switch {
		case err != nil:
			// The lease layer is broken (unwritable dir, I/O error). Leases
			// only split work, never guard correctness — duplicate replicas
			// append bit-identical records — so run leaseless rather than
			// spinning on a claim that cannot succeed.
			stats.LeaseErrs++
		case status == LeaseHeld:
			return false
		case status == LeaseReclaimed:
			obsLeaseReclaims.Inc()
			stats.LeasesReclaimed++
			obs.SweepLeaseReclaimed()
		}
		if leased {
			obsLeaseClaims.Inc()
		}
		// Merge the fleet's history before deciding what is left to run: the
		// previous holder may have finished (or advanced) the group between
		// our store scan and the claim.
		_, _ = store.Reload()
		pr := g.eval(ad, h, false)
		if !pr.closed {
			obs.SweepGroupClaimed()
			var stopHB func()
			if leased {
				stopHB = heartbeatLoop(sh.TTL/3, func() (bool, error) {
					ok, err := b.RenewLease(g.key, sh.Owner, sh.TTL)
					if ok {
						obsLeaseRenewals.Inc()
					}
					return ok, err
				})
			}
			for !pr.closed {
				report(g, pr)
				res, st := execute(pr.pending, opts)
				stats.Executed += st.Executed
				stats.AppendErrs += st.AppendErrs
				execRestored += st.Restored
				h.remember(res)
				pr = g.eval(ad, h, false)
			}
			if stopHB != nil {
				stopHB()
			}
			stats.GroupsClaimed++
			obs.SweepGroupDone()
		}
		// A group that turned out closed after the claim (a peer finished it
		// between our store scan and the claim) counts as skipped, not
		// claimed: no replica of it ran here.
		finish(g)
		report(g, pr)
		if leased {
			_ = b.ReleaseLease(g.key, sh.Owner)
		}
		return true
	}

	for {
		progress := false
		for _, g := range groups {
			if g.final != nil {
				continue
			}
			// Groups already closed by the fleet are collected lease-free:
			// the stored history alone proves the trajectory ended. The peek
			// (collect=false) keeps the poll loop allocation-light; the full
			// result set is materialized once, at collection.
			if pr := g.eval(ad, h, false); pr.closed {
				finish(g)
				if adaptive {
					obs.SweepAdaptive(g.key, pr.seeds, pr.halfWidth, true)
				}
				progress = true
				continue
			}
			if attemptRun(g) {
				progress = true
			}
		}
		if adaptive {
			obsAdaptiveOpen.Set(float64(len(groups) - closed))
			obsAdaptiveClosed.Set(float64(closed))
		}
		if closed == len(groups) {
			break
		}
		if !progress {
			time.Sleep(sh.Poll)
		}
		_, _ = store.Reload()
	}

	out := assemble(groups, of, ad, &stats, execRestored)
	stats.GroupsSkipped = len(groups) - stats.GroupsClaimed
	return out, stats
}
