package sweep

import (
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
)

// adaptiveProgress is a group's position on its seed trajectory, as derived
// from the result store alone. The trajectory — which seed replicas a group
// consumes, and when it stops — is a deterministic function of the
// per-replica results (the stopping rule Adaptive.stopAt evaluated on seed
// prefixes), so every worker that sees the same store history computes the
// same progress. That recomputability is the convergence contract of the
// claim loop: the store is the ground truth, and the published
// adaptive-state records are observability artifacts for operators and
// tests, never read back by the workers themselves.
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
	// A fixed-grid group closes as soon as its input block is stored.
	closed bool
}

// eval walks the group's deterministic seed trajectory against the store's
// current in-memory view plus a local overlay of results this worker ran but
// could not checkpoint (Append failures must not stall the trajectory —
// exactly like the round loop's in-memory accumulation, they only mean the
// cells re-run on a later resume): first the input replicas, then derived
// extras (nextReplica) for as long as the stopping rule keeps the group open
// and a result for the next replica is known. It never runs anything —
// callers run progress.pending and re-eval.
//
// collect controls whether pr.results is materialized. The claim loop peeks
// at groups on every poll tick just to learn closed/pending; copying every
// stored result (with its snapshot series) there would be sustained
// allocation churn proportional to the whole sweep, so peeks pass false and
// the full result set is built exactly once, at collection time.
func (g *cellGroup) eval(ad Adaptive, store *Store, local map[string]Stored, collect bool) adaptiveProgress {
	var pr adaptiveProgress
	var values []float64
	var maxSeed int64
	lookup := func(key string) (Stored, bool) {
		if st, ok := store.Lookup(key); ok {
			return st, true
		}
		st, ok := local[key]
		return st, ok
	}
	have := 0
	observe := func(c engine.Cell, st Stored) {
		have++
		if collect {
			pr.results = append(pr.results, engine.CellResult{
				Cell:    c,
				Result:  st.Result,
				Err:     st.Err,
				Elapsed: st.Elapsed,
			})
		}
		if st.Err == nil {
			values = append(values, float64(st.Result.Events))
		}
	}
	for _, c := range g.initial {
		if c.WorkloadSeed > maxSeed {
			maxSeed = c.WorkloadSeed
		}
		if st, ok := lookup(c.Key()); ok {
			observe(c, st)
		} else {
			pr.pending = append(pr.pending, c)
		}
	}
	if len(pr.pending) > 0 {
		// The stopping rule is only ever evaluated on complete seed prefixes
		// (exactly like the round loop, which finishes a round before
		// deciding): the initial block must land first.
		pr.seeds = have
		pr.halfWidth = metrics.CI95HalfWidth(values)
		return pr
	}
	pr.seeds = len(g.initial)
	for !ad.stopAt(pr.seeds, values) {
		next := nextReplica(g.sample, maxSeed)
		maxSeed = next.WorkloadSeed
		st, ok := lookup(next.Key())
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

// runClaims is the claim loop: one worker of a cooperative fleet that
// shares opts.Store. Cell groups are claimed through the store backend's
// leases (own static share first, then — with Shard.Steal — foreign tail
// groups); the claiming worker merges the fleet's stored history, runs the
// group's next block of replicas, re-evaluates the stopping rule against the
// merged history, and repeats until the group closes. Groups closed by peers
// are collected lease-free from the store, and the loop polls until every
// group is closed, reclaiming expired leases on the way. Adaptive groups
// publish adaptive-state records (seeds consumed, CI half-width,
// open/closed) next to the leases.
//
// Every worker returns the complete result set in the round loop's order —
// the input cells, then round by round one extra replica per still-open
// group — byte-identical for any fleet size, with no replica executed twice
// while leases hold. OnResult streams it after the drain.
func runClaims(cells []engine.Cell, opts Options) ([]engine.CellResult, Stats) {
	ad := opts.Adaptive.withDefaults()
	adaptive := ad != (Adaptive{})
	sh := opts.Shard.withDefaults()
	store := opts.Store
	groups, of := groupCells(cells)
	obs.SweepGroups(len(groups))

	eopts := opts
	eopts.OnResult = nil
	lm := newClaimer(store.Backend(), sh)
	pub := &adaptivePublisher{sink: store.Backend(), owner: sh.Owner}
	// publish records a group's progress: an adaptive-state record plus the
	// live /progress entry. Fixed grids have no adaptive state to publish.
	publish := func(g *cellGroup, pr adaptiveProgress) {
		if !adaptive {
			return
		}
		_ = pub.publish(adaptiveState{
			Version:   AdaptiveStateVersion,
			Engine:    engine.Version,
			Group:     g.key,
			Seeds:     pr.seeds,
			HalfWidth: pr.halfWidth,
			Closed:    pr.closed,
		})
		obs.SweepAdaptive(g.key, pr.seeds, pr.halfWidth, pr.closed)
	}

	var stats Stats
	execRestored, closed := 0, 0
	// local holds results this worker ran that the store could not persist
	// (Append failures): eval consults it so a broken disk degrades to
	// re-runs on resume, never to a stalled trajectory.
	local := make(map[string]Stored)
	// finish collects a closed group's full replica set.
	finish := func(g *cellGroup) {
		pr := g.eval(ad, store, local, true)
		g.final = &pr
		closed++
	}

	// attemptRun claims one open group and runs it to closure. It reports
	// whether this worker made progress on the group (claimed it, or closed
	// it leaselessly); false means a peer holds a fresh lease.
	attemptRun := func(g *cellGroup, stealing bool) bool {
		l, reclaimed, err := lm.claim(g.key)
		if err != nil {
			// The lease layer is broken (unwritable dir, I/O error). Leases
			// only split work, never guard correctness — duplicate replicas
			// append bit-identical records — so run leaseless rather than
			// spinning on a claim that cannot succeed.
			stats.LeaseErrs++
		} else if l == nil {
			return false
		}
		if reclaimed {
			stats.LeasesReclaimed++
			obs.SweepLeaseReclaimed()
		}
		// Merge the fleet's history before deciding what is left to run: the
		// previous holder may have finished (or advanced) the group between
		// our store scan and the claim.
		_, _ = store.Reload()
		pr := g.eval(ad, store, local, false)
		if !pr.closed {
			obs.SweepGroupClaimed(stealing)
			if stealing {
				obsGroupSteals.Inc()
			}
			var stopHB func()
			if l != nil {
				stopHB = l.heartbeat(sh.Heartbeat)
			}
			for !pr.closed {
				publish(g, pr)
				res, st := execute(pr.pending, eopts, nil)
				stats.Executed += st.Executed
				stats.AppendErrs += st.AppendErrs
				execRestored += st.Restored
				// execute appended this block to the store (and its
				// in-memory view), so the next eval sees the merged history
				// including this worker's replicas; the local overlay covers
				// any result the append could not persist.
				for _, r := range res {
					local[r.Cell.Key()] = Stored{Result: r.Result, Err: r.Err, Elapsed: r.Elapsed}
				}
				pr = g.eval(ad, store, local, false)
			}
			if stopHB != nil {
				stopHB()
			}
			stats.GroupsClaimed++
			if stealing {
				stats.GroupsStolen++
			}
			obs.SweepGroupDone()
		}
		// A group that turned out closed after the claim (a peer finished it
		// between our store scan and the claim) counts as skipped, not
		// claimed: no replica of it ran here.
		finish(g)
		publish(g, pr)
		if l != nil {
			l.release()
		}
		return true
	}

	for {
		progress := false
		ranMine := false
		for _, g := range groups {
			if g.final != nil {
				continue
			}
			// Groups already closed by the fleet are collected lease-free:
			// the stored history alone proves the trajectory ended. The peek
			// (collect=false) keeps the poll loop allocation-light; the full
			// result set is materialized once, at collection.
			if pr := g.eval(ad, store, local, false); pr.closed {
				finish(g)
				if adaptive {
					obs.SweepAdaptive(g.key, pr.seeds, pr.halfWidth, true)
				}
				progress = true
				continue
			}
			if !sh.mine(g.key) {
				continue
			}
			if attemptRun(g, false) {
				progress = true
				ranMine = true
			}
		}
		// Work stealing: a worker whose static share is drained claims
		// unclaimed or expired foreign tail groups instead of idling. Fresh
		// foreign leases are still respected — the lease layer arbitrates,
		// stealing only widens which groups this worker is willing to claim.
		if sh.Steal && sh.Shards > 1 && !ranMine {
			for _, g := range groups {
				if g.final != nil || sh.mine(g.key) {
					continue
				}
				if attemptRun(g, true) {
					progress = true
				}
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

	// Assemble the round loop's order: the input cells first, then round by
	// round one extra replica per still-open group, groups in first-seen
	// order.
	out := make([]engine.CellResult, 0, len(cells))
	next := make(map[*cellGroup]int, len(groups))
	for _, g := range of {
		out = append(out, g.final.results[next[g]])
		next[g]++
	}
	for r := 0; ; r++ {
		emitted := false
		for _, g := range groups {
			if idx := len(g.initial) + r; idx < len(g.final.results) {
				out = append(out, g.final.results[idx])
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	for i := range out {
		out[i].Index = i
	}
	// Everything collected but not executed here was served from the store —
	// either resumed from an earlier run or appended by peers.
	stats.Restored = len(out) - stats.Executed
	if merged := stats.Restored - execRestored; merged > 0 {
		obsCellsRestored.Add(int64(merged))
		obs.SweepCells(0, int64(merged))
	}
	stats.GroupsSkipped = len(groups) - stats.GroupsClaimed
	if adaptive {
		stats.Groups = make([]GroupSeeds, len(groups))
		for i, g := range groups {
			stats.Groups[i] = g.info(ad, g.final.seeds, g.final.halfWidth)
		}
	}
	if opts.OnResult != nil {
		for _, r := range out {
			opts.OnResult(r)
		}
	}
	return out, stats
}
