package main

import (
	"hash/fnv"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom/incr"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/workload"
)

// replayStats summarizes the sequential replay of a workload's cells.
type replayStats struct {
	events            int64
	certified         int
	attempted, failed int64
	digest            uint64
}

// replay runs every cell of the workload sequentially and directly through
// sim.Run, as engine.Cell.Run does but with a timed algorithm and a timed
// strategy that logs the robot moves, and replays each run's moves onto a
// fresh incr.Cache. Then the livelock differential reruns the certified
// cells, or every cell when none was certified, with detection on and off
// and the event budget set to the count they reached: the same trajectory
// with and without the detector.
func replay(w *workloadSpec, tr *tracer) (replayStats, error) {
	type ran struct {
		cell    int
		initial config.Geometric
		res     sim.Result
	}
	var st replayStats
	var runs []ran
	cache := workload.NewCache()
	alg := &timedAlgorithm{inner: sim.PaperAlgorithm{}, span: tr.decide}
	h := fnv.New64a()
	for i, c := range w.cells {
		initial, err := cache.Generate(c.Workload, c.N, c.WorkloadSeed)
		if err != nil {
			return st, err
		}
		moves := newMoveLog(initial)
		res, took, err := simulate(c, initial, alg, tr.schedule, moves, c.MaxEvents, false)
		if err != nil {
			return st, err
		}
		tr.simRun.add(took)
		moves.observe(res.Final)
		st.attempted++
		if cellFailed(engine.CellResult{Cell: c, Result: res}) || !replayIncr(tr.incrReplay, c, initial, moves.moves, res) {
			st.failed++
		}
		hashResult(h, w.keys[i], res)
		st.events += int64(res.Events)
		if res.Outcome == sim.OutcomeLivelocked {
			st.certified++
		}
		runs = append(runs, ran{cell: i, initial: initial, res: res})
	}
	st.digest = h.Sum64()

	// Each rerun cell runs twice back to back, with detection and without,
	// under the same decorators, so both sides see the same heap and caches.
	rerunAlg := &timedAlgorithm{inner: sim.PaperAlgorithm{}, span: tr.rerunDecide}
	for _, r := range runs {
		if st.certified > 0 && r.res.Outcome != sim.OutcomeLivelocked {
			continue
		}
		c := w.cells[r.cell]
		for _, noDetect := range []bool{false, true} {
			res, took, err := simulate(c, r.initial, rerunAlg, tr.rerunSchedule, newMoveLog(r.initial), r.res.Events, noDetect)
			if err != nil {
				return st, err
			}
			if noDetect {
				tr.detectOff.add(took)
			} else {
				tr.detectOn.add(took)
			}
			st.attempted++
			if res.Events != r.res.Events || !sameCenters(res.Final, r.res.Final) {
				st.failed++
			}
		}
	}
	return st, nil
}

// simulate runs one cell through sim.Run the way engine.Cell.Run does, with
// the given algorithm and a timed strategy, and returns the run's wall time.
func simulate(c engine.Cell, initial config.Geometric, alg sim.Algorithm, schedule *span, moves *moveLog, maxEvents int, noDetect bool) (sim.Result, time.Duration, error) {
	strat, err := adversary.New(c.AdversarySpec(), c.AdversarySeed)
	if err != nil {
		return sim.Result{}, 0, err
	}
	opts := sim.Options{
		Algorithm:           alg,
		Strategy:            timeStrategy(strat, schedule, moves),
		Vision:              c.Vision,
		Delta:               c.Delta,
		MaxEvents:           maxEvents,
		SnapshotEvery:       c.SnapshotEvery,
		StopWhenGathered:    c.StopWhenGathered,
		NoLivelockDetection: noDetect,
	}
	start := time.Now()
	res, err := sim.Run(initial, opts)
	return res, time.Since(start), err
}

// replayIncr replays a run's moves onto a fresh incr.Cache, each followed by
// the predicate queries the simulator makes after an event, and times them.
// It reports whether the replay ends where the run did: the same positions
// and the same FullyVisible, Connected and AllOnHull answers.
func replayIncr(sp *span, c engine.Cell, initial config.Geometric, moves []move, res sim.Result) bool {
	g := incr.New(c.Vision, initial)
	start := time.Now()
	g.AllOnHull()
	g.FullyVisible()
	g.Connected()
	for _, m := range moves {
		g.Move(m.id, m.to)
		g.AllOnHull()
		g.FullyVisible()
		g.Connected()
	}
	sp.addN(time.Since(start), int64(len(moves)))
	return sameCenters(g.Centers(), res.Final) &&
		g.FullyVisible() == res.FullyVisibleAtEnd &&
		g.Connected() == res.ConnectedAtEnd &&
		g.AllOnHull() == res.Final.AllOnHull()
}
