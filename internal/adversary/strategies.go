package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
)

// greedyStarveLimit bounds how many consecutive scheduling decisions may
// bypass the stalled victim before it is forcibly activated: the liveness
// condition ("every robot takes infinitely many steps") must hold under every
// strategy, adversarial or not.
const greedyStarveLimit = 12

// GreedyStall is the hull-aware stalling adversary: at every decision point
// it identifies the moving robot whose completed move would shrink the convex
// hull of the configuration most — the robot making the most progress toward
// gathering — and delays it, activating everyone else round-robin and
// granting the victim only the liveness minimum when it must move. Fully
// deterministic (no randomness): the worst schedule it finds is reproducible
// from the configuration alone.
type GreedyStall struct {
	// rr activates the non-victims round-robin, with the fair strategy's
	// cursor discipline.
	rr      Fair
	starved map[int]int
	// lastVictim caches the victim computed by the most recent Next: the
	// simulator always calls Next then (at most once, on the same Env) Move
	// within one event, so Move can reuse it instead of recomputing the
	// hulls.
	lastVictim int
	// scratch is the candidate-configuration buffer reused by victimOf, and
	// hs its hull buffers: HullScratch.ConvexHull is bit-identical to
	// geom.ConvexHull, so the areas compared are the same.
	scratch []geom.Vec
	hs      geom.HullScratch
	// others is Next's buffer of the candidates other than the victim.
	others []int
}

// NewGreedyStall returns a greedy hull-stalling strategy.
func NewGreedyStall() *GreedyStall {
	return &GreedyStall{starved: make(map[int]int), lastVictim: -1}
}

// Name implements Strategy.
func (g *GreedyStall) Name() string { return NameGreedyStall }

// victimOf returns the moving robot whose arrival at its target would shrink
// the hull area most (ties broken by lowest index), or -1 when no mover
// shrinks the hull.
func (g *GreedyStall) victimOf(env Env) int {
	if len(env.Centers) < 3 {
		return -1 // hull area is identically zero; nothing to stall on
	}
	area := geom.PolygonArea(g.hs.ConvexHull(env.Centers))
	if cap(g.scratch) < len(env.Centers) {
		g.scratch = make([]geom.Vec, len(env.Centers))
	}
	pts := g.scratch[:len(env.Centers)]
	victim, bestShrink := -1, 0.0
	for i, st := range env.States {
		if st != robot.Move {
			continue
		}
		copy(pts, env.Centers)
		pts[i] = env.Targets[i]
		shrink := area - geom.PolygonArea(g.hs.ConvexHull(pts))
		if shrink > bestShrink+geom.Eps {
			bestShrink = shrink
			victim = i
		}
	}
	return victim
}

// Next implements Strategy: activate anyone but the current victim,
// round-robin, forcing the victim through every greedyStarveLimit decisions.
func (g *GreedyStall) Next(candidates []int, env Env) int {
	v := g.victimOf(env)
	g.lastVictim = v
	if v < 0 {
		return g.rr.pick(candidates)
	}
	g.starved[v]++
	if g.starved[v] >= greedyStarveLimit {
		g.starved[v] = 0
		return v
	}
	g.others = g.others[:0]
	for _, c := range candidates {
		if c != v {
			g.others = append(g.others, c)
		}
	}
	if len(g.others) == 0 {
		g.starved[v] = 0
		return v
	}
	return g.rr.pick(g.others)
}

// Move implements Strategy: the current victim (cached from the Next call of
// the same event — the Env cannot change in between) crawls by the liveness
// minimum; everyone else moves at full speed.
func (g *GreedyStall) Move(id int, remaining float64, _ Env) sched.MoveAction {
	if g.lastVictim == id {
		return sched.MoveAction{Distance: 0} // clamped up to min(delta, remaining)
	}
	return sched.MoveAction{Distance: remaining}
}

// RoundRobinLag maximally skews activation phases: instead of interleaving
// the robots' Look-Compute-Move cycles, it drives one focus robot through its
// entire cycle before granting the next robot a single event. Every robot
// therefore acts on a view that is a full round of cycles stale — the
// worst-case phase lag the execution model allows while staying fair.
// Deterministic.
type RoundRobinLag struct {
	focus   int
	sawMove bool
	started bool
}

// NewRoundRobinLag returns a phase-skewing round-robin strategy.
func NewRoundRobinLag() *RoundRobinLag { return &RoundRobinLag{} }

// Name implements Strategy.
func (r *RoundRobinLag) Name() string { return NameRoundRobinLag }

// Next implements Strategy: keep activating the focus robot until it
// completes a full cycle (returns to Wait after moving, or terminates), then
// rotate to the next candidate.
func (r *RoundRobinLag) Next(candidates []int, env Env) int {
	inSet := false
	for _, c := range candidates {
		if c == r.focus {
			inSet = true
			break
		}
	}
	cycled := inSet && r.sawMove && env.States[r.focus] == robot.Wait
	if !r.started {
		r.started = true
		r.focus = candidates[0]
		r.sawMove = false
		return r.focus
	}
	if !inSet || cycled {
		r.rotate(candidates)
	}
	if env.States[r.focus] == robot.Move {
		r.sawMove = true
	}
	return r.focus
}

// rotate advances the focus to the next candidate after the current focus in
// cyclic index order and resets the cycle tracker.
func (r *RoundRobinLag) rotate(candidates []int) {
	next := candidates[0]
	for _, c := range candidates {
		if c > r.focus {
			next = c
			break
		}
	}
	r.focus = next
	r.sawMove = false
}

// Move implements Strategy: full speed — the damage is done by phase lag, not
// by slow motion.
func (r *RoundRobinLag) Move(_ int, remaining float64, _ Env) sched.MoveAction {
	return sched.MoveAction{Distance: remaining}
}

// Crash is the crash-stop fault decorator: k robots, chosen uniformly at
// construction-seeded random once the population is known, permanently stop
// after completing their first Move — they are never activated again.
// Scheduling among the surviving robots is delegated to the wrapped base
// strategy. When only crashed robots remain un-terminated, Next returns
// NoRobot and the simulator ends the run as stalled.
type Crash struct {
	inner Strategy
	k     int
	rng   *rand.Rand
	// chosen[i] marks the robots designated to crash (fixed at first Next).
	chosen map[int]bool
	// moved[i] becomes true once robot i has completed at least one Move
	// (observed as a Move -> non-Move state transition).
	moved   map[int]bool
	wasMove map[int]bool
}

// NewCrash wraps a base strategy with crash-stop semantics for k robots.
func NewCrash(inner Strategy, k int, seed int64) *Crash {
	return &Crash{
		inner:   inner,
		k:       k,
		rng:     rand.New(rand.NewSource(seed)),
		moved:   make(map[int]bool),
		wasMove: make(map[int]bool),
	}
}

// Name implements Strategy.
func (c *Crash) Name() string { return fmt.Sprintf("%s+crash=%d", c.inner.Name(), c.k) }

// Crashed reports whether robot id has crash-stopped (designated and past its
// first completed move).
func (c *Crash) Crashed(id int) bool { return c.chosen[id] && c.moved[id] }

// CrashedIDs returns the ids of every crash-stopped robot in ascending order
// (designated robots that have not completed a move yet are still alive and
// excluded).
func (c *Crash) CrashedIDs() []int {
	var ids []int
	for id := range c.chosen {
		if c.Crashed(id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Unwrap returns the wrapped base strategy.
func (c *Crash) Unwrap() Strategy { return c.inner }

// observe updates the completed-move tracking and lazily fixes the crash set.
func (c *Crash) observe(env Env) {
	if c.chosen == nil {
		n := len(env.States)
		c.chosen = make(map[int]bool, c.k)
		k := c.k
		if k > n {
			k = n
		}
		for _, i := range c.rng.Perm(n)[:k] {
			c.chosen[i] = true
		}
	}
	for i, st := range env.States {
		if c.wasMove[i] && st != robot.Move {
			c.moved[i] = true
		}
		c.wasMove[i] = st == robot.Move
	}
}

// Next implements Strategy: crashed robots are removed from the candidate
// list before the base strategy picks; NoRobot when none survive.
func (c *Crash) Next(candidates []int, env Env) int {
	c.observe(env)
	live := make([]int, 0, len(candidates))
	for _, cand := range candidates {
		if !c.Crashed(cand) {
			live = append(live, cand)
		}
	}
	if len(live) == 0 {
		return NoRobot
	}
	return c.inner.Next(live, env)
}

// Move implements Strategy, delegating to the base strategy.
func (c *Crash) Move(id int, remaining float64, env Env) sched.MoveAction {
	return c.inner.Move(id, remaining, env)
}

// Compile-time interface checks.
var (
	_ Strategy = (*Fair)(nil)
	_ Strategy = (*RandomAsync)(nil)
	_ Strategy = (*StopHappy)(nil)
	_ Strategy = (*SlowRobot)(nil)
	_ Strategy = (*MoverStarver)(nil)
	_ Strategy = (*GreedyStall)(nil)
	_ Strategy = (*RoundRobinLag)(nil)
	_ Strategy = (*Crash)(nil)
)
