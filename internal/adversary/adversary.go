package adversary

import (
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
)

// NoRobot is the sentinel Strategy.Next returns when the strategy declines to
// activate any candidate — for example when every remaining candidate has
// crash-stopped. The simulator ends such a run immediately with
// sim.OutcomeStalled instead of burning the event budget on no-ops.
const NoRobot = -1

// Env is the read-only view of the simulation the scheduler hands a strategy
// at each decision point. It is richer than the candidate list alone so that
// geometry-aware strategies (greedy-stall) can rule on configurations, not
// just states.
//
// The slices are owned by the simulator and reused between calls: strategies
// must copy anything they want to keep across events.
type Env struct {
	// States[i] is robot i's current state-machine state.
	States []robot.State
	// Centers[i] is robot i's current center.
	Centers []geom.Vec
	// Targets[i] is robot i's move target; meaningful only while
	// States[i] == robot.Move (zero vector otherwise).
	Targets []geom.Vec
}

// Strategy owns event selection for a run: which robot is activated next, and
// how far an activated mover may advance. It is the simulator's only
// scheduling interface: the state-only policies (Fair, RandomAsync,
// StopHappy, SlowRobot, MoverStarver) read only Env.States, while
// GreedyStall and RoundRobinLag rule on the whole Env.
//
// Implementations own their randomness, seeded at construction, so a run is
// reproducible from (strategy spec, seed) alone — the determinism contract
// every layer above the simulator relies on. A strategy instance is used by a
// single simulation and needs no internal locking.
type Strategy interface {
	// Name identifies the strategy (including any fault decoration) in
	// reports and stored results.
	Name() string
	// Next picks the robot activated next from the non-empty candidate list
	// (indices of non-terminated robots), or NoRobot to stall the run.
	Next(candidates []int, env Env) int
	// Move rules on one activation of the moving robot id whose remaining
	// distance to target is remaining. The simulator clamps the granted
	// distance to [min(delta, remaining), remaining].
	Move(id int, remaining float64, env Env) sched.MoveAction
}

// Perturber is the optional fault-injection hook a Strategy may additionally
// implement: the simulator consults it after the Look snapshot and after the
// liveness clamp of a Move grant. New(spec, seed) attaches one automatically
// when the spec carries noise or truncation; see Faults.
type Perturber interface {
	// PerturbView may displace the sensed centers of a Look snapshot by a
	// bounded offset. self is the looking robot's true center; entries equal
	// to it (the robot's self-observation) must be left exact. The returned
	// slice may alias view.
	PerturbView(id int, self geom.Vec, view []geom.Vec) []geom.Vec
	// PerturbMove may truncate the distance granted to one Move activation
	// (already clamped to the liveness minimum). The result is re-clamped by
	// the simulator to [0, remaining]. Truncation may undercut the liveness
	// delta — that is the fault being injected.
	PerturbMove(id int, granted, remaining float64) float64
}

// Unwrapper is implemented by decorators that delegate to an inner Strategy
// (Crash, Faults, the renaming wrappers). CrashedIDs uses it to find the
// crash decorator anywhere in a decoration stack.
type Unwrapper interface {
	// Unwrap returns the wrapped strategy.
	Unwrap() Strategy
}

// CrashedIDs reports the robots that have crash-stopped under the given
// strategy, in ascending id order, unwrapping any decorators on the way to
// the crash layer. It returns nil when the strategy injects no crash fault
// (or when no designated robot has completed its first move yet). The
// simulator calls it at the end of a run to compute survivor-relative
// metrics.
func CrashedIDs(s Strategy) []int {
	for s != nil {
		if c, ok := s.(*Crash); ok {
			return c.CrashedIDs()
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer (same mix as engine.DeriveSeed,
// duplicated here because engine sits above this package in the import
// graph).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// subseed derives an independent, always-positive RNG seed for one decorator
// stream (crash selection, noise, ...) so stacked decorators never share a
// random sequence with each other or with the base strategy.
func subseed(seed int64, stream uint64) int64 {
	const gamma = 0x9e3779b97f4a7c15
	z := splitmix64(uint64(seed) + gamma)
	z = splitmix64(z + stream*gamma + gamma)
	out := int64(z &^ (1 << 63))
	if out == 0 {
		out = 1
	}
	return out
}
