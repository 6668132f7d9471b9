package adversary

import (
	"math/rand"

	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
)

// The five state-only policies below rule on robot states and remaining
// distances alone; they ignore the geometry in Env. Each owns its RNG and
// consumes it in a fixed call order, so a (policy, seed) pair pins the
// schedule bit-exactly.

// Fair is the benign scheduler: robots are activated round-robin and always
// reach their targets in a single Move activation. It is the "friendliest"
// adversary allowed by the model, and the simulator's default.
type Fair struct {
	next int
}

// NewFair returns a fair round-robin strategy.
func NewFair() *Fair { return &Fair{} }

// Name implements Strategy.
func (f *Fair) Name() string { return NameFair }

// Next implements Strategy.
func (f *Fair) Next(candidates []int, _ Env) int { return f.pick(candidates) }

// pick returns the first candidate at or after the cursor, cyclically over
// the original indices, and advances the cursor past it.
func (f *Fair) pick(candidates []int) int {
	best := candidates[0]
	for _, c := range candidates {
		if c >= f.next {
			best = c
			break
		}
	}
	f.next = best + 1
	return best
}

// Move implements Strategy.
func (f *Fair) Move(_ int, remaining float64, _ Env) sched.MoveAction {
	return sched.MoveAction{Distance: remaining}
}

// RandomAsync activates uniformly random robots and lets them progress by a
// random fraction of their remaining distance, randomly stopping them early.
type RandomAsync struct {
	rng      *rand.Rand
	stopProb float64
}

// NewRandomAsync returns a random asynchronous strategy with the given seed.
func NewRandomAsync(seed int64) *RandomAsync {
	return &RandomAsync{rng: rand.New(rand.NewSource(seed)), stopProb: 0.3}
}

// Name implements Strategy.
func (a *RandomAsync) Name() string { return NameRandomAsync }

// Next implements Strategy.
func (a *RandomAsync) Next(candidates []int, _ Env) int {
	return candidates[a.rng.Intn(len(candidates))]
}

// Move implements Strategy.
func (a *RandomAsync) Move(_ int, remaining float64, _ Env) sched.MoveAction {
	frac := a.rng.Float64()
	return sched.MoveAction{
		Distance: frac * remaining,
		Stop:     a.rng.Float64() < a.stopProb,
	}
}

// StopHappy stalls every mover: each Move activation advances only the
// minimum the liveness condition allows and then stops the robot, maximizing
// the number of Look-Compute-Move cycles needed.
type StopHappy struct {
	rng *rand.Rand
}

// NewStopHappy returns a stop-happy strategy with the given seed.
func NewStopHappy(seed int64) *StopHappy {
	return &StopHappy{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (a *StopHappy) Name() string { return NameStopHappy }

// Next implements Strategy.
func (a *StopHappy) Next(candidates []int, _ Env) int {
	return candidates[a.rng.Intn(len(candidates))]
}

// Move implements Strategy.
func (a *StopHappy) Move(_ int, _ float64, _ Env) sched.MoveAction {
	// Distance 0 is clamped up to min(delta, remaining) by the simulator.
	return sched.MoveAction{Distance: 0, Stop: true}
}

// SlowRobot designates a subset of robots as "slow": their moves crawl by the
// minimum progress each activation, while everyone else moves at full speed.
// This realizes the adversarial strategy behind the paper's bad
// configurations of type 1 and 2 (a robot still acting on a stale view while
// the rest of the system has moved on).
type SlowRobot struct {
	rng  *rand.Rand
	slow map[int]bool
	frac float64
}

// NewSlowRobot returns a slow-robot strategy: each robot is independently
// slow with probability frac (clamped to [0,1]).
func NewSlowRobot(seed int64, frac float64) *SlowRobot {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return &SlowRobot{rng: rand.New(rand.NewSource(seed)), slow: make(map[int]bool), frac: frac}
}

// Name implements Strategy.
func (a *SlowRobot) Name() string { return NameSlowRobot }

// Next implements Strategy.
func (a *SlowRobot) Next(candidates []int, _ Env) int {
	return candidates[a.rng.Intn(len(candidates))]
}

// Move implements Strategy.
func (a *SlowRobot) Move(id int, remaining float64, _ Env) sched.MoveAction {
	isSlow, known := a.slow[id]
	if !known {
		isSlow = a.rng.Float64() < a.frac
		a.slow[id] = isSlow
	}
	if isSlow {
		return sched.MoveAction{Distance: 0, Stop: false} // crawl by delta, stay in Move
	}
	return sched.MoveAction{Distance: remaining}
}

// MoverStarver prefers to activate robots that are NOT currently moving,
// letting movers linger in the Move state on stale views for as long as the
// liveness condition allows — the scheduling pattern behind the paper's bad
// configurations.
type MoverStarver struct {
	rng *rand.Rand
}

// NewMoverStarver returns a mover-starving strategy with the given seed.
func NewMoverStarver(seed int64) *MoverStarver {
	return &MoverStarver{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (a *MoverStarver) Name() string { return NameMoverStarver }

// Next implements Strategy.
func (a *MoverStarver) Next(candidates []int, env Env) int {
	var idle []int
	for _, c := range candidates {
		if env.States[c] != robot.Move {
			idle = append(idle, c)
		}
	}
	// Mostly pick idle robots, but occasionally (1 in 8) advance a mover so
	// that the liveness condition ("every robot takes infinitely many steps")
	// is respected.
	if len(idle) > 0 && a.rng.Intn(8) != 0 {
		return idle[a.rng.Intn(len(idle))]
	}
	return candidates[a.rng.Intn(len(candidates))]
}

// Move implements Strategy.
func (a *MoverStarver) Move(_ int, remaining float64, _ Env) sched.MoveAction {
	if a.rng.Intn(4) == 0 {
		return sched.MoveAction{Distance: remaining}
	}
	return sched.MoveAction{Distance: 0, Stop: false}
}
