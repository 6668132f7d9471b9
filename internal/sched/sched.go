package sched

// DefaultDelta is the default minimum progress distance delta of the liveness
// condition. The robots do not know it.
const DefaultDelta = 0.05

// MoveAction is the adversary's ruling for one activation of a moving robot.
type MoveAction struct {
	// Distance is how far the robot advances along its trajectory in this
	// activation. The simulator clamps it to [min(delta, remaining),
	// remaining].
	Distance float64
	// Stop requests a Stop event after advancing, even if the robot has not
	// reached its target.
	Stop bool
}
