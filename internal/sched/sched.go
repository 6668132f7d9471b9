package sched

import "fmt"

// DefaultDelta is the default minimum progress distance delta of the liveness
// condition. The robots do not know it.
const DefaultDelta = 0.05

// EventKind enumerates the events of the paper's execution model.
type EventKind int

// Event kinds (Section 2, "Adversary and events").
const (
	EventLook EventKind = iota + 1
	EventCompute
	EventDone
	EventMove
	EventStop
	EventCollide
	EventArrive
)

// String implements fmt.Stringer.
func (e EventKind) String() string {
	switch e {
	case EventLook:
		return "Look"
	case EventCompute:
		return "Compute"
	case EventDone:
		return "Done"
	case EventMove:
		return "Move"
	case EventStop:
		return "Stop"
	case EventCollide:
		return "Collide"
	case EventArrive:
		return "Arrive"
	default:
		return fmt.Sprintf("EventKind(%d)", int(e))
	}
}

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
