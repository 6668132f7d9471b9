package robot

import (
	"fmt"

	"github.com/fatgather/fatgather/internal/geom"
)

// State is one of the five robot states of the paper's state machine.
type State int

// Robot states. Wait is the initial state; Terminate is absorbing.
const (
	Wait State = iota + 1
	Look
	Compute
	Move
	Terminate
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Wait:
		return "Wait"
	case Look:
		return "Look"
	case Compute:
		return "Compute"
	case Move:
		return "Move"
	case Terminate:
		return "Terminate"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Robot is the mutable per-robot record kept by the simulator. The fields
// mirror the paper's model: only the center and the state exist "physically";
// View/Start/Target are the transient contents of the current
// Look-Compute-Move cycle and are erased on re-entering Wait (obliviousness).
type Robot struct {
	// ID is the simulator-internal index of the robot. Robots are anonymous
	// in the model; the ID is used only for bookkeeping and reporting.
	ID int
	// Center is the current position of the robot's center.
	Center geom.Vec
	// State is the current state of the robot's state machine.
	State State
	// View is the snapshot of visible robot centers taken in the most recent
	// Look, including the robot's own center. It is only meaningful between
	// Look and the end of the ensuing Move.
	View []geom.Vec
	// Start is the position at which the current Move began.
	Start geom.Vec
	// Target is the destination of the current Move (the point returned by
	// the local algorithm).
	Target geom.Vec
	// Cycles counts completed Look-Compute-Move cycles (diagnostics only; the
	// robot itself is oblivious and never reads this).
	Cycles int
	// DistanceTraveled accumulates the total distance moved (diagnostics
	// only).
	DistanceTraveled float64
}

// New returns a robot in the initial Wait state at the given center.
func New(id int, center geom.Vec) *Robot {
	return &Robot{ID: id, Center: center, State: Wait}
}

// Terminated reports whether the robot has reached the absorbing Terminate
// state.
func (r *Robot) Terminated() bool { return r.State == Terminate }

// BeginLook transitions Wait -> Look and records the snapshot. It returns an
// error if the robot is not in Wait.
func (r *Robot) BeginLook(view []geom.Vec) error {
	if r.State != Wait {
		return fmt.Errorf("robot %d: Look event in state %v", r.ID, r.State)
	}
	r.State = Look
	// Copy into the robot's own (reused) buffer: the caller may recycle view,
	// and the snapshot must stay stable until the cycle's Move completes.
	r.View = append(r.View[:0], view...)
	return nil
}

// BeginCompute transitions Look -> Compute. It returns an error if the robot
// is not in Look.
func (r *Robot) BeginCompute() error {
	if r.State != Look {
		return fmt.Errorf("robot %d: Compute event in state %v", r.ID, r.State)
	}
	r.State = Compute
	return nil
}

// BeginMove transitions Compute -> Move toward the given target. It returns
// an error if the robot is not in Compute.
func (r *Robot) BeginMove(target geom.Vec) error {
	if r.State != Compute {
		return fmt.Errorf("robot %d: Move event in state %v", r.ID, r.State)
	}
	r.State = Move
	r.Start = r.Center
	r.Target = target
	return nil
}

// Done transitions Compute -> Terminate (the local algorithm returned the
// special point ⊥). It returns an error if the robot is not in Compute.
func (r *Robot) Done() error {
	if r.State != Compute {
		return fmt.Errorf("robot %d: Done event in state %v", r.ID, r.State)
	}
	r.State = Terminate
	r.forget()
	return nil
}

// FinishMove transitions Move -> Wait after the robot has stopped at its
// current center (because it arrived, was stopped by the adversary, or
// collided). It erases the cycle's transient memory, per the obliviousness
// assumption.
func (r *Robot) FinishMove() error {
	if r.State != Move {
		return fmt.Errorf("robot %d: finish-move in state %v", r.ID, r.State)
	}
	r.State = Wait
	r.Cycles++
	r.forget()
	return nil
}

// Advance moves the robot along its current trajectory by dist (never past
// the target) and returns the actual distance covered. It is a no-op for a
// robot that is not moving.
func (r *Robot) Advance(dist float64) float64 {
	if r.State != Move || dist <= 0 {
		return 0
	}
	remaining := r.Center.Dist(r.Target)
	if remaining <= 0 {
		return 0
	}
	step := dist
	if step > remaining {
		step = remaining
	}
	dir := r.Target.Sub(r.Center).Unit()
	r.Center = r.Center.Add(dir.Scale(step))
	r.DistanceTraveled += step
	return step
}

// RemainingDistance returns the distance from the robot's current center to
// its target; zero when not moving.
func (r *Robot) RemainingDistance() float64 {
	if r.State != Move {
		return 0
	}
	return r.Center.Dist(r.Target)
}

// forget erases the transient per-cycle memory (obliviousness). The View
// backing array is truncated, not released, so the next Look reuses it.
func (r *Robot) forget() {
	r.View = r.View[:0]
	r.Start = geom.Vec{}
	r.Target = geom.Vec{}
}
