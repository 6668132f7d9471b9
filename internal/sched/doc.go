// Package sched models the asynchronous adversary of the paper (Section 2):
// an omniscient scheduler that decides which robot takes its next step, how
// far moving robots progress before being stopped, and thereby which robots
// collide. The only restrictions are the paper's liveness conditions: every
// robot is scheduled infinitely often, and a moving robot always covers at
// least min(delta, distance-to-target) before it can be stopped.
//
// This package holds only the event-model vocabulary: MoveAction and
// DefaultDelta. The scheduling policies themselves implement
// internal/adversary.Strategy, the simulator's one scheduling interface.
package sched
