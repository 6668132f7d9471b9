// Package adversary is the pluggable adversary and fault-injection subsystem:
// it owns event selection for the simulator and the bounded sensing/motion
// faults that open the robustness workload dimension (experiments E13-E15).
//
// The package is organized in three layers:
//
//   - Strategy is the scheduling interface the simulator consults at every
//     event: which robot acts next (Next, handed the full scheduling Env of
//     states, centers and move targets) and how far a mover may advance
//     (Move). It is the only scheduling interface: the state-only policies
//     Fair (the simulator's default), RandomAsync, StopHappy, SlowRobot and
//     MoverStarver implement it directly, and the environment-aware
//     strategies GreedyStall (delay the robot whose move would shrink the
//     hull most) and RoundRobinLag (maximally skew activation phases) use
//     the richer view. Package sched holds only the event vocabulary the
//     interface speaks (MoveAction, DefaultDelta).
//   - Decorators compose faults onto any base strategy: Crash permanently
//     stops k seeded-random robots after their first completed move
//     (returning NoRobot once only crashed robots remain, which the simulator
//     reports as a stalled run), and Faults implements the Perturber hook the
//     simulator applies to Look snapshots (bounded sensor noise) and Move
//     grants (bounded truncation).
//   - Spec is the declarative form that batch grids, sweep cell keys and CLI
//     flags thread through the system ("crash(2)", "fair+noise=0.1");
//     New(spec, seed) builds the decorated strategy with every random stream
//     derived independently from the one seed.
//
// Determinism contract: a Strategy owns all of its randomness, seeded at
// construction, so a run is a pure function of (spec, seed, initial
// configuration) — the property the engine's cell keys and the sweep store's
// resume identity rely on. Every policy keeps the RNG call order it had when
// it was first written, so historic results reproduce byte-identically.
package adversary
