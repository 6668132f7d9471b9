// Package core implements the paper's primary contribution: the local
// algorithm each fat robot runs while in its Compute state (Sections 3 and 4
// of "A Distributed Algorithm for Gathering Many Fat Mobile Robots in the
// Plane", Agathangelou, Georgiou, Mavronicolas, PODC 2013).
//
// The package has two layers:
//
//   - The geometric functions of Section 3 that the package exports as
//     plain functions over point sets: On-Convex-Hull (OnConvexHull),
//     Move-to-Point (MoveToPoint, with TangencyTarget), Find-Points
//     (FindPoints), Connected-Components (ConnectedComponents),
//     How-Much-Distance (HowMuchDistance) and In-Straight-Line-2
//     (InStraightLine2, with the Figure 5 rectangle test InStraightLineRect).
//     In-Largest-Component and In-Smallest-Component have no function of
//     their own: Procedure NotConnected compares the component sizes inline.
//
//   - The 17-state local algorithm of Section 4, exposed as Decide: given a
//     robot's local view (the snapshot taken in its Look state) it walks the
//     algorithmic state machine of Figure 4 and returns either a target point
//     in the plane or the special "terminate" output (the paper's ⊥).
//
// # Conventions and documented deviations
//
// Chirality. The paper assumes robots agree on the orientation of their local
// axes. Here that shows up as a single global convention: hulls are ordered
// counter-clockwise and a robot's "right" neighbour is the next robot in that
// counter-clockwise order. Any consistent convention is equivalent; what
// matters is that all robots use the same one.
//
// Epsilon. The paper's procedures move by 1/(2n) − ε for an unspecified
// ε > 0. This implementation uses ε = 1/(8n) (see Epsilon), so the standard
// step is 3/(8n).
//
// Space for one more robot. The paper tests whether two hull neighbours are
// "at distance at least 2" to decide whether another unit-disc robot fits
// between them. Interpreted as center distance, 2 would make the incoming
// disc overlap both neighbours; this implementation uses the physically
// consistent reading: a robot fits when the neighbouring centers are at least
// MinGapForRobot = 4 apart (a free boundary-to-boundary gap of one disc
// diameter).
//
// On-hull slack. The paper's exact-geometry argument treats a robot that has
// converged inward by at most 1/(2n) as still being "on the convex hull".
// With floating point (and with the Move-to-Point construction, which places
// targets slightly inside the hull) an exact membership test would
// misclassify such robots and make them oscillate. OnHullSlack(n) = 1/(2n)
// is therefore used as the membership tolerance in the Compute algorithm.
//
// Connected-Components gaps. The paper's component walk tolerates up to two
// gaps of at most 1/(2m) inside a component. This implementation merges every
// gap of at most 1/(2m) (no cap on how many); the cap is an artifact of the
// paper's cursor-based traversal and the merge-all reading preserves the
// convergence argument while being considerably simpler.
package core
