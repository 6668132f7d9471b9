// Package incr maintains the global geometric predicates of a robot
// configuration — convex hull (corners, area, boundary count), tangency-graph
// connectivity and the full pairwise-visibility matrix — incrementally across
// single-robot moves, which is exactly the update pattern of the simulator's
// event loop (one position changes per event, and only on a Move event).
//
// The contract is strict equality, not approximation: every query answers
// bit-identically to the from-scratch predicates it replaces
// (geom.ConvexHull / config.Geometric.OnHullCount / config.Geometric.
// Connected / vision.Model visibility), so pinned determinism hashes,
// livelock fingerprints and sweep store records are unaffected by the cache.
// Differential tests (incr_test.go) and a fuzzer (fuzz_test.go) compare every
// operation against the from-scratch oracles after every move.
//
// Incrementality comes from two observations:
//
//   - Hull and connectivity depend on all positions, but are only recomputed
//     lazily after a move actually happened, into reused scratch buffers
//     (geom.HullScratch, a DFS over on-the-fly tangency tests) — zero
//     allocations per event instead of a dozen.
//
//   - A visibility verdict Visible(i, j) is computed by the vision kernel
//     from the discs in the pair's blocking corridor only (vision.Corridor:
//     centers within vision.Model.CorridorRadius of [ci, cj]; the kernel's
//     exactness note explains why no other disc can block). So the verdict
//     can change only if the moved disc is one of i, j, or if the mover's old
//     or new center lies in that corridor, tested with the same
//     Corridor.Contains the kernel uses. Pairs outside the corridor of the
//     mover keep their cached verdict; pairs inside it (typically O(n) of
//     the O(n^2) total) are recomputed exactly.
package incr
