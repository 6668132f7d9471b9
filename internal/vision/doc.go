// Package vision implements the visibility model of the paper: robots are
// opaque (non-transparent) closed unit discs, and robot ri sees robot rj if
// there is a straight segment from a point of ri's disc to a point of rj's
// disc that contains no point of any other robot's disc.
//
// Computing that predicate exactly (visibility between two discs amid disc
// obstacles) is expensive; this package provides a conservative sight-line
// test: a fixed family of candidate segments between the two discs is tested
// against the other closed discs. If any candidate is unobstructed the robots
// are mutually visible. Every candidate is a legitimate witness under the
// paper's definition, so a "visible" answer is always sound; the
// approximation may only under-report visibility in contrived near-tangent
// configurations, and the number of sampled candidates is configurable to
// tighten it (see Options).
//
// Every query goes through one kernel. It first collects the pair's
// corridor: the discs whose center lies within CorridorRadius (2r+BlockTol
// plus a rounding margin) of the center segment, found with squared
// distances. Discs outside the corridor provably cannot block any candidate
// (see Corridor), so an empty corridor answers "visible" at once. Otherwise
// the candidates are generated lazily, in a fixed order, and tested against
// the corridor discs only; the first unblocked candidate answers. The
// verdict is bit-identical to generating all candidates and testing each
// against every disc, which the package's differential tests and fuzzer
// check against a verbatim copy of that eager scan.
package vision
