package core

import (
	"math"
	"sort"

	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/geom"
)

// View is the input to the local algorithm: the snapshot a robot took in its
// Look state. Self is the observing robot's own center, Others are the
// centers of the other robots it can see, and N is the total number of robots
// in the system (which the paper assumes every robot knows).
type View struct {
	Self   geom.Vec
	Others []geom.Vec
	N      int
}

// NewView builds a View, copying the slice of other centers.
func NewView(self geom.Vec, others []geom.Vec, n int) View {
	return View{Self: self, Others: append([]geom.Vec(nil), others...), N: n}
}

// All returns every visible center including Self (Self first).
func (v View) All() []geom.Vec {
	out := make([]geom.Vec, 0, len(v.Others)+1)
	out = append(out, v.Self)
	out = append(out, v.Others...)
	return out
}

// Count returns the number of robots visible in the view, including the
// observer itself.
func (v View) Count() int { return len(v.Others) + 1 }

// SeesAll reports whether the view contains all N robots.
func (v View) SeesAll() bool { return v.Count() >= v.N }

// Epsilon returns the ε used in the algorithm's 1/(2n)−ε constructions. The
// paper leaves ε unspecified; this implementation uses 1/(8n).
func Epsilon(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1 / (8 * float64(n))
}

// HalfStep returns 1/(2n) − ε, the standard small displacement used by the
// algorithm's procedures.
func HalfStep(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1/(2*float64(n)) - Epsilon(n)
}

// OnHullSlack returns the tolerance within which a robot counts as being on
// the convex hull boundary for the purposes of the Compute algorithm. See the
// package documentation for why this is 1/(2n) rather than an exact test.
func OnHullSlack(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1 / (2 * float64(n))
}

// MinGapForRobot is the minimum center distance between two neighbouring
// robots on the convex hull for a third unit-disc robot to fit between them
// without overlapping either (free gap of one disc diameter).
const MinGapForRobot = 4 * geom.UnitRadius

// hullInfo is the per-decision digest of the view's convex-hull structure.
// Its slices are decider buffers, rebuilt by build for every decision.
type hullInfo struct {
	all      []geom.Vec // every visible center (self first)
	corners  []geom.Vec // convex hull corner vertices, CCW; aliases the decider's HullScratch
	onHull   []geom.Vec // centers within slack of the hull boundary, CCW order
	selfIdx  int        // index of Self in onHull, or -1
	interior geom.Vec   // a point in the hull interior (centroid of all)
}

// build computes the hull digest of a view, computing the view's hull once,
// into hs, and ordering its boundary points with ord.
func (h *hullInfo) build(v View, hs *geom.HullScratch, ord *onHullSorter) {
	h.all = append(append(h.all[:0], v.Self), v.Others...)
	h.corners = hs.ConvexHull(h.all)
	h.interior = geom.Centroid(h.all)
	h.onHull = ord.order(h.onHull[:0], h.all, h.corners, OnHullSlack(v.N))
	h.selfIdx = -1
	for i, p := range h.onHull {
		if p.EqWithin(v.Self, geom.Eps) {
			h.selfIdx = i
			break
		}
	}
}

// onHullSorter holds the sort buffers of orderOnHull. Its typed sorters run
// sort.Sort and sort.Stable, the same pdqsort and insertion-merge code as
// sort.Slice and sort.SliceStable, so they order ties exactly alike, without
// the reflect swapper's allocation.
type onHullSorter struct {
	keyed byBoundaryKey
	axis  alongAxis
}

// order appends to dst (which must not overlap all) the points of all that
// lie within slack of the boundary of the convex hull with the given
// corners, ordered counter-clockwise along the boundary, and returns the
// extended slice.
func (s *onHullSorter) order(dst, all, corners []geom.Vec, slack float64) []geom.Vec {
	switch len(corners) {
	case 0:
		return dst
	case 1:
		for _, p := range all {
			if p.Dist(corners[0]) <= slack {
				dst = append(dst, p)
			}
		}
		return dst
	case 2:
		start := len(dst)
		for _, p := range all {
			if geom.DistancePointSegment(p, corners[0], corners[1]) <= slack {
				dst = append(dst, p)
			}
		}
		s.axis = alongAxis{pts: dst[start:], origin: corners[0], axis: corners[1].Sub(corners[0])}
		sort.Sort(&s.axis)
		s.axis.pts = nil
		return dst
	}
	// Order by position along the hull boundary (edge index plus the
	// fractional position on that edge). Unlike an angular sort around the
	// centroid, this stays stable for thin, nearly-collinear hulls.
	s.keyed.items = s.keyed.items[:0]
	for _, p := range all {
		if distToHullBoundary(p, corners) <= slack {
			s.keyed.items = append(s.keyed.items, keyedPoint{p: p, key: boundaryKey(p, corners)})
		}
	}
	sort.Stable(&s.keyed)
	for _, it := range s.keyed.items {
		dst = append(dst, it.p)
	}
	return dst
}

type keyedPoint struct {
	p   geom.Vec
	key float64
}

// byBoundaryKey sorts boundary points by their boundaryKey.
type byBoundaryKey struct{ items []keyedPoint }

func (s *byBoundaryKey) Len() int           { return len(s.items) }
func (s *byBoundaryKey) Less(i, j int) bool { return s.items[i].key < s.items[j].key }
func (s *byBoundaryKey) Swap(i, j int)      { s.items[i], s.items[j] = s.items[j], s.items[i] }

// alongAxis sorts points by their projection on axis, measured from origin.
type alongAxis struct {
	pts          []geom.Vec
	origin, axis geom.Vec
}

func (s *alongAxis) Len() int { return len(s.pts) }
func (s *alongAxis) Less(i, j int) bool {
	return s.pts[i].Sub(s.origin).Dot(s.axis) < s.pts[j].Sub(s.origin).Dot(s.axis)
}
func (s *alongAxis) Swap(i, j int) { s.pts[i], s.pts[j] = s.pts[j], s.pts[i] }

// boundaryKey maps a point near the hull boundary to a monotone parameter
// along the boundary: (index of the closest edge) + (fraction along it).
func boundaryKey(p geom.Vec, corners []geom.Vec) float64 {
	n := len(corners)
	bestEdge := 0
	bestDist := math.Inf(1)
	bestT := 0.0
	for i := 0; i < n; i++ {
		a := corners[i]
		b := corners[(i+1)%n]
		cp := geom.ClosestPointOnSegment(p, a, b)
		d := p.Dist(cp)
		if d < bestDist {
			bestDist = d
			bestEdge = i
			length := a.Dist(b)
			if length < geom.Eps {
				bestT = 0
			} else {
				bestT = geom.Clamp(cp.Sub(a).Dot(b.Sub(a))/(length*length), 0, 0.999999)
			}
		}
	}
	return float64(bestEdge) + bestT
}

// distToHullBoundary returns the distance from p to the boundary of the
// convex polygon given by its corner vertices.
func distToHullBoundary(p geom.Vec, corners []geom.Vec) float64 {
	n := len(corners)
	if n == 0 {
		return math.Inf(1)
	}
	if n == 1 {
		return p.Dist(corners[0])
	}
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		d := geom.DistancePointSegment(p, corners[i], corners[(i+1)%n])
		if d < best {
			best = d
		}
	}
	return best
}

// SelfOnHull reports whether the observer is on the hull boundary (within
// slack).
func (h *hullInfo) SelfOnHull() bool { return h.selfIdx >= 0 }

// neighbors returns the hull-order neighbours (left = previous CCW, right =
// next CCW) of the on-hull point at index i.
func (h *hullInfo) neighbors(i int) (left, right geom.Vec) {
	n := len(h.onHull)
	if n == 0 {
		return geom.Vec{}, geom.Vec{}
	}
	return h.onHull[(i-1+n)%n], h.onHull[(i+1)%n]
}

// indexOf returns the index of p in the on-hull ordering, or -1.
func (h *hullInfo) indexOf(p geom.Vec) int {
	for i, q := range h.onHull {
		if q.EqWithin(p, geom.Eps) {
			return i
		}
	}
	return -1
}

// inwardNormal returns the unit vector perpendicular to the segment (a, b)
// pointing from the observing robot (at `from`) toward the hull interior. If
// the perpendicular direction is degenerate it falls back to pointing from
// `from` toward the interior point, and as a last resort to the +90°
// perpendicular of (b-a).
func (h *hullInfo) inwardNormal(a, b, from geom.Vec) geom.Vec {
	dir := b.Sub(a)
	if dir.Norm() < geom.Eps {
		d := h.interior.Sub(from)
		if d.Norm() < geom.Eps {
			return geom.V(0, 1)
		}
		return d.Unit()
	}
	perp := dir.Unit().Perp()
	toInterior := h.interior.Sub(from)
	if toInterior.Norm() < geom.Eps {
		// Degenerate hull (all points collinear, observer at the centroid):
		// any perpendicular works; pick the +90° one deterministically so
		// that all robots that share the same view make the same choice.
		return perp
	}
	if perp.Dot(toInterior) < 0 {
		perp = perp.Neg()
	}
	return perp
}

// outwardNormal is the negation of inwardNormal.
func (h *hullInfo) outwardNormal(a, b, from geom.Vec) geom.Vec {
	return h.inwardNormal(a, b, from).Neg()
}

// tangent reports whether the unit discs centered at a and b touch.
func tangent(a, b geom.Vec) bool {
	return geom.DiscsTangent(a, b, geom.UnitRadius, config.ContactEps)
}

// touchingAny reports whether the disc at p touches any disc in pts other
// than itself.
func touchingAny(p geom.Vec, pts []geom.Vec) bool {
	for _, q := range pts {
		if q.EqWithin(p, geom.Eps) {
			continue
		}
		if tangent(p, q) {
			return true
		}
	}
	return false
}

// appendTouching appends to dst the centers in pts whose discs touch the
// disc at p (excluding p itself) and returns the extended slice.
func appendTouching(dst []geom.Vec, p geom.Vec, pts []geom.Vec) []geom.Vec {
	for _, q := range pts {
		if q.EqWithin(p, geom.Eps) {
			continue
		}
		if tangent(p, q) {
			dst = append(dst, q)
		}
	}
	return dst
}
