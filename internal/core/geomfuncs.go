package core

import (
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// OnConvexHull implements the paper's Function On-Convex-Hull (Section 3.1):
// it reports whether c lies on the convex hull of the given points and also
// returns the full ordered set of on-hull points onCH(points), counter-
// clockwise. Membership uses the exact (Eps) tolerance; callers inside the
// Compute algorithm use the slack-tolerant hullInfo instead.
func OnConvexHull(points []geom.Vec, c geom.Vec) (bool, []geom.Vec) {
	onCH := geom.ConvexHullWithCollinear(points)
	for _, p := range onCH {
		if p.EqWithin(c, geom.Eps) {
			return true, onCH
		}
	}
	return false, onCH
}

// MoveToPoint implements the paper's Function Move-to-Point (Section 3.2).
// c1 is the center of the moving robot, c2 the center of the robot it wants
// to touch, m the total number of robots, and interior a point inside the
// convex hull used to orient the construction (the paper's "direction inside
// of the convex hull").
//
// The construction: take the perpendicular to c1c2 at c2 pointing toward the
// hull interior, mark the point c at distance 1/(2m)−ε from c2 along it, and
// return µ, the intersection of segment c1–c with the unit circle around c2.
// µ is the point where the two discs will become tangent; the caller uses it
// as the Move target (the motion stops when the discs touch).
func MoveToPoint(c1, c2 geom.Vec, m int, interior geom.Vec) geom.Vec {
	if m < 1 {
		m = 1
	}
	dir := c2.Sub(c1)
	if dir.Norm() < geom.Eps {
		return c1
	}
	perp := dir.Unit().Perp()
	toInterior := interior.Sub(c2)
	if toInterior.Norm() > geom.Eps && perp.Dot(toInterior) < 0 {
		perp = perp.Neg()
	}
	offset := 1/(2*float64(m)) - Epsilon(m)
	c := c2.Add(perp.Scale(offset))
	circle := geom.UnitDisc(c2)
	var buf [2]geom.Vec
	pts := geom.AppendSegmentCircleIntersections(buf[:0], c1, c, circle)
	if len(pts) == 0 {
		// c1 is inside (or numerically on) the unit circle around c2; fall
		// back to the offset point itself, which is inside the disc: motion
		// toward it stops at tangency anyway.
		return c
	}
	// Take the intersection closest to c1 (the first boundary crossing).
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Dist(c1) < best.Dist(c1) {
			best = p
		}
	}
	return best
}

// TangencyTarget returns the center position a unit-disc robot starting at c1
// would occupy when its disc becomes tangent to the disc at c2 while moving
// toward the Move-to-Point target µ. It is provided for analysis and tests.
func TangencyTarget(c1, c2, mu geom.Vec) geom.Vec {
	dir := mu.Sub(c1)
	if dir.Norm() < geom.Eps {
		return c1
	}
	u := dir.Unit()
	// Solve |c1 + t*u - c2| = 2 for the smallest non-negative t.
	f := c1.Sub(c2)
	b := 2 * f.Dot(u)
	cc := f.Norm2() - 4*geom.UnitRadius*geom.UnitRadius
	disc := b*b - 4*cc
	if disc < 0 {
		return mu
	}
	sq := math.Sqrt(disc)
	t := (-b - sq) / 2
	if t < 0 {
		t = (-b + sq) / 2
	}
	if t < 0 {
		return mu
	}
	return c1.Add(u.Scale(t))
}

// FindPoints implements the paper's Function Find-Points (Section 3.3): given
// the ordered on-hull points (counter-clockwise) and the total number of
// robots n, it returns the candidate points at which a unit disc can be
// placed on the hull without changing onCH. For every neighbouring hull pair
// at center distance at least MinGapForRobot, the candidate is the midpoint
// of the pair pushed outward by 1/n; a candidate is kept only if adding it
// leaves every current on-hull point on the hull and it does not overlap any
// existing disc.
func FindPoints(onCH []geom.Vec, n int) []geom.Vec {
	var w findPointsScratch
	return w.find(onCH, n)
}

// findPointsScratch holds the buffers of Find-Points: its candidates, and
// the augmented point set and hull of the validity test.
type findPointsScratch struct {
	hs  geom.HullScratch
	aug []geom.Vec
	out []geom.Vec
}

// find is FindPoints into the scratch; the result is valid until the next
// call.
func (w *findPointsScratch) find(onCH []geom.Vec, n int) []geom.Vec {
	if n < 1 {
		n = 1
	}
	w.out = w.out[:0]
	m := len(onCH)
	if m < 2 {
		return w.out
	}
	interior := geom.Centroid(onCH)
	pairs := m
	if m == 2 {
		pairs = 1 // a two-point "hull" has a single side, not a cycle
	}
	for i := 0; i < pairs; i++ {
		cl := onCH[i]
		cr := onCH[(i+1)%m]
		if cl.Dist(cr) < MinGapForRobot {
			continue
		}
		mid := geom.Midpoint(cl, cr)
		dir := cr.Sub(cl)
		if dir.Norm() < geom.Eps {
			continue
		}
		outward := dir.Unit().Perp()
		toInterior := interior.Sub(mid)
		if toInterior.Norm() > geom.Eps && outward.Dot(toInterior) > 0 {
			outward = outward.Neg()
		}
		p := mid.Add(outward.Scale(1 / float64(n)))
		if !w.valid(p, onCH) {
			continue
		}
		w.out = append(w.out, p)
	}
	return w.out
}

// valid reports whether placing a unit disc at p keeps every current on-hull
// point on the hull (Lemma 1) and does not overlap an existing disc.
func (w *findPointsScratch) valid(p geom.Vec, onCH []geom.Vec) bool {
	for _, q := range onCH {
		if p.Dist(q) < 2*geom.UnitRadius-geom.Eps {
			return false
		}
	}
	w.aug = append(append(w.aug[:0], onCH...), p)
	return w.hs.CollinearHullContains(w.aug, onCH)
}

// InStraightLine2 implements the paper's Function In-Straight-Line-2
// (Section 3.8): it reports whether the three points lie on a single straight
// line (within the geometric tolerance).
func InStraightLine2(cl, cm, cr geom.Vec) bool {
	return geom.CollinearPts(cl, cm, cr)
}

// InStraightLineRect implements the rectangle test used by procedure
// NotAllOnConvexHull (Figure 5): the middle point cm counts as "on a straight
// line" with cl and cr when it lies within distance 1/n of the segment cl–cr.
func InStraightLineRect(cl, cm, cr geom.Vec, n int) bool {
	if n < 1 {
		n = 1
	}
	return geom.DistancePointSegment(cm, cl, cr) <= 1/float64(n)
}
