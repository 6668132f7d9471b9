package geom

import "math"

// Segment is a closed straight line segment between two points.
type Segment struct {
	A Vec
	B Vec
}

// SegmentsIntersect reports whether the closed segments [p1,p2] and [q1,q2]
// share at least one point.
func SegmentsIntersect(p1, p2, q1, q2 Vec) bool {
	o1 := Orientation(p1, p2, q1)
	o2 := Orientation(p1, p2, q2)
	o3 := Orientation(q1, q2, p1)
	o4 := Orientation(q1, q2, p2)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear special cases.
	if o1 == Collinear && Between(p1, p2, q1) {
		return true
	}
	if o2 == Collinear && Between(p1, p2, q2) {
		return true
	}
	if o3 == Collinear && Between(q1, q2, p1) {
		return true
	}
	if o4 == Collinear && Between(q1, q2, p2) {
		return true
	}
	return false
}

// SegmentIntersection returns the intersection point of the closed segments
// [p1,p2] and [q1,q2] and true, if the segments intersect in exactly one
// point. Overlapping collinear segments return the first shared endpoint
// found. If the segments do not intersect, ok is false.
func SegmentIntersection(p1, p2, q1, q2 Vec) (pt Vec, ok bool) {
	r := p2.Sub(p1)
	s := q2.Sub(q1)
	denom := r.Cross(s)
	qp := q1.Sub(p1)
	if math.Abs(denom) < Eps {
		// Parallel. Check collinear overlap and return a shared endpoint.
		if math.Abs(qp.Cross(r)) > Eps*math.Max(1, r.Norm()) {
			return Vec{}, false
		}
		for _, cand := range []Vec{q1, q2, p1, p2} {
			if Between(p1, p2, cand) && Between(q1, q2, cand) {
				return cand, true
			}
		}
		return Vec{}, false
	}
	t := qp.Cross(s) / denom
	u := qp.Cross(r) / denom
	const slack = 1e-12
	if t < -slack || t > 1+slack || u < -slack || u > 1+slack {
		return Vec{}, false
	}
	return p1.Add(r.Scale(t)), true
}

// LineIntersection returns the intersection point of the infinite lines
// through (p1,p2) and (q1,q2). ok is false when the lines are parallel (or a
// defining pair coincides).
func LineIntersection(p1, p2, q1, q2 Vec) (pt Vec, ok bool) {
	r := p2.Sub(p1)
	s := q2.Sub(q1)
	denom := r.Cross(s)
	if math.Abs(denom) < Eps {
		return Vec{}, false
	}
	t := q1.Sub(p1).Cross(s) / denom
	return p1.Add(r.Scale(t)), true
}

// SegmentDistance returns the minimum distance between the two closed
// segments.
func SegmentDistance(p1, p2, q1, q2 Vec) float64 {
	if SegmentsIntersect(p1, p2, q1, q2) {
		return 0
	}
	d := DistancePointSegment(p1, q1, q2)
	if v := DistancePointSegment(p2, q1, q2); v < d {
		d = v
	}
	if v := DistancePointSegment(q1, p1, p2); v < d {
		d = v
	}
	if v := DistancePointSegment(q2, p1, p2); v < d {
		d = v
	}
	return d
}
