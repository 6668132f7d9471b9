package geom

import "math"

// UnitRadius is the radius of a fat robot's disc, per the paper's model
// (robots are closed unit discs).
const UnitRadius = 1.0

// Circle is a circle (or closed disc, depending on usage) with a center and
// radius.
type Circle struct {
	Center Vec
	Radius float64
}

// UnitDisc returns the unit-radius circle centered at c, i.e. the footprint of
// a fat robot whose center is c.
func UnitDisc(c Vec) Circle { return Circle{Center: c, Radius: UnitRadius} }

// OnBoundary reports whether p is within tol of the circle's boundary.
func (c Circle) OnBoundary(p Vec, tol float64) bool {
	return math.Abs(c.Center.Dist(p)-c.Radius) <= tol
}

// PointAtAngle returns the boundary point at the given angle (radians,
// measured counter-clockwise from the positive x-axis).
func (c Circle) PointAtAngle(theta float64) Vec {
	s, cos := math.Sincos(theta)
	return Vec{c.Center.X + c.Radius*cos, c.Center.Y + c.Radius*s}
}

// DiscsTangent reports whether the discs of radius r centered at a and b are
// tangent within tolerance tol (center distance within tol of 2r).
func DiscsTangent(a, b Vec, r, tol float64) bool {
	return math.Abs(a.Dist(b)-2*r) <= tol
}

// SegmentIntersectsDisc reports whether the closed segment [a, b] intersects
// the OPEN disc of radius r around center. Touching the boundary (tangency)
// does not count as an intersection; tol shrinks the disc slightly to make
// the test robust against floating-point noise on exact tangencies.
func SegmentIntersectsDisc(a, b, center Vec, r, tol float64) bool {
	return DistancePointSegment(center, a, b) < r-tol
}

// FirstDiscContact returns the smallest t in [0, limit] at which a disc of
// radius r starting at p and moving along the unit vector u becomes tangent
// to the disc of radius r at q (center distance 2r). hits is false if no
// such t exists within the limit or the mover is heading away. contactEps is
// the tangency tolerance: discs already within 2r+contactEps are treated as
// touching, and block immediately only when the mover approaches.
func FirstDiscContact(p, u, q Vec, r, limit, contactEps float64) (t float64, hits bool) {
	contact := 2 * r
	f := p.Sub(q)
	dist := f.Norm()
	approachRate := f.Dot(u) // negative when approaching
	if dist <= contact+contactEps {
		// Already touching: blocked immediately only if moving closer.
		if approachRate < -Eps {
			return 0, true
		}
		return 0, false
	}
	// Solve |f + t*u|^2 = contact^2.
	b := 2 * approachRate
	c := f.Norm2() - contact*contact
	disc := b*b - 4*c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	t1 := (-b - sq) / 2
	if t1 < 0 || t1 > limit {
		return 0, false
	}
	return t1, true
}

// SegmentCircleIntersections returns the intersection points of the closed
// segment [a, b] with the circle boundary (0, 1 or 2 points).
func SegmentCircleIntersections(a, b Vec, c Circle) []Vec {
	d := b.Sub(a)
	f := a.Sub(c.Center)
	A := d.Dot(d)
	if A < Eps*Eps {
		if c.OnBoundary(a, Eps) {
			return []Vec{a}
		}
		return nil
	}
	B := 2 * f.Dot(d)
	C := f.Dot(f) - c.Radius*c.Radius
	disc := B*B - 4*A*C
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	var out []Vec
	for _, t := range []float64{(-B - sq) / (2 * A), (-B + sq) / (2 * A)} {
		if t < -Eps || t > 1+Eps {
			continue
		}
		p := a.Add(d.Scale(Clamp(t, 0, 1)))
		dup := false
		for _, q := range out {
			if q.EqWithin(p, Eps) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// CircleCircleIntersections returns the intersection points of the boundaries
// of two circles (0, 1 or 2 points).
func CircleCircleIntersections(c1, c2 Circle) []Vec {
	d := c1.Center.Dist(c2.Center)
	if d < Eps {
		return nil // concentric (or identical): none or infinitely many
	}
	if d > c1.Radius+c2.Radius+Eps || d < math.Abs(c1.Radius-c2.Radius)-Eps {
		return nil
	}
	a := (c1.Radius*c1.Radius - c2.Radius*c2.Radius + d*d) / (2 * d)
	h2 := c1.Radius*c1.Radius - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := c2.Center.Sub(c1.Center).Unit()
	mid := c1.Center.Add(dir.Scale(a))
	if h < Eps {
		return []Vec{mid}
	}
	off := dir.Perp().Scale(h)
	return []Vec{mid.Add(off), mid.Sub(off)}
}

// AppendOuterTangentSegments appends the two outer common tangent segments
// between two circles of equal radius r centered at a and b to dst and
// returns the extended slice, appending nothing for coincident centers. Each
// segment connects the tangency point on circle a to the one on circle b;
// for equal radii they are the two translates of the center segment by +-r
// along the perpendicular. vision's sight-line generator computes the same
// segments inline, and its eager test oracle calls this function.
func AppendOuterTangentSegments(dst []Segment, a, b Vec, r float64) []Segment {
	d := b.Sub(a)
	if d.Norm() < Eps {
		return dst
	}
	n := d.Unit().Perp().Scale(r)
	return append(dst,
		Segment{A: a.Add(n), B: b.Add(n)},
		Segment{A: a.Sub(n), B: b.Sub(n)},
	)
}
