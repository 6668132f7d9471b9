package geom

import (
	"math"
	"sort"
)

// ConvexHull computes the convex hull of the given points and returns the
// hull vertices in counter-clockwise order, starting from the lexicographically
// smallest point (lowest x, then lowest y). Interior points and points lying
// on a hull edge (collinear with hull vertices) are NOT included: only the
// corner vertices are returned. Duplicate input points are ignored.
//
// The implementation is Andrew's monotone chain, an equivalent of the Graham
// scan the paper references (Graham 1972); both return exactly the set
// onCH(c1..cm) used by the algorithm.
func ConvexHull(pts []Vec) []Vec {
	uniq := dedupPoints(pts)
	n := len(uniq)
	if n <= 2 {
		out := make([]Vec, n)
		copy(out, uniq)
		return out
	}
	sort.Slice(uniq, func(i, j int) bool { return lexLess(uniq[i], uniq[j]) })

	hull := make([]Vec, 0, 2*n)
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && Orientation(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && Orientation(hull[len(hull)-2], hull[len(hull)-1], p) != CounterClockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// lexLess is the strict lexicographic order on points (lowest x, then lowest
// y) that canonicalizes hull input. It must compare exactly — it is on
// gatherlint's floateq allowlist — because a tolerance-based comparison is
// not a strict weak ordering and would make the sort (and therefore the hull
// walk) input-order dependent.
func lexLess(a, b Vec) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// ConvexHullWithCollinear computes the convex hull and returns every input
// point that lies on the hull boundary, including points on the interior of
// hull edges, in counter-clockwise order. This matches the paper's notion of
// onCH when several robot centers are collinear on a hull edge: all of them
// are "on the convex hull" even though only the extreme two are corners.
func ConvexHullWithCollinear(pts []Vec) []Vec {
	corners := ConvexHull(pts)
	if len(corners) <= 2 {
		// Degenerate hull: every distinct point lies on it. Order along the
		// dominant direction.
		uniq := dedupPoints(pts)
		if len(uniq) <= 1 {
			return uniq
		}
		dir := uniq[0]
		var far Vec
		maxD := -1.0
		for _, p := range uniq {
			for _, q := range uniq {
				if d := p.Dist(q); d > maxD {
					maxD, dir, far = d, p, q
				}
			}
		}
		axis := far.Sub(dir)
		sort.Slice(uniq, func(i, j int) bool {
			return uniq[i].Sub(dir).Dot(axis) < uniq[j].Sub(dir).Dot(axis)
		})
		return uniq
	}
	uniq := dedupPoints(pts)
	var out []Vec
	for i := range corners {
		a := corners[i]
		b := corners[(i+1)%len(corners)]
		// Collect all points on edge [a, b), ordered by distance from a.
		var onEdge []Vec
		for _, p := range uniq {
			if onHullEdge(p, a, b) {
				onEdge = append(onEdge, p)
			}
		}
		sort.Slice(onEdge, func(x, y int) bool {
			return onEdge[x].Dist2(a) < onEdge[y].Dist2(a)
		})
		out = append(out, onEdge...)
	}
	return dedupPoints(out)
}

// onHullEdge is ConvexHullWithCollinear's membership predicate: p lies on the
// half-open hull edge [a, b), as its start or strictly between a and b.
func onHullEdge(p, a, b Vec) bool {
	if p.EqWithin(b, Eps) {
		return false
	}
	return p.EqWithin(a, Eps) || (CollinearWithin(a, b, p, Eps) && Between(a, b, p))
}

// OnHull reports whether p is one of the points returned by
// ConvexHullWithCollinear(pts), i.e. whether p lies on the boundary of the
// convex hull of pts (as a vertex or on an edge).
func OnHull(pts []Vec, p Vec) bool {
	for _, q := range ConvexHullWithCollinear(pts) {
		if q.EqWithin(p, Eps) {
			return true
		}
	}
	return false
}

// PointInConvexPolygon reports whether p lies inside or on the boundary of
// the convex polygon given by its vertices in counter-clockwise order.
func PointInConvexPolygon(p Vec, poly []Vec) bool {
	n := len(poly)
	if n == 0 {
		return false
	}
	if n == 1 {
		return p.EqWithin(poly[0], Eps)
	}
	if n == 2 {
		return Between(poly[0], poly[1], p)
	}
	for i := 0; i < n; i++ {
		a := poly[i]
		b := poly[(i+1)%n]
		if Orientation(a, b, p) == Clockwise {
			return false
		}
	}
	return true
}

// PolygonArea returns the (non-negative) area of the polygon given by its
// vertices in order (CW or CCW).
func PolygonArea(poly []Vec) float64 {
	n := len(poly)
	if n < 3 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += poly[i].Cross(poly[j])
	}
	return math.Abs(sum) / 2
}

// dedupPoints returns the input points with (near-)duplicates removed,
// preserving first occurrence order.
func dedupPoints(pts []Vec) []Vec {
	return appendDedupPoints(make([]Vec, 0, len(pts)), pts)
}

// appendDedupPoints appends the deduplicated points to dst (which must not
// overlap pts) and returns the extended slice. dst is scanned in full for
// duplicates, so pass a freshly truncated buffer.
func appendDedupPoints(dst []Vec, pts []Vec) []Vec {
	for _, p := range pts {
		dup := false
		for _, q := range dst {
			if q.EqWithin(p, Eps) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p)
		}
	}
	return dst
}
