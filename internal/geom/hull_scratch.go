package geom

import "sort"

// HullScratch holds reusable buffers for repeated convex-hull computations on
// a hot path (the simulator recomputes the global hull after every position
// change). The zero value is ready to use; after the buffers have grown to the
// working-set size, ConvexHull allocates nothing.
//
// A HullScratch is not safe for concurrent use.
type HullScratch struct {
	uniq vecSorter
	hull []Vec
}

// ConvexHull computes exactly the same hull as the package-level ConvexHull —
// same vertices, same order, bit-identical coordinates — but into the
// scratch's reused buffers. The returned slice aliases the scratch and is only
// valid until the next call.
//
// Output equality holds because the two implementations share the dedup code
// and the comparator: lexLess is a strict total order on the deduped points
// (dedup removes any pair within Eps, so no two survivors compare equal), and
// a strict total order has exactly one sorted arrangement — which sorting
// algorithm produces it is irrelevant. The monotone chain then walks the same
// sequence with the same Orientation predicate.
func (s *HullScratch) ConvexHull(pts []Vec) []Vec {
	s.uniq.v = appendDedupPoints(s.uniq.v[:0], pts)
	uniq := s.uniq.v
	n := len(uniq)
	s.hull = s.hull[:0]
	if n <= 2 {
		s.hull = append(s.hull, uniq...)
		return s.hull
	}
	sort.Sort(&s.uniq)

	hull := s.hull
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
	s.hull = hull
	return hull[:len(hull)-1]
}

// HullWithOnHullCount computes the hull corners (exactly as ConvexHull, see
// above) together with the number of distinct input points on the hull
// boundary — exactly len(ConvexHullWithCollinear(pts)) — without allocating.
// The returned corner slice aliases the scratch and is only valid until the
// next call.
//
// The count matches ConvexHullWithCollinear because that function returns the
// dedup of the points it collects per edge, every collected point comes from
// the deduped input (whose points are pairwise distinct within Eps, so the
// final dedup keeps one copy of each), and therefore its length is the number
// of deduped points that satisfy the per-edge membership predicate
// onHullEdge for at least one hull edge [a, b). In the degenerate case (<= 2
// corners) ConvexHullWithCollinear returns the deduped points themselves, so
// the count is their number.
func (s *HullScratch) HullWithOnHullCount(pts []Vec) (corners []Vec, onHull int) {
	corners = s.ConvexHull(pts)
	for _, p := range s.uniq.v { // deduped input, left sorted by ConvexHull; order is irrelevant for counting
		if onCollinearHull(p, corners) {
			onHull++
		}
	}
	return corners, onHull
}

// CollinearHullContains reports whether every point of qs is within Eps of a
// point of ConvexHullWithCollinear(pts), without allocating once the
// scratch's buffers have grown.
//
// By the argument of HullWithOnHullCount, the points ConvexHullWithCollinear
// returns are exactly the deduped input points that satisfy onHullEdge for
// some hull edge (all of them when the hull has <= 2 corners). The deduped
// input is the same set here, only sorted, so scanning it for such a point
// within Eps of q gives the same verdict as scanning the returned slice.
func (s *HullScratch) CollinearHullContains(pts, qs []Vec) bool {
	corners := s.ConvexHull(pts)
	for _, q := range qs {
		found := false
		for _, p := range s.uniq.v {
			if p.EqWithin(q, Eps) && onCollinearHull(p, corners) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// onCollinearHull reports whether the deduped input point p is among the
// points ConvexHullWithCollinear returns for a hull with the given corners.
func onCollinearHull(p Vec, corners []Vec) bool {
	m := len(corners)
	if m <= 2 {
		return true
	}
	for i := 0; i < m; i++ {
		if onHullEdge(p, corners[i], corners[(i+1)%m]) {
			return true
		}
	}
	return false
}

// vecSorter sorts a point slice by lexLess through sort.Sort, which — unlike
// sort.Slice — does not allocate (no interface boxing of the closure).
type vecSorter struct{ v []Vec }

func (s *vecSorter) Len() int           { return len(s.v) }
func (s *vecSorter) Less(i, j int) bool { return lexLess(s.v[i], s.v[j]) }
func (s *vecSorter) Swap(i, j int)      { s.v[i], s.v[j] = s.v[j], s.v[i] }
