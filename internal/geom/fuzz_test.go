package geom

import (
	"math"
	"testing"
)

// fuzzOK filters fuzz inputs down to the numerically meaningful range: the
// predicates are specified for finite coordinates of moderate magnitude (the
// simulator's world is tens of units across).
func fuzzOK(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
			return false
		}
	}
	return true
}

// FuzzSegmentsIntersect checks the structural invariants of the
// segment-segment predicates: swapping the two segments never changes the
// answer, endpoint reversal never changes the answer away from tolerance
// boundaries, and a reported intersection point actually lies on both
// segments (and is never NaN).
func FuzzSegmentsIntersect(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 0.0, 2.0, -2.0, 2.0, 2.0)    // plain crossing
	f.Add(0.0, 0.0, 4.0, 0.0, 5.0, 0.0, 9.0, 0.0)     // collinear disjoint
	f.Add(0.0, 0.0, 4.0, 0.0, 4.0, 0.0, 8.0, 3.0)     // shared endpoint
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)     // degenerate points
	f.Add(0.0, 0.0, 10.0, 1e-9, 0.0, 1e-9, 10.0, 0.0) // near-parallel sliver

	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64) {
		if !fuzzOK(x1, y1, x2, y2, x3, y3, x4, y4) {
			t.Skip()
		}
		p1, p2 := V(x1, y1), V(x2, y2)
		q1, q2 := V(x3, y3), V(x4, y4)

		got := SegmentsIntersect(p1, p2, q1, q2)
		if swapped := SegmentsIntersect(q1, q2, p1, p2); swapped != got {
			t.Fatalf("segment-swap asymmetry: (%v,%v)x(%v,%v): %v vs %v", p1, p2, q1, q2, got, swapped)
		}

		// Endpoint reversal flips the sign of every orientation determinant,
		// so the boolean must be stable whenever the determinants are away
		// from the collinearity tolerance.
		margin := 1e-3 * math.Max(1, math.Max(p1.Dist(p2), q1.Dist(q2)))
		robust := math.Abs(p2.Sub(p1).Cross(q1.Sub(p1))) > margin &&
			math.Abs(p2.Sub(p1).Cross(q2.Sub(p1))) > margin &&
			math.Abs(q2.Sub(q1).Cross(p1.Sub(q1))) > margin &&
			math.Abs(q2.Sub(q1).Cross(p2.Sub(q1))) > margin
		if robust {
			if rev := SegmentsIntersect(p2, p1, q2, q1); rev != got {
				t.Fatalf("endpoint-reversal asymmetry: (%v,%v)x(%v,%v): %v vs %v", p1, p2, q1, q2, got, rev)
			}
		}

		if pt, ok := SegmentIntersection(p1, p2, q1, q2); ok {
			if math.IsNaN(pt.X) || math.IsNaN(pt.Y) {
				t.Fatalf("SegmentIntersection returned NaN point for (%v,%v)x(%v,%v)", p1, p2, q1, q2)
			}
			scale := math.Max(1, math.Max(p1.Dist(p2), q1.Dist(q2)))
			if d := DistancePointSegment(pt, p1, p2); d > 1e-6*scale {
				t.Fatalf("intersection point %v is %.3g away from segment (%v,%v)", pt, d, p1, p2)
			}
			if d := DistancePointSegment(pt, q1, q2); d > 1e-6*scale {
				t.Fatalf("intersection point %v is %.3g away from segment (%v,%v)", pt, d, q1, q2)
			}
		}
	})
}

// FuzzFirstDiscContact checks the motion-blocking predicate used by the
// simulator: the reported contact parameter is finite, within limits, stops
// the mover exactly at tangency (center distance 2r), and never reports a
// contact that would require passing through the other disc first.
func FuzzFirstDiscContact(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 4.0, 0.0, 10.0)      // head-on hit
	f.Add(0.0, 0.0, math.Pi, 4.0, 0.0, 10.0)  // heading away
	f.Add(0.0, 0.0, 0.0, 2.0, 0.0, 10.0)      // already tangent
	f.Add(0.0, 0.0, 0.5, 3.0, 5.0, 100.0)     // oblique
	f.Add(0.0, 0.0, 0.0, 4.0, 1.999999, 50.0) // grazing
	f.Fuzz(func(t *testing.T, px, py, angle, qx, qy, limit float64) {
		if !fuzzOK(px, py, angle, qx, qy, limit) {
			t.Skip()
		}
		limit = math.Abs(limit)
		if limit > 1e4 {
			t.Skip()
		}
		p, q := V(px, py), V(qx, qy)
		sin, cos := math.Sincos(angle)
		u := V(cos, sin)
		const r = UnitRadius
		const contactEps = 1e-7

		tHit, hits := FirstDiscContact(p, u, q, r, limit, contactEps)
		if math.IsNaN(tHit) || math.IsInf(tHit, 0) {
			t.Fatalf("FirstDiscContact(%v,%v,%v) returned non-finite t %v", p, u, q, tHit)
		}
		if tHit < 0 || tHit > limit {
			t.Fatalf("contact parameter %v outside [0, %v]", tHit, limit)
		}
		if !hits {
			return
		}
		startDist := p.Dist(q)
		if startDist <= 2*r+contactEps {
			// Already-touching case: contact is immediate by definition.
			if tHit != 0 {
				t.Fatalf("touching discs must block at t=0, got %v", tHit)
			}
			return
		}
		// At the reported contact the discs are exactly tangent...
		at := p.Add(u.Scale(tHit))
		if d := at.Dist(q); math.Abs(d-2*r) > 1e-6 {
			t.Fatalf("contact at t=%v leaves center distance %v, want %v", tHit, d, 2*r)
		}
		// ... and the discs never overlapped on the way there.
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			mid := p.Add(u.Scale(tHit * frac))
			if d := mid.Dist(q); d < 2*r-1e-6 {
				t.Fatalf("mover overlaps blocker before the reported contact (t=%v, d=%v)", tHit*frac, d)
			}
		}
	})
}

// FuzzDiscPredicates checks that the disc tangency predicate is symmetric and
// never calls two discs tangent when their centers are closer than 2r by more
// than the tolerance (which would make them overlap).
func FuzzDiscPredicates(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 0.0, 0.5)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0)
	f.Add(0.0, 0.0, 5.0, 5.0, 2.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, r float64) {
		if !fuzzOK(ax, ay, bx, by, r) || r <= 0 || r > 1e3 {
			t.Skip()
		}
		a, b := V(ax, ay), V(bx, by)
		const tol = 1e-7
		if DiscsTangent(a, b, r, tol) != DiscsTangent(b, a, r, tol) {
			t.Fatal("DiscsTangent is asymmetric")
		}
		if DiscsTangent(a, b, r, tol) && a.Dist(b) < 2*r-tol {
			t.Fatalf("discs at distance %v are both overlapping and tangent", a.Dist(b))
		}
	})
}
