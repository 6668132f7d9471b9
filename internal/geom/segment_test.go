package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name           string
		p1, p2, q1, q2 Vec
		want           bool
	}{
		{"crossing", V(0, 0), V(2, 2), V(0, 2), V(2, 0), true},
		{"touching-endpoint", V(0, 0), V(1, 1), V(1, 1), V(2, 0), true},
		{"parallel-disjoint", V(0, 0), V(1, 0), V(0, 1), V(1, 1), false},
		{"collinear-overlap", V(0, 0), V(2, 0), V(1, 0), V(3, 0), true},
		{"collinear-disjoint", V(0, 0), V(1, 0), V(2, 0), V(3, 0), false},
		{"T-junction", V(0, 0), V(2, 0), V(1, -1), V(1, 0), true},
		{"near-miss", V(0, 0), V(2, 0), V(1, 0.01), V(1, 1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsIntersect(tt.p1, tt.p2, tt.q1, tt.q2); got != tt.want {
				t.Fatalf("got %v want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentIntersection(t *testing.T) {
	pt, ok := SegmentIntersection(V(0, 0), V(2, 2), V(0, 2), V(2, 0))
	if !ok || !pt.EqWithin(V(1, 1), 1e-9) {
		t.Fatalf("crossing: got %v ok=%v", pt, ok)
	}
	_, ok = SegmentIntersection(V(0, 0), V(1, 0), V(0, 1), V(1, 1))
	if ok {
		t.Fatal("parallel disjoint should not intersect")
	}
	pt, ok = SegmentIntersection(V(0, 0), V(2, 0), V(1, 0), V(3, 0))
	if !ok || !Between(V(0, 0), V(2, 0), pt) {
		t.Fatalf("collinear overlap: got %v ok=%v", pt, ok)
	}
	_, ok = SegmentIntersection(V(0, 0), V(1, 0), V(0.5, 1), V(0.5, 0.2))
	if ok {
		t.Fatal("segments that stop short should not intersect")
	}
}

func TestLineIntersection(t *testing.T) {
	pt, ok := LineIntersection(V(0, 0), V(1, 0), V(5, -1), V(5, 1))
	if !ok || !pt.EqWithin(V(5, 0), 1e-9) {
		t.Fatalf("got %v ok=%v", pt, ok)
	}
	_, ok = LineIntersection(V(0, 0), V(1, 0), V(0, 1), V(1, 1))
	if ok {
		t.Fatal("parallel lines should not intersect")
	}
	// Lines extend beyond segments.
	pt, ok = LineIntersection(V(0, 0), V(1, 1), V(10, 0), V(11, -1))
	if !ok || !pt.EqWithin(V(5, 5), 1e-9) {
		t.Fatalf("extended: got %v ok=%v", pt, ok)
	}
}

func TestSegmentDistance(t *testing.T) {
	if d := SegmentDistance(V(0, 0), V(2, 2), V(0, 2), V(2, 0)); d != 0 {
		t.Fatalf("intersecting segments distance = %v", d)
	}
	if d := SegmentDistance(V(0, 0), V(1, 0), V(0, 2), V(1, 2)); !almostEq(d, 2, 1e-9) {
		t.Fatalf("parallel distance = %v", d)
	}
	if d := SegmentDistance(V(0, 0), V(1, 0), V(3, 0), V(4, 0)); !almostEq(d, 2, 1e-9) {
		t.Fatalf("collinear gap distance = %v", d)
	}
}

// Property: the reported intersection point of two segments lies on both.
func TestSegmentIntersectionOnBothProperty(t *testing.T) {
	f := func(a, b, c, d, e, f64, g, h float64) bool {
		vals := []float64{a, b, c, d, e, f64, g, h}
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				return true
			}
		}
		p1, p2, q1, q2 := V(a, b), V(c, d), V(e, f64), V(g, h)
		pt, ok := SegmentIntersection(p1, p2, q1, q2)
		if !ok {
			return true
		}
		tol := 1e-6 * (1 + p1.Dist(p2) + q1.Dist(q2))
		return DistancePointSegment(pt, p1, p2) <= tol && DistancePointSegment(pt, q1, q2) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SegmentsIntersect agrees with SegmentIntersection's ok result for
// non-degenerate inputs.
func TestIntersectConsistencyProperty(t *testing.T) {
	f := func(a, b, c, d, e, f64, g, h float64) bool {
		vals := []float64{a, b, c, d, e, f64, g, h}
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				return true
			}
		}
		p1, p2, q1, q2 := V(a, b), V(c, d), V(e, f64), V(g, h)
		if p1.Dist(p2) < 1e-3 || q1.Dist(q2) < 1e-3 {
			return true
		}
		boolRes := SegmentsIntersect(p1, p2, q1, q2)
		_, ptRes := SegmentIntersection(p1, p2, q1, q2)
		if boolRes == ptRes {
			return true
		}
		// They may disagree only within tolerance of touching.
		return SegmentDistance(p1, p2, q1, q2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
