package core

import (
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

func v(x, y float64) geom.Vec { return geom.V(x, y) }

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEpsilonAndHalfStep(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 100} {
		eps := Epsilon(n)
		if eps <= 0 || eps >= 1/(2*float64(n)) {
			t.Fatalf("n=%d: epsilon %v out of range", n, eps)
		}
		hs := HalfStep(n)
		if hs <= 0 || hs >= 1/(2*float64(n)) {
			t.Fatalf("n=%d: halfstep %v out of range", n, hs)
		}
	}
	if Epsilon(0) <= 0 || HalfStep(-3) <= 0 || OnHullSlack(0) <= 0 {
		t.Fatal("degenerate n should still yield positive values")
	}
}

func TestOnConvexHull(t *testing.T) {
	pts := []geom.Vec{v(0, 0), v(10, 0), v(10, 10), v(0, 10), v(5, 5)}
	on, onCH := OnConvexHull(pts, v(10, 10))
	if !on {
		t.Fatal("corner should be on hull")
	}
	if len(onCH) != 4 {
		t.Fatalf("onCH size = %d", len(onCH))
	}
	on, _ = OnConvexHull(pts, v(5, 5))
	if on {
		t.Fatal("interior point should not be on hull")
	}
	// Point on a hull edge counts as on the hull.
	pts2 := append(pts, v(5, 0))
	on, onCH = OnConvexHull(pts2, v(5, 0))
	if !on {
		t.Fatal("edge point should be on hull")
	}
	if len(onCH) != 5 {
		t.Fatalf("onCH with edge point size = %d", len(onCH))
	}
}

func TestMoveToPoint(t *testing.T) {
	c1 := v(0, 0)
	c2 := v(10, 0)
	interior := v(5, 5) // hull interior above the segment
	n := 8
	mu := MoveToPoint(c1, c2, n, interior)
	// µ must be on the unit circle around c2.
	if !almostEq(mu.Dist(c2), 1, 1e-9) {
		t.Fatalf("mu %v not on unit circle of c2 (dist %v)", mu, mu.Dist(c2))
	}
	// µ must be on the c1 side of c2 and offset toward the interior side.
	if mu.X >= c2.X {
		t.Fatalf("mu %v should be between c1 and c2", mu)
	}
	if mu.Y <= 0 {
		t.Fatalf("mu %v should be offset toward the hull interior", mu)
	}
	// The offset at c2 is 1/(2n)-eps, so the angular offset of mu is small.
	if mu.Y > 1/(2*float64(n)) {
		t.Fatalf("mu offset %v larger than 1/2n", mu.Y)
	}
}

func TestMoveToPointDegenerate(t *testing.T) {
	c := v(3, 3)
	if got := MoveToPoint(c, c, 5, v(0, 0)); !got.Eq(c) {
		t.Fatalf("coincident centers should return c1, got %v", got)
	}
	// c1 inside the unit disc of c2: fall back to the offset point.
	got := MoveToPoint(v(10.5, 0), v(10, 0), 5, v(5, 5))
	if got.Dist(v(10, 0)) > 1+1e-9 {
		t.Fatalf("fallback point should stay within the unit disc, got %v", got)
	}
}

func TestTangencyTarget(t *testing.T) {
	c1 := v(0, 0)
	c2 := v(10, 0)
	mu := MoveToPoint(c1, c2, 8, v(5, 5))
	stop := TangencyTarget(c1, c2, mu)
	if !almostEq(stop.Dist(c2), 2, 1e-6) {
		t.Fatalf("tangency stop %v should be at distance 2 from c2, got %v", stop, stop.Dist(c2))
	}
	// Moving from c1 toward mu, the stop point lies on that ray.
	if geom.DistancePointLine(stop, c1, mu) > 1e-6 {
		t.Fatalf("stop point %v not on the motion ray", stop)
	}
}

func TestFindPointsSquareWithSpace(t *testing.T) {
	// A big square: every side has room for another robot.
	hull := []geom.Vec{v(0, 0), v(10, 0), v(10, 10), v(0, 10)}
	pts := FindPoints(hull, 4)
	if len(pts) != 4 {
		t.Fatalf("expected 4 candidate points, got %d: %v", len(pts), pts)
	}
	for _, p := range pts {
		// Each candidate is outside the hull by 1/n.
		if geom.PointInConvexPolygon(p, hull) {
			t.Fatalf("candidate %v should be outside the hull", p)
		}
		// And adding it must keep all hull points on the hull (Lemma 1).
		if !findPointValid(p, hull) {
			t.Fatalf("candidate %v reported invalid", p)
		}
		for _, q := range hull {
			if p.Dist(q) < 2 {
				t.Fatalf("candidate %v overlaps hull robot %v", p, q)
			}
		}
	}
}

func TestFindPointsNoSpace(t *testing.T) {
	// A tight triangle: sides are below the space threshold.
	hull := []geom.Vec{v(0, 0), v(2.5, 0), v(1.2, 2.2)}
	if pts := FindPoints(hull, 3); len(pts) != 0 {
		t.Fatalf("expected no candidates, got %v", pts)
	}
	if pts := FindPoints([]geom.Vec{v(0, 0)}, 3); pts != nil {
		t.Fatalf("single point hull should yield nil, got %v", pts)
	}
}

func TestFindPointsTwoPointHull(t *testing.T) {
	hull := []geom.Vec{v(0, 0), v(8, 0)}
	pts := FindPoints(hull, 2)
	if len(pts) != 1 {
		t.Fatalf("expected one candidate on the single side, got %v", pts)
	}
}

func TestInStraightLine2(t *testing.T) {
	if !InStraightLine2(v(0, 0), v(1, 0), v(2, 0)) {
		t.Fatal("collinear points should be on a line")
	}
	if InStraightLine2(v(0, 0), v(1, 0.5), v(2, 0)) {
		t.Fatal("bent points should not be on a line")
	}
}

func TestInStraightLineRect(t *testing.T) {
	n := 10
	if !InStraightLineRect(v(0, 0), v(5, 0.05), v(10, 0), n) {
		t.Fatal("point within 1/n of the chord is in the rectangle")
	}
	if InStraightLineRect(v(0, 0), v(5, 0.5), v(10, 0), n) {
		t.Fatal("point beyond 1/n of the chord is outside the rectangle")
	}
}
