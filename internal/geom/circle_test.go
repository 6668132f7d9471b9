package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCircleContains(t *testing.T) {
	c := Circle{Center: V(0, 0), Radius: 2}
	if !c.OnBoundary(V(2, 0), 1e-9) {
		t.Fatal("boundary point should be on boundary")
	}
	if c.OnBoundary(V(1, 0), 1e-9) {
		t.Fatal("interior point should not be on boundary")
	}
	if c.OnBoundary(V(3, 0), 1e-9) {
		t.Fatal("exterior point should not be on boundary")
	}
}

func TestUnitDiscAndPointAtAngle(t *testing.T) {
	d := UnitDisc(V(3, 4))
	if d.Radius != UnitRadius {
		t.Fatalf("radius = %v", d.Radius)
	}
	p := d.PointAtAngle(0)
	if !p.EqWithin(V(4, 4), 1e-12) {
		t.Fatalf("point at 0 = %v", p)
	}
	p = d.PointAtAngle(math.Pi / 2)
	if !p.EqWithin(V(3, 5), 1e-12) {
		t.Fatalf("point at pi/2 = %v", p)
	}
}

func TestDiscsOverlapAndTangent(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Vec
		tangent bool
	}{
		{"far", V(0, 0), V(5, 0), false},
		{"tangent", V(0, 0), V(2, 0), true},
		{"overlapping", V(0, 0), V(1.5, 0), false},
		{"coincident", V(0, 0), V(0, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DiscsTangent(tt.a, tt.b, 1, 1e-7); got != tt.tangent {
				t.Fatalf("tangent got %v want %v", got, tt.tangent)
			}
		})
	}
}

func TestSegmentIntersectsDisc(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Vec
		center Vec
		want   bool
	}{
		{"through-center", V(-5, 0), V(5, 0), V(0, 0), true},
		{"misses", V(-5, 3), V(5, 3), V(0, 0), false},
		{"tangent-line", V(-5, 1), V(5, 1), V(0, 0), false},
		{"stops-short", V(-5, 0), V(-3, 0), V(0, 0), false},
		{"grazes-inside", V(-5, 0.5), V(5, 0.5), V(0, 0), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentIntersectsDisc(tt.a, tt.b, tt.center, 1, 1e-9); got != tt.want {
				t.Fatalf("got %v want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentCircleIntersections(t *testing.T) {
	c := Circle{Center: V(0, 0), Radius: 1}
	pts := AppendSegmentCircleIntersections(nil, V(-2, 0), V(2, 0), c)
	if len(pts) != 2 {
		t.Fatalf("diameter chord: got %d points", len(pts))
	}
	pts = AppendSegmentCircleIntersections(nil, V(-2, 1), V(2, 1), c)
	if len(pts) != 1 {
		t.Fatalf("tangent: got %d points", len(pts))
	}
	pts = AppendSegmentCircleIntersections(nil, V(-2, 2), V(2, 2), c)
	if len(pts) != 0 {
		t.Fatalf("miss: got %d points", len(pts))
	}
	pts = AppendSegmentCircleIntersections(nil, V(0, 0), V(0.5, 0), c)
	if len(pts) != 0 {
		t.Fatalf("fully inside: got %d points", len(pts))
	}
	pts = AppendSegmentCircleIntersections(nil, V(0, 0), V(2, 0), c)
	if len(pts) != 1 || !pts[0].EqWithin(V(1, 0), 1e-9) {
		t.Fatalf("exiting: got %v", pts)
	}
	// Points already in dst are kept and do not hide an equal new one.
	pts = AppendSegmentCircleIntersections([]Vec{V(1, 0)}, V(0, 0), V(2, 0), c)
	if len(pts) != 2 || !pts[1].EqWithin(V(1, 0), 1e-9) {
		t.Fatalf("exiting after a prefix: got %v", pts)
	}
}

func TestCircleCircleIntersections(t *testing.T) {
	a := Circle{Center: V(0, 0), Radius: 1}
	tests := []struct {
		name string
		b    Circle
		want int
	}{
		{"two-points", Circle{Center: V(1, 0), Radius: 1}, 2},
		{"tangent-external", Circle{Center: V(2, 0), Radius: 1}, 1},
		{"disjoint", Circle{Center: V(5, 0), Radius: 1}, 0},
		{"contained", Circle{Center: V(0.1, 0), Radius: 0.2}, 0},
		{"concentric", Circle{Center: V(0, 0), Radius: 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CircleCircleIntersections(a, tt.b)
			if len(got) != tt.want {
				t.Fatalf("got %d points want %d (%v)", len(got), tt.want, got)
			}
			for _, p := range got {
				if !a.OnBoundary(p, 1e-7) || !tt.b.OnBoundary(p, 1e-7) {
					t.Fatalf("intersection %v not on both boundaries", p)
				}
			}
		})
	}
}

func TestOuterTangentSegments(t *testing.T) {
	segs := AppendOuterTangentSegments(nil, V(0, 0), V(10, 0), 1)
	if len(segs) != 2 {
		t.Fatalf("got %d segments", len(segs))
	}
	for _, s := range segs {
		if !almostEq(math.Abs(s.A.Y), 1, 1e-9) || !almostEq(math.Abs(s.B.Y), 1, 1e-9) {
			t.Fatalf("outer tangent endpoints should be at |y|=1: %v", s)
		}
		if !almostEq(s.A.Dist(s.B), 10, 1e-9) {
			t.Fatalf("outer tangent length should equal center distance: %v", s.A.Dist(s.B))
		}
	}
	if AppendOuterTangentSegments(nil, V(1, 1), V(1, 1), 1) != nil {
		t.Fatal("coincident centers should append nothing")
	}
}

// Property: intersection points of two circles are equidistant from both
// centers by the respective radii.
func TestCircleIntersectionProperty(t *testing.T) {
	f := func(ax, ay, bx, by, r1, r2 float64) bool {
		for _, v := range []float64{ax, ay, bx, by, r1, r2} {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				return true
			}
		}
		r1 = math.Abs(r1) + 0.1
		r2 = math.Abs(r2) + 0.1
		c1 := Circle{Center: V(ax, ay), Radius: r1}
		c2 := Circle{Center: V(bx, by), Radius: r2}
		for _, p := range CircleCircleIntersections(c1, c2) {
			if !almostEq(p.Dist(c1.Center), r1, 1e-6*(1+r1)) {
				return false
			}
			if !almostEq(p.Dist(c2.Center), r2, 1e-6*(1+r2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
