package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4), V(2, 2), V(1, 1)}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("expected 4 hull vertices, got %d: %v", len(hull), hull)
	}
	for _, p := range []Vec{V(2, 2), V(1, 1)} {
		for _, h := range hull {
			if h.Eq(p) {
				t.Fatalf("interior point %v on hull", p)
			}
		}
	}
	if !almostEq(PolygonArea(hull), 16, 1e-9) {
		t.Fatalf("hull area = %v", PolygonArea(hull))
	}
}

func TestConvexHullCCWOrder(t *testing.T) {
	pts := []Vec{V(0, 0), V(3, 1), V(4, 4), V(1, 3), V(2, 2)}
	hull := ConvexHull(pts)
	if len(hull) < 3 {
		t.Fatalf("hull too small: %v", hull)
	}
	for i := range hull {
		a := hull[i]
		b := hull[(i+1)%len(hull)]
		c := hull[(i+2)%len(hull)]
		if Orientation(a, b, c) == Clockwise {
			t.Fatalf("hull not CCW at %d: %v %v %v", i, a, b, c)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
	if got := ConvexHull([]Vec{V(1, 1)}); len(got) != 1 {
		t.Fatalf("single point: %v", got)
	}
	if got := ConvexHull([]Vec{V(1, 1), V(2, 2)}); len(got) != 2 {
		t.Fatalf("two points: %v", got)
	}
	if got := ConvexHull([]Vec{V(1, 1), V(1, 1), V(1, 1)}); len(got) != 1 {
		t.Fatalf("duplicates: %v", got)
	}
	// All collinear: hull corners are the two extremes.
	got := ConvexHull([]Vec{V(0, 0), V(1, 0), V(2, 0), V(3, 0)})
	if len(got) != 2 {
		t.Fatalf("collinear: %v", got)
	}
}

func TestConvexHullWithCollinear(t *testing.T) {
	// A square with an extra point on the bottom edge: the edge point is on
	// the hull boundary but not a corner.
	pts := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4), V(2, 0), V(2, 2)}
	onHull := ConvexHullWithCollinear(pts)
	want := map[Vec]bool{V(0, 0): true, V(4, 0): true, V(4, 4): true, V(0, 4): true, V(2, 0): true}
	if len(onHull) != len(want) {
		t.Fatalf("expected %d on-hull points, got %d: %v", len(want), len(onHull), onHull)
	}
	for _, p := range onHull {
		if !want[p] {
			t.Fatalf("unexpected on-hull point %v", p)
		}
	}
	// Fully collinear input: every point is on the (degenerate) hull, in
	// order along the line.
	line := []Vec{V(3, 0), V(0, 0), V(1, 0), V(2, 0)}
	onHull = ConvexHullWithCollinear(line)
	if len(onHull) != 4 {
		t.Fatalf("collinear: expected 4, got %v", onHull)
	}
}

func TestOnHullAndIsHullVertex(t *testing.T) {
	pts := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4), V(2, 0), V(2, 2)}
	if !OnHull(pts, V(2, 0)) {
		t.Fatal("edge point should be on hull")
	}
	if !OnHull(pts, V(4, 4)) {
		t.Fatal("corner should be on hull")
	}
	if OnHull(pts, V(2, 2)) {
		t.Fatal("interior point should not be on hull")
	}
}

func TestPointInConvexPolygon(t *testing.T) {
	square := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4)}
	tests := []struct {
		name string
		p    Vec
		want bool
	}{
		{"center", V(2, 2), true},
		{"corner", V(0, 0), true},
		{"edge", V(2, 0), true},
		{"outside", V(5, 2), false},
		{"outside-diag", V(-1, -1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PointInConvexPolygon(tt.p, square); got != tt.want {
				t.Fatalf("got %v want %v", got, tt.want)
			}
		})
	}
	if !PointInConvexPolygon(V(1, 1), []Vec{V(1, 1)}) {
		t.Fatal("single-vertex polygon should contain its vertex")
	}
	if !PointInConvexPolygon(V(1, 0), []Vec{V(0, 0), V(2, 0)}) {
		t.Fatal("two-vertex polygon should contain points on the segment")
	}
}

func TestPolygonMeasures(t *testing.T) {
	square := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4)}
	if !almostEq(PolygonArea(square), 16, 1e-9) {
		t.Fatalf("area = %v", PolygonArea(square))
	}
	if PolygonArea([]Vec{V(0, 0), V(1, 0)}) != 0 {
		t.Fatal("degenerate polygon area should be 0")
	}
	tri := []Vec{V(0, 0), V(4, 0), V(0, 3)}
	if !almostEq(PolygonArea(tri), 6, 1e-9) {
		t.Fatalf("triangle area = %v", PolygonArea(tri))
	}
}

// Property: every input point lies inside or on the convex hull.
func TestHullContainsAllPointsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%30) + 3
		pts := make([]Vec, count)
		for i := range pts {
			pts[i] = V(rng.Float64()*100-50, rng.Float64()*100-50)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			return true
		}
		for _, p := range pts {
			if !PointInConvexPolygon(p, hull) && boundaryDistance(p, hull) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// boundaryDistance returns the distance from p to the boundary of the
// polygon poly.
func boundaryDistance(p Vec, poly []Vec) float64 {
	best := math.Inf(1)
	for i := range poly {
		best = math.Min(best, DistancePointSegment(p, poly[i], poly[(i+1)%len(poly)]))
	}
	return best
}

// Property: hull of the hull is the hull (idempotence) and hull area never
// exceeds the bounding box area.
func TestHullIdempotenceProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%20) + 3
		pts := make([]Vec, count)
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for i := range pts {
			pts[i] = V(rng.Float64()*40-20, rng.Float64()*40-20)
			minX = math.Min(minX, pts[i].X)
			maxX = math.Max(maxX, pts[i].X)
			minY = math.Min(minY, pts[i].Y)
			maxY = math.Max(maxY, pts[i].Y)
		}
		hull := ConvexHull(pts)
		hull2 := ConvexHull(hull)
		if len(hull) != len(hull2) {
			return false
		}
		boxArea := (maxX - minX) * (maxY - minY)
		return PolygonArea(hull) <= boxArea+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// lexLess must stay an exact (tolerance-free) strict weak ordering: it
// canonicalizes hull input, and a fuzzy comparison would make the sort — and
// therefore the hull walk — input-order dependent. Sub-Eps coordinate
// differences must still order points deterministically.
func TestLexLessIsExactStrictWeakOrder(t *testing.T) {
	a := V(1.0, 0)
	b := V(1.0+Eps/8, 0) // closer than Eps: a fuzzy compare would tie these
	if !lexLess(a, b) || lexLess(b, a) {
		t.Fatalf("sub-Eps x difference must still order exactly: lexLess(a,b)=%v lexLess(b,a)=%v", lexLess(a, b), lexLess(b, a))
	}
	c := V(1.0, 2.0)
	d := V(1.0, 2.0+Eps/8)
	if !lexLess(c, d) || lexLess(d, c) {
		t.Fatalf("sub-Eps y difference must still order exactly")
	}
	if lexLess(a, a) {
		t.Fatalf("lexLess must be irreflexive")
	}
}

// ConvexHull output must not depend on the input permutation. This pins the
// sort.Slice(..., lexLess) canonicalization that replaced the inline
// comparator.
func TestConvexHullPermutationInvariant(t *testing.T) {
	pts := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4), V(2, 2), V(1, 3), V(3, 1)}
	want := ConvexHull(pts)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := make([]Vec, len(pts))
		for i, j := range rng.Perm(len(pts)) {
			perm[i] = pts[j]
		}
		got := ConvexHull(perm)
		if len(got) != len(want) {
			t.Fatalf("trial %d: hull size %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hull[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
