package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fatgather/fatgather/internal/geom"
)

func v(x, y float64) geom.Vec { return geom.V(x, y) }

// visiblePair asks VisiblePairScratch with a fresh Scratch.
func visiblePair(m *Model, a, b geom.Vec, obstacles []geom.Vec) bool {
	var sc Scratch
	return m.VisiblePairScratch(&sc, a, b, obstacles)
}

func TestVisibleNoObstacles(t *testing.T) {
	centers := []geom.Vec{v(0, 0), v(10, 0)}
	if !Default.Visible(centers, 0, 1) {
		t.Fatal("two robots alone should see each other")
	}
	if !Default.Visible(centers, 0, 0) {
		t.Fatal("a robot should see itself")
	}
}

func TestVisibleBlockedByMiddleRobot(t *testing.T) {
	// Three collinear robots: the middle one blocks the outer two.
	centers := []geom.Vec{v(0, 0), v(5, 0), v(10, 0)}
	if Default.Visible(centers, 0, 2) {
		t.Fatal("middle robot should block the outer pair")
	}
	if !Default.Visible(centers, 0, 1) {
		t.Fatal("adjacent robots should see each other")
	}
	if !Default.Visible(centers, 1, 2) {
		t.Fatal("adjacent robots should see each other")
	}
}

func TestVisibleOffsetUnblocks(t *testing.T) {
	// If the middle robot is displaced enough, the outer pair can see each
	// other again around it.
	centers := []geom.Vec{v(0, 0), v(5, 3), v(10, 0)}
	if !Default.Visible(centers, 0, 2) {
		t.Fatal("displaced middle robot should not block")
	}
}

func TestVisibleTouchingRobots(t *testing.T) {
	centers := []geom.Vec{v(0, 0), v(2, 0), v(100, 100)}
	if !Default.Visible(centers, 0, 1) {
		t.Fatal("tangent robots should see each other")
	}
}

func TestVisibleNearMiss(t *testing.T) {
	// The blocker is just off the line; the clearance around it is below a
	// disc radius so the center line is blocked, but a tangent line passes.
	centers := []geom.Vec{v(0, 0), v(5, 1.05), v(10, 0)}
	if !Default.Visible(centers, 0, 2) {
		t.Fatal("blocker displaced by > radius offset should leave a tangent sight line")
	}
}

func TestViewAndViewCenters(t *testing.T) {
	centers := []geom.Vec{v(0, 0), v(5, 0), v(10, 0), v(5, 8)}
	view := Default.View(centers, 0)
	// Robot 0 sees itself, robot 1, robot 3, but not robot 2 (blocked by 1).
	want := []int{0, 1, 3}
	if len(view) != len(want) {
		t.Fatalf("view = %v want %v", view, want)
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view = %v want %v", view, want)
		}
	}
	vc := Default.ViewCenters(centers, 0)
	if len(vc) != 3 || !vc[2].Eq(v(5, 8)) {
		t.Fatalf("view centers = %v", vc)
	}
}

func TestFullVisibility(t *testing.T) {
	square := []geom.Vec{v(0, 0), v(10, 0), v(10, 10), v(0, 10)}
	if !Default.FullyVisible(square) {
		t.Fatal("square corners should be fully visible")
	}
	line := []geom.Vec{v(0, 0), v(4, 0), v(8, 0), v(12, 0)}
	if Default.FullyVisible(line) {
		t.Fatal("a line of robots should not be fully visible")
	}
}

// TestVisibilityCount counts the ordered visible pairs (i, j), i != j, from
// the views: all 12 on a square, 4 on a line of three where the ends cannot
// see past the middle robot.
func TestVisibilityCount(t *testing.T) {
	count := func(centers []geom.Vec) int {
		n := 0
		for i := range centers {
			n += len(Default.View(centers, i)) - 1
		}
		return n
	}
	square := []geom.Vec{v(0, 0), v(10, 0), v(10, 10), v(0, 10)}
	if got := count(square); got != 12 {
		t.Fatalf("square visibility count = %d want 12", got)
	}
	line := []geom.Vec{v(0, 0), v(4, 0), v(8, 0)}
	if got := count(line); got != 4 {
		t.Fatalf("line visibility count = %d want 4", got)
	}
}

func TestVisiblePair(t *testing.T) {
	if !visiblePair(Default, v(0, 0), v(10, 0), nil) {
		t.Fatal("no obstacles should mean visible")
	}
	if visiblePair(Default, v(0, 0), v(10, 0), []geom.Vec{v(5, 0)}) {
		t.Fatal("centered obstacle should block")
	}
	if !visiblePair(Default, v(0, 0), v(10, 0), []geom.Vec{v(5, 50)}) {
		t.Fatal("far obstacle should not block")
	}
}

func TestOptionsRadiusAndSamples(t *testing.T) {
	m := New(Options{Radius: 0.5, BoundarySamples: 4})
	// With radius 0.5 a blocker displaced by 0.8 leaves the center line
	// clear.
	if !visiblePair(m, v(0, 0), v(10, 0), []geom.Vec{v(5, 0.8)}) {
		t.Fatal("small-radius blocker should not block")
	}
	if visiblePair(Default, v(0, 0), v(10, 0), []geom.Vec{v(5, 0.8)}) == true {
		// With unit radius the center line is blocked, but a tangent line at
		// y=+1 or y=-1 may pass; accept either outcome but ensure no panic.
		t.Log("unit-radius visibility via tangent line")
	}
	if m.opts.radius() != 0.5 {
		t.Fatal("radius option not honored")
	}
	if m.opts.samples() != 4 {
		t.Fatal("samples option not honored")
	}
	var zero Options
	if zero.radius() != geom.UnitRadius || zero.samples() != DefaultBoundarySamples {
		t.Fatal("zero options should use defaults")
	}
}

// Property: visibility is symmetric.
func TestVisibilitySymmetryProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		centers := make([]geom.Vec, 0, n)
		for len(centers) < n {
			c := v(rng.Float64()*40, rng.Float64()*40)
			ok := true
			for _, e := range centers {
				if c.Dist(e) < 2.05 {
					ok = false
					break
				}
			}
			if ok {
				centers = append(centers, c)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if Default.Visible(centers, i, j) != Default.Visible(centers, j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing an obstacle never destroys visibility (monotonicity of
// the conservative test).
func TestVisibilityMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := v(0, 0)
		b := v(20, 0)
		var obstacles []geom.Vec
		for len(obstacles) < 4 {
			c := v(rng.Float64()*16+2, rng.Float64()*10-5)
			if c.Dist(a) > 2.05 && c.Dist(b) > 2.05 {
				ok := true
				for _, e := range obstacles {
					if c.Dist(e) < 2.05 {
						ok = false
						break
					}
				}
				if ok {
					obstacles = append(obstacles, c)
				}
			}
		}
		if visiblePair(Default, a, b, obstacles) {
			// Removing any obstacle must keep visibility.
			for skip := range obstacles {
				reduced := make([]geom.Vec, 0, len(obstacles)-1)
				for k, o := range obstacles {
					if k != skip {
						reduced = append(reduced, o)
					}
				}
				if !visiblePair(Default, a, b, reduced) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateSegmentsWithinDiscs(t *testing.T) {
	m := Default
	a, b := v(0, 0), v(12, 3)
	segs := m.candidateSegments(a, b, geom.UnitRadius)
	if len(segs) < 3 {
		t.Fatalf("expected several candidates, got %d", len(segs))
	}
	for _, s := range segs {
		if s.A.Dist(a) > geom.UnitRadius+1e-6 {
			t.Fatalf("candidate start %v not on disc a", s.A)
		}
		if s.B.Dist(b) > geom.UnitRadius+1e-6 {
			t.Fatalf("candidate end %v not on disc b", s.B)
		}
	}
}

func TestSegmentBlocked(t *testing.T) {
	seg := geom.Segment{A: v(0, 0), B: v(10, 0)}
	if !segmentBlocked(seg, []geom.Vec{v(5, 0.5)}, 1) {
		t.Fatal("obstacle overlapping the segment should block")
	}
	if segmentBlocked(seg, []geom.Vec{v(5, 1.5)}, 1) {
		t.Fatal("obstacle clear of the segment should not block")
	}
	if segmentBlocked(seg, nil, 1) {
		t.Fatal("no blockers should not block")
	}
	// Exactly tangent obstacle blocks: robots are closed discs.
	if !segmentBlocked(seg, []geom.Vec{v(5, 1)}, 1) {
		t.Fatal("grazing obstacle should block (closed disc)")
	}
	_ = math.Pi
}
