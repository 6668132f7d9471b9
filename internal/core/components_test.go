package core

import (
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// ringPositions returns n points evenly spaced on a circle of radius r.
func ringPositions(n int, r float64) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.V(r*math.Cos(a), r*math.Sin(a))
	}
	return pts
}

func TestComponentGapTol(t *testing.T) {
	if ComponentGapTol(4) != 0.125 {
		t.Fatalf("tol(4) = %v", ComponentGapTol(4))
	}
	if ComponentGapTol(0) != 0.5 {
		t.Fatalf("tol(0) should treat m as 1, got %v", ComponentGapTol(0))
	}
}

func TestConnectedComponentsSingle(t *testing.T) {
	// A chain of tangent discs is a single component.
	pts := []geom.Vec{v(0, 0), v(2, 0), v(4, 0), v(6, 0)}
	comps := ConnectedComponents(pts, 4)
	if len(comps) != 1 {
		t.Fatalf("expected one component, got %d", len(comps))
	}
	if comps[0].Size() != 4 {
		t.Fatalf("component size = %d", comps[0].Size())
	}
}

func TestConnectedComponentsWidelySpread(t *testing.T) {
	// Points far apart: every robot is its own component.
	pts := ringPositions(6, 20)
	comps := ConnectedComponents(pts, 6)
	if len(comps) != 6 {
		t.Fatalf("expected 6 singleton components, got %d", len(comps))
	}
	for _, c := range comps {
		if c.Size() != 1 {
			t.Fatalf("expected singletons, got size %d", c.Size())
		}
		if !c.Leftmost().Eq(c.Rightmost()) {
			t.Fatal("singleton leftmost != rightmost")
		}
	}
}

func TestConnectedComponentsTwoGroups(t *testing.T) {
	// Two pairs of tangent discs far apart on a hull.
	pts := []geom.Vec{v(0, 0), v(2, 0), v(20, 0), v(22, 0), v(11, 15)}
	comps := ConnectedComponents(pts, 5)
	if len(comps) != 3 {
		t.Fatalf("expected 3 components, got %d: %+v", len(comps), comps)
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[c.Size()]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Fatalf("unexpected sizes: %+v", comps)
	}
}

func TestConnectedComponentsSmallGapMerged(t *testing.T) {
	// A gap smaller than 1/(2m) does not split the component.
	m := 4
	gap := ComponentGapTol(m) / 2
	pts := []geom.Vec{v(0, 0), v(2+gap, 0), v(30, 0)}
	comps := ConnectedComponents(pts, m)
	if len(comps) != 2 {
		t.Fatalf("expected 2 components, got %d", len(comps))
	}
	found := false
	for _, c := range comps {
		if c.Size() == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("near-tangent pair should form one component")
	}
}

func TestConnectedComponentsEdgeCases(t *testing.T) {
	if comps := ConnectedComponents(nil, 3); comps != nil {
		t.Fatalf("empty input: %v", comps)
	}
	comps := ConnectedComponents([]geom.Vec{v(1, 1)}, 3)
	if len(comps) != 1 || comps[0].Size() != 1 {
		t.Fatalf("single point: %v", comps)
	}
	if comps[0].Contains(v(1, 1)) == false {
		t.Fatal("Contains should find the member")
	}
	if comps[0].Contains(v(9, 9)) {
		t.Fatal("Contains should reject non-members")
	}
	var empty Component
	if !empty.Leftmost().Eq(geom.Vec{}) || !empty.Rightmost().Eq(geom.Vec{}) {
		t.Fatal("empty component endpoints should be zero")
	}
}

func TestHowMuchDistance(t *testing.T) {
	// Three singleton components on a ring: all gaps equal -> 2 for everyone.
	ring := ringPositions(3, 10)
	for _, p := range ring {
		if got := HowMuchDistance(ring, p, 3); got != 2 {
			t.Fatalf("equal gaps: got %d want 2", got)
		}
	}
	// Single component -> 2.
	chain := []geom.Vec{v(0, 0), v(2, 0), v(4, 0)}
	if got := HowMuchDistance(chain, v(0, 0), 3); got != 2 {
		t.Fatalf("single component: got %d want 2", got)
	}
	// Unequal gaps: only the rightmost robot of the min-gap component gets 1.
	pts := []geom.Vec{v(0, 0), v(6, 0), v(6, 30), v(0, 36)}
	ones := 0
	for _, p := range pts {
		switch HowMuchDistance(pts, p, 4) {
		case 1:
			ones++
		case 2:
			t.Fatalf("gaps are unequal; nobody should get 2")
		}
	}
	if ones < 1 {
		t.Fatalf("expected at least one robot to be designated mover, got %d", ones)
	}
}

func TestComponentGaps(t *testing.T) {
	pts := []geom.Vec{v(0, 0), v(2, 0), v(10, 0), v(5, 8)}
	comps := ConnectedComponents(pts, len(pts))
	gaps := componentGaps(comps)
	if len(gaps) != len(comps) {
		t.Fatalf("gap count %d != component count %d", len(gaps), len(comps))
	}
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
	}
}
