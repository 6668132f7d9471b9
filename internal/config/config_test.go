package config

import (
	"errors"
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

func v(x, y float64) geom.Vec { return geom.V(x, y) }

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Geometric
		wantErr bool
	}{
		{"empty", Geometric{}, false},
		{"single", Geometric{v(0, 0)}, false},
		{"separate", Geometric{v(0, 0), v(5, 0)}, false},
		{"tangent", Geometric{v(0, 0), v(2, 0)}, false},
		{"overlap", Geometric{v(0, 0), v(1, 0)}, true},
		{"nan", Geometric{v(math.NaN(), 0)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v wantErr = %v", err, tt.wantErr)
			}
		})
	}
	err := Geometric{v(0, 0), v(1, 0)}.Validate()
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("expected ErrOverlap, got %v", err)
	}
}

func TestTouching(t *testing.T) {
	g := Geometric{v(0, 0), v(2, 0), v(10, 0)}
	if !g.Touching(0, 1) {
		t.Fatal("0 and 1 should touch")
	}
	if g.Touching(0, 2) {
		t.Fatal("0 and 2 should not touch")
	}
	if g.Touching(1, 1) {
		t.Fatal("a robot does not touch itself")
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		cfg  Geometric
		want bool
	}{
		{"empty", Geometric{}, false},
		{"single", Geometric{v(0, 0)}, true},
		{"chain", Geometric{v(0, 0), v(2, 0), v(4, 0)}, true},
		{"gap", Geometric{v(0, 0), v(2, 0), v(10, 0)}, false},
		{"two-pairs", Geometric{v(0, 0), v(2, 0), v(10, 0), v(12, 0)}, false},
		{"L-shape", Geometric{v(0, 0), v(2, 0), v(2, 2)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.cfg.Connected(); got != tt.want {
				t.Fatalf("got %v want %v", got, tt.want)
			}
		})
	}
}

func TestHullPredicates(t *testing.T) {
	square := Geometric{v(0, 0), v(10, 0), v(10, 10), v(0, 10)}
	if !square.AllOnHull() {
		t.Fatal("square corners should all be on hull")
	}
	if square.OnHullCount() != 4 {
		t.Fatalf("hull count = %d", square.OnHullCount())
	}
	withInterior := Geometric{v(0, 0), v(10, 0), v(10, 10), v(0, 10), v(5, 5)}
	if withInterior.AllOnHull() {
		t.Fatal("interior robot should not be on hull")
	}
	if withInterior.OnHullCount() != 4 {
		t.Fatalf("hull count = %d", withInterior.OnHullCount())
	}
	if !almostEq(square.HullArea(), 100, 1e-9) {
		t.Fatalf("area = %v", square.HullArea())
	}
}

func TestGatheredAndVisibility(t *testing.T) {
	m := vision.Default
	// Three tangent robots in a bent chain: connected and fully visible.
	bent := Geometric{v(0, 0), v(2, 0), v(3, math.Sqrt(3))}
	if !bent.Connected() {
		t.Fatal("bent chain should be connected")
	}
	if !bent.FullyVisible(m) {
		t.Fatal("bent chain of three should be fully visible")
	}
	if !bent.Gathered(m) {
		t.Fatal("bent chain should be gathered")
	}
	// Spread-out robots: fully visible but not connected.
	spread := Geometric{v(0, 0), v(10, 0), v(5, 10)}
	if spread.Gathered(m) {
		t.Fatal("spread robots are not gathered")
	}
	// Long straight tangent chain: connected but not fully visible.
	line := Geometric{v(0, 0), v(2, 0), v(4, 0), v(6, 0)}
	if !line.Connected() {
		t.Fatal("line should be connected")
	}
	if line.FullyVisible(m) {
		t.Fatal("straight chain should not be fully visible")
	}
	if line.Gathered(m) {
		t.Fatal("straight chain is not gathered")
	}
}

func TestScalarMeasures(t *testing.T) {
	g := Geometric{v(0, 0), v(3, 4), v(10, 0)}
	if !almostEq(g.Spread(), 10, 1e-9) {
		t.Fatalf("spread = %v", g.Spread())
	}
	if !almostEq(g.MinPairDistance(), 5, 1e-9) {
		t.Fatalf("min pair = %v", g.MinPairDistance())
	}
	if !math.IsInf(Geometric{v(0, 0)}.MinPairDistance(), 1) {
		t.Fatal("single robot min pair should be +Inf")
	}
	min, max := g.BoundingBox()
	if !min.EqWithin(v(-1, -1), 1e-9) || !max.EqWithin(v(11, 5), 1e-9) {
		t.Fatalf("bbox = %v %v", min, max)
	}
}

func TestClone(t *testing.T) {
	g := Geometric{v(0, 0), v(5, 5)}
	c := g.Clone()
	c[0] = v(99, 99)
	if g[0].Eq(v(99, 99)) {
		t.Fatal("clone should not alias")
	}
}

func TestContactGraphSymmetry(t *testing.T) {
	g := Geometric{v(0, 0), v(2, 0), v(4, 0), v(4, 2)}
	adj := g.ContactGraph()
	for i, nbs := range adj {
		for _, j := range nbs {
			found := false
			for _, k := range adj[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("contact graph not symmetric: %d->%d", i, j)
			}
		}
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
