package core

import (
	"fmt"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// refSelfBlocksPair is selfBlocksPair without the corridor shortcuts: every
// pair's obstacles are every view point other than the pair, with and
// without the points at the observer's position, handed whole to
// VisiblePairScratch with a fresh Scratch. The corridor version must pick the
// same pair, bit for bit.
func refSelfBlocksPair(all []geom.Vec, self geom.Vec) (a, b geom.Vec, blocks bool) {
	if len(all) < 3 {
		return geom.Vec{}, geom.Vec{}, false
	}
	without := func(p, q, skip geom.Vec, exclude bool) []geom.Vec {
		var out []geom.Vec
		for _, c := range all {
			if c.EqWithin(p, geom.Eps) || c.EqWithin(q, geom.Eps) || (exclude && c.EqWithin(skip, geom.Eps)) {
				continue
			}
			out = append(out, c)
		}
		return out
	}
	visiblePair := func(p, q geom.Vec, obstacles []geom.Vec) bool {
		var sc vision.Scratch
		return visionModel.VisiblePairScratch(&sc, p, q, obstacles)
	}
	bestDist := -1.0
	for i := 0; i < len(all); i++ {
		if all[i].EqWithin(self, geom.Eps) {
			continue
		}
		for j := i + 1; j < len(all); j++ {
			if all[j].EqWithin(self, geom.Eps) {
				continue
			}
			if visiblePair(all[i], all[j], without(all[i], all[j], geom.Vec{}, false)) {
				continue
			}
			if !visiblePair(all[i], all[j], without(all[i], all[j], self, true)) {
				continue
			}
			dist := geom.DistancePointSegment(self, all[i], all[j])
			if !blocks || dist < bestDist {
				a, b, blocks = all[i], all[j], true
				bestDist = dist
			}
		}
	}
	return a, b, blocks
}

// TestVisibilityHelpersMatchReference checks viewFullyVisible against
// Model.FullyVisible and selfBlocksPair against the unfiltered reference,
// from every robot of every workload kind at several sizes, with full views
// and with the robot's actual Look view, plus views where another robot
// (illegally) sits within Eps of the observer.
func TestVisibilityHelpersMatchReference(t *testing.T) {
	check := func(name string, v View) {
		t.Helper()
		d := new(decider)
		d.reset(v)
		if got, want := d.viewFullyVisible(), visionModel.FullyVisible(d.hull.all); got != want {
			t.Fatalf("%s: viewFullyVisible=%v, FullyVisible %v", name, got, want)
		}
		ga, gb, gblocks := d.selfBlocksPair()
		wa, wb, wblocks := refSelfBlocksPair(d.hull.all, v.Self)
		if ga != wa || gb != wb || gblocks != wblocks {
			t.Fatalf("%s: selfBlocksPair=(%v,%v,%v), reference (%v,%v,%v)", name, ga, gb, gblocks, wa, wb, wblocks)
		}
	}
	for _, kind := range workload.Kinds() {
		for _, n := range []int{3, 5, 8, 16} {
			for seed := int64(1); seed <= 2; seed++ {
				all, err := workload.Generate(kind, n, seed)
				if err != nil {
					t.Fatalf("generate %s: %v", kind, err)
				}
				for i := range all {
					name := fmt.Sprintf("%s n=%d seed=%d robot=%d", kind, n, seed, i)
					check(name+" full", viewOfAll(all, i))
					look := visionModel.ViewCenters(all, i)
					check(name+" look", NewView(all[i], dropNear(look, all[i]), n))
					twin := append(viewOfAll(all, i).Others, all[i].Add(geom.V(geom.Eps/4, 0)))
					check(name+" twin", NewView(all[i], twin, n+1))
				}
			}
		}
	}
}

// TestSelfBlocksPairAtCorridorEdge puts the observer where it is the only
// disc that can block a pair: a wall just below the chord blocks every
// candidate sight line except the upper outer tangent, and the observer sits
// above that tangent at distance r+BlockTol, a little less or a little more,
// i.e. at the very edge of the pair's corridor.
func TestSelfBlocksPairAtCorridorEdge(t *testing.T) {
	p, q, wall := geom.V(0, 0), geom.V(10, 0), geom.V(5, -0.03)
	for _, dy := range []float64{0, vision.BlockTol / 2, vision.BlockTol, 2 * vision.BlockTol} {
		for _, x := range []float64{0, 5, 10} {
			self := geom.V(x, 2+dy)
			v := NewView(self, []geom.Vec{p, q, wall}, 4)
			d := new(decider)
			d.reset(v)
			ga, gb, gblocks := d.selfBlocksPair()
			wa, wb, wblocks := refSelfBlocksPair(d.hull.all, self)
			if ga != wa || gb != wb || gblocks != wblocks {
				t.Fatalf("self=%v: selfBlocksPair=(%v,%v,%v), reference (%v,%v,%v)", self, ga, gb, gblocks, wa, wb, wblocks)
			}
			if (dy == 0 && !wblocks) || (dy == 2*vision.BlockTol && wblocks) {
				t.Fatalf("self=%v dy=%g: reference blocks=%v (the construction is off)", self, dy, wblocks)
			}
		}
	}
}
