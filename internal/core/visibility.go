package core

import (
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// visionModel is the visibility predicate the local algorithm uses to reason
// about occlusion within a view. It matches the model used by the Look state
// in the simulator (conservative sight lines over opaque unit discs).
var visionModel = vision.Default

// viewFullyVisible reports whether, treating the robots in the view as the
// only robots in the plane, every robot can see every other robot. This is
// the operative form of the paper's "all robots have full visibility
// according to Vi" check in Procedure OnConvexHull. It scans the ordered
// pairs through the decider's reused scratch, with the early-exit order of
// Model.FullyVisible.
func (d *decider) viewFullyVisible() bool {
	all := d.hull.all
	for i := range all {
		for j := range all {
			if !visionModel.VisibleScratch(&d.vsc, all, i, j) {
				return false
			}
		}
	}
	return true
}

// selfBlocksPair reports whether the observing robot occludes some pair of
// robots in its view: the pair cannot see each other with the observer
// present, but could if the observer were removed. It returns one such pair
// (preferring the pair whose chord the observer is closest to).
//
// The obstacles of a pair are the view points other than the pair itself,
// with and without the points within Eps of the observer. Only discs in the
// pair's corridor can block a sight line (see vision.Corridor), so when the
// observer lies outside the corridor the two verdicts agree and the pair is
// skipped before any sight line is generated: a point within Eps of the
// observer is then still farther than 2r+BlockTol from the pair's segment,
// as the corridor's 1e-6 margin dwarfs Eps, and cannot block either.
func (d *decider) selfBlocksPair() (a, b geom.Vec, blocks bool) {
	all := d.hull.all
	self := d.view.Self
	if len(all) < 3 {
		return geom.Vec{}, geom.Vec{}, false
	}
	bestDist := -1.0
	for i := 0; i < len(all); i++ {
		p := all[i]
		if p.EqWithin(self, geom.Eps) {
			continue
		}
		for j := i + 1; j < len(all); j++ {
			q := all[j]
			if q.EqWithin(self, geom.Eps) {
				continue
			}
			cor := visionModel.Corridor(p, q)
			if !cor.Contains(self) {
				continue
			}
			d.obsBuf = d.obsBuf[:0]
			for _, c := range all {
				if cor.Contains(c) && !c.EqWithin(p, geom.Eps) && !c.EqWithin(q, geom.Eps) {
					d.obsBuf = append(d.obsBuf, c)
				}
			}
			if visionModel.VisiblePairScratch(&d.vsc, p, q, d.obsBuf) {
				continue
			}
			d.obsBuf = dropNear(d.obsBuf, self)
			if !visionModel.VisiblePairScratch(&d.vsc, p, q, d.obsBuf) {
				continue // blocked by someone else too; not this robot's job
			}
			dist := geom.DistancePointSegment(self, p, q)
			if !blocks || dist < bestDist {
				a, b, blocks = p, q, true
				bestDist = dist
			}
		}
	}
	return a, b, blocks
}

// dropNear removes from pts, in place, every point within Eps of skip.
func dropNear(pts []geom.Vec, skip geom.Vec) []geom.Vec {
	out := pts[:0]
	for _, c := range pts {
		if !c.EqWithin(skip, geom.Eps) {
			out = append(out, c)
		}
	}
	return out
}
