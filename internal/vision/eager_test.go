package vision

import (
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// This file is the differential oracle for the visibility kernel: the eager
// scan the kernel replaced, kept verbatim (only renamed where a name is
// still taken). It generates all 3+2*samples candidate sight lines up front
// and tests each against every other disc, with no corridor filter. The
// kernel must answer every query exactly as this does.

// eagerVisible is the eager Model.Visible.
func (m *Model) eagerVisible(centers []geom.Vec, i, j int) bool {
	if i == j {
		return true
	}
	if len(centers) <= 2 {
		// No third disc exists to block the pair.
		return true
	}
	r := m.opts.radius()
	for _, seg := range m.candidateSegments(centers[i], centers[j], r) {
		if !segmentBlockedExcept(seg, centers, i, j, r) {
			return true
		}
	}
	return false
}

// eagerVisiblePair is the eager Model.VisiblePairScratch.
func (m *Model) eagerVisiblePair(a, b geom.Vec, obstacles []geom.Vec) bool {
	r := m.opts.radius()
	if len(obstacles) == 0 {
		return true
	}
	for _, seg := range m.candidateSegments(a, b, r) {
		if !eagerSegmentBlocked(seg, obstacles, r) {
			return true
		}
	}
	return false
}

// eagerFullyVisible is the eager flat Model.FullyVisible.
func (m *Model) eagerFullyVisible(centers []geom.Vec) bool {
	for i := range centers {
		for j := range centers {
			if !m.eagerVisible(centers, i, j) {
				return false
			}
		}
	}
	return true
}

// candidateSegments generates the candidate sight lines between the discs at
// a and b: the center-center segment (clipped to the disc boundaries), the
// two outer common tangents, and sampled boundary-to-boundary segments on the
// halves of each disc facing the other.
func (m *Model) candidateSegments(a, b geom.Vec, r float64) []geom.Segment {
	return m.appendCandidateSegments(make([]geom.Segment, 0, 3+m.opts.samples()*2), a, b, r)
}

// appendCandidateSegments appends the candidate sight lines between the discs
// at a and b to dst and returns the extended slice.
func (m *Model) appendCandidateSegments(dst []geom.Segment, a, b geom.Vec, r float64) []geom.Segment {
	dir := b.Sub(a)
	d := dir.Norm()
	if d <= 2*r+geom.Eps {
		// Touching or (illegally) overlapping discs: they trivially see each
		// other through the contact region; a degenerate segment at the
		// contact point witnesses it.
		mid := geom.Midpoint(a, b)
		return append(dst, geom.Segment{A: mid, B: mid})
	}
	u := dir.Unit()
	// Center-line candidate, clipped to the boundaries.
	dst = append(dst, geom.Segment{A: a.Add(u.Scale(r)), B: b.Sub(u.Scale(r))})
	// Outer common tangents.
	dst = geom.AppendOuterTangentSegments(dst, a, b, r)
	// Sampled boundary points on the facing halves.
	nSamples := m.opts.samples()
	base := u.Angle()
	for s := 1; s <= nSamples; s++ {
		// Spread angles in (-pi/2, pi/2) around the facing direction.
		off := (float64(s)/float64(nSamples+1) - 0.5) * math.Pi
		pa := geom.Circle{Center: a, Radius: r}.PointAtAngle(base + off)
		pb := geom.Circle{Center: b, Radius: r}.PointAtAngle(base + math.Pi - off)
		dst = append(dst, geom.Segment{A: pa, B: pb})
	}
	return dst
}

// eagerSegmentBlocked is the eager segmentBlocked.
func eagerSegmentBlocked(seg geom.Segment, blockers []geom.Vec, r float64) bool {
	for _, c := range blockers {
		if geom.DistancePointSegment(c, seg.A, seg.B) <= r+BlockTol {
			return true
		}
	}
	return false
}

// segmentBlockedExcept is segmentBlocked over centers with the discs i and j
// skipped in place.
func segmentBlockedExcept(seg geom.Segment, centers []geom.Vec, i, j int, r float64) bool {
	for k, c := range centers {
		if k == i || k == j {
			continue
		}
		if geom.DistancePointSegment(c, seg.A, seg.B) <= r+BlockTol {
			return true
		}
	}
	return false
}

// Exported for the external tests (package vision_test), which need the
// workload generators and so cannot live in this package.

// EagerVisible is the oracle for Model.Visible.
func EagerVisible(m *Model, centers []geom.Vec, i, j int) bool { return m.eagerVisible(centers, i, j) }

// EagerFullyVisible is the oracle for Model.FullyVisible.
func EagerFullyVisible(m *Model, centers []geom.Vec) bool { return m.eagerFullyVisible(centers) }
