package core

import (
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// Component is one connected component in the sense of the paper's Function
// Connected-Components (Section 3.4): a maximal run of consecutive robots
// around the convex hull in which every consecutive gap (free space between
// disc boundaries) is at most 1/(2m). Members are listed in counter-clockwise
// hull order; the component's "leftmost" robot is Members[0] and its
// "rightmost" robot is the last member (the one adjacent to the gap toward
// the next component counter-clockwise).
type Component struct {
	Members []geom.Vec
}

// Size returns the number of robots in the component.
func (c Component) Size() int { return len(c.Members) }

// Leftmost returns the first member in hull order.
func (c Component) Leftmost() geom.Vec {
	if len(c.Members) == 0 {
		return geom.Vec{}
	}
	return c.Members[0]
}

// Rightmost returns the last member in hull order.
func (c Component) Rightmost() geom.Vec {
	if len(c.Members) == 0 {
		return geom.Vec{}
	}
	return c.Members[len(c.Members)-1]
}

// Contains reports whether the component contains the given center.
func (c Component) Contains(p geom.Vec) bool {
	for _, q := range c.Members {
		if q.EqWithin(p, geom.Eps) {
			return true
		}
	}
	return false
}

// ComponentGapTol returns the paper's gap threshold 1/(2m): consecutive
// robots whose free gap is at most this are part of the same component.
func ComponentGapTol(m int) float64 {
	if m < 1 {
		m = 1
	}
	return 1 / (2 * float64(m))
}

// ConnectedComponents implements the paper's Function Connected-Components:
// it partitions the given points (assumed to all lie on the convex hull, as
// is the case when it is called by the algorithm) into components around the
// hull. Points are first ordered counter-clockwise around the hull; gaps of
// at most 1/(2m) between consecutive discs keep them in the same component,
// larger gaps split components. The components are returned in
// counter-clockwise order starting from an arbitrary but deterministic gap.
func ConnectedComponents(points []geom.Vec, m int) []Component {
	ordered := hullCycleOrder(points)
	n := len(ordered)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []Component{{Members: ordered}}
	}
	tol := ComponentGapTol(m)
	// gapAfter[i] is the free gap between ordered[i] and ordered[i+1 mod n].
	gapAfter := make([]float64, n)
	splitExists := false
	for i := range ordered {
		j := (i + 1) % n
		gapAfter[i] = ordered[i].Dist(ordered[j]) - 2*geom.UnitRadius
		if gapAfter[i] > tol {
			splitExists = true
		}
	}
	if !splitExists {
		return []Component{{Members: ordered}}
	}
	// Start right after the first splitting gap so components are contiguous.
	start := 0
	for i := range gapAfter {
		if gapAfter[i] > tol {
			start = (i + 1) % n
			break
		}
	}
	var comps []Component
	var cur []geom.Vec
	for k := 0; k < n; k++ {
		i := (start + k) % n
		cur = append(cur, ordered[i])
		if gapAfter[i] > tol {
			comps = append(comps, Component{Members: cur})
			cur = nil
		}
	}
	if len(cur) > 0 {
		comps = append(comps, Component{Members: cur})
	}
	return comps
}

// hullCycleOrder orders the points counter-clockwise around the centroid,
// which for points on (or near) a convex hull is the cyclic hull order. For a
// degenerate, collinear set the points are ordered along the line.
func hullCycleOrder(points []geom.Vec) []geom.Vec {
	corners := geom.ConvexHull(points)
	interior := geom.Centroid(points)
	slack := math.Inf(1) // include every point: callers guarantee on-hull
	return orderOnHull(points, corners, slack, interior)
}

// componentIndexOf returns the index of the component containing p, or -1.
func componentIndexOf(comps []Component, p geom.Vec) int {
	for i, c := range comps {
		if c.Contains(p) {
			return i
		}
	}
	return -1
}

// componentGaps returns, for each component i, the free gap between its
// rightmost robot and the leftmost robot of component (i+1) mod k.
func componentGaps(comps []Component) []float64 {
	k := len(comps)
	gaps := make([]float64, k)
	for i := range comps {
		next := comps[(i+1)%k]
		gaps[i] = comps[i].Rightmost().Dist(next.Leftmost()) - 2*geom.UnitRadius
	}
	return gaps
}

// gapEqualityTol is the tolerance used when comparing inter-component gaps
// and component sizes for the "all equal" cases of the paper's functions.
const gapEqualityTol = 1e-6

// HowMuchDistance implements the paper's Function How-Much-Distance
// (Section 3.5). It returns:
//
//	2 if all inter-component gaps are equal (within tolerance), including the
//	  degenerate single-component case;
//	1 if c is the rightmost robot of a component whose gap to its right
//	  neighbour component is the smallest gap;
//	3 otherwise.
func HowMuchDistance(points []geom.Vec, c geom.Vec, m int) int {
	comps := ConnectedComponents(points, m)
	if len(comps) <= 1 {
		return 2
	}
	gaps := componentGaps(comps)
	minGap, maxGap := math.Inf(1), math.Inf(-1)
	for _, g := range gaps {
		minGap = math.Min(minGap, g)
		maxGap = math.Max(maxGap, g)
	}
	if maxGap-minGap <= gapEqualityTol {
		return 2
	}
	idx := componentIndexOf(comps, c)
	if idx < 0 {
		return 3
	}
	if comps[idx].Rightmost().EqWithin(c, geom.Eps) && gaps[idx] <= minGap+gapEqualityTol {
		return 1
	}
	return 3
}
