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
	var w componentScratch
	return w.partition(hullCycleOrder(points), m)
}

// componentScratch holds the buffers of one Connected-Components partition
// and of the How-Much-Distance gaps computed from it.
type componentScratch struct {
	gapAfter []float64
	rotated  []geom.Vec
	comps    []Component
	gaps     []float64
}

// partition splits points already in cyclic hull order into components (see
// ConnectedComponents). The components and their members alias ordered or
// the scratch, so they are valid until the next call.
func (w *componentScratch) partition(ordered []geom.Vec, m int) []Component {
	n := len(ordered)
	if n == 0 {
		return nil
	}
	w.comps = w.comps[:0]
	if n == 1 {
		w.comps = append(w.comps, Component{Members: ordered})
		return w.comps
	}
	tol := ComponentGapTol(m)
	// gapAfter[i] is the free gap between ordered[i] and ordered[i+1 mod n].
	w.gapAfter = w.gapAfter[:0]
	splitExists := false
	for i := range ordered {
		j := (i + 1) % n
		gap := ordered[i].Dist(ordered[j]) - 2*geom.UnitRadius
		w.gapAfter = append(w.gapAfter, gap)
		if gap > tol {
			splitExists = true
		}
	}
	if !splitExists {
		w.comps = append(w.comps, Component{Members: ordered})
		return w.comps
	}
	// Start right after the first splitting gap so components are contiguous
	// in the rotated order.
	start := 0
	for i, gap := range w.gapAfter {
		if gap > tol {
			start = (i + 1) % n
			break
		}
	}
	w.rotated = append(append(w.rotated[:0], ordered[start:]...), ordered[:start]...)
	lo := 0
	for k := 0; k < n; k++ {
		if w.gapAfter[(start+k)%n] > tol {
			w.comps = append(w.comps, Component{Members: w.rotated[lo : k+1 : k+1]})
			lo = k + 1
		}
	}
	if lo < n {
		w.comps = append(w.comps, Component{Members: w.rotated[lo:n:n]})
	}
	return w.comps
}

// hullCycleOrder orders the points counter-clockwise along the boundary of
// their convex hull, which for points on (or near) the hull is the cyclic
// hull order. For a degenerate, collinear set the points are ordered along
// the line.
func hullCycleOrder(points []geom.Vec) []geom.Vec {
	var ord onHullSorter
	slack := math.Inf(1) // include every point: callers guarantee on-hull
	return ord.order(nil, points, geom.ConvexHull(points), slack)
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

// appendComponentGaps appends, for each component i, the free gap between
// its rightmost robot and the leftmost robot of component (i+1) mod k, and
// returns the extended slice.
func appendComponentGaps(dst []float64, comps []Component) []float64 {
	k := len(comps)
	for i := range comps {
		next := comps[(i+1)%k]
		dst = append(dst, comps[i].Rightmost().Dist(next.Leftmost())-2*geom.UnitRadius)
	}
	return dst
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
	var w componentScratch
	return w.howMuchDistance(w.partition(hullCycleOrder(points), m), c)
}

// howMuchDistance is HowMuchDistance on components already partitioned.
func (w *componentScratch) howMuchDistance(comps []Component, c geom.Vec) int {
	if len(comps) <= 1 {
		return 2
	}
	w.gaps = appendComponentGaps(w.gaps[:0], comps)
	gaps := w.gaps
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
