package core

import (
	"math"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// Decision is the output of the local algorithm for one Compute phase.
type Decision struct {
	// Target is the point the robot should move to. When the robot decides to
	// stay, Target equals the robot's current center.
	Target geom.Vec
	// Terminate is true when the local algorithm returned the special point ⊥
	// (procedure Connected): the robot enters its Terminate state and takes
	// no further steps.
	Terminate bool
	// Trace is the sequence of algorithmic states visited, starting at
	// StateStart and ending at the terminal state that produced the output.
	Trace []AlgState
}

// Final returns the terminal algorithmic state of the decision.
func (d Decision) Final() AlgState {
	if len(d.Trace) == 0 {
		return StateStart
	}
	return d.Trace[len(d.Trace)-1]
}

// Stays reports whether the decision keeps the robot at its current position
// (and does not terminate).
func (d Decision) Stays(self geom.Vec) bool {
	return !d.Terminate && d.Target.EqWithin(self, geom.Eps)
}

// Decide runs the paper's 17-state local algorithm (Section 4) on the given
// view and returns the resulting decision. It is a pure function of the view:
// robots are oblivious, so nothing persists between calls.
func Decide(v View) Decision {
	d := &decider{view: v, hull: buildHullInfo(v)}
	return d.run()
}

// decider carries the per-decision derived data shared by the procedures,
// plus scratch buffers reused across the O(view^2) visibility queries a single
// decision can issue (viewFullyVisible, selfBlocksPair).
type decider struct {
	view View
	hull *hullInfo

	trace []AlgState

	vsc    vision.Scratch
	obsBuf []geom.Vec
}

func (d *decider) run() Decision {
	state := StateStart
	for iter := 0; iter < 4*NumAlgStates; iter++ {
		d.trace = append(d.trace, state)
		switch state {
		case StateStart:
			state = d.procStart()
		case StateOnConvexHull:
			state = d.procOnConvexHull()
		case StateAllOnConvexHull:
			state = d.procAllOnConvexHull()
		case StateConnected:
			return d.terminate()
		case StateNotConnected:
			return d.output(d.procNotConnected())
		case StateNotAllOnConvexHull:
			state = d.procNotAllOnConvexHull()
		case StateNotOnStraightLine:
			state = d.procNotOnStraightLine()
		case StateSpaceForMore:
			return d.output(d.procSpaceForMore())
		case StateNoSpaceForMore:
			return d.output(d.procNoSpaceForMore())
		case StateOnStraightLine:
			state = d.procOnStraightLine()
		case StateSeeOneRobot:
			return d.output(d.view.Self)
		case StateSeeTwoRobot:
			return d.output(d.procSeeTwoRobot())
		case StateNotOnConvexHull:
			state = d.procNotOnConvexHull()
		case StateIsTouching:
			return d.output(d.procIsTouching())
		case StateNotTouching:
			state = d.procNotTouching()
		case StateToChange:
			return d.output(d.procToChange())
		case StateNotChange:
			return d.output(d.procNotChange())
		default:
			return d.output(d.view.Self)
		}
	}
	// Unreachable with a correct transition graph; staying put is the safe
	// fallback.
	return d.output(d.view.Self)
}

func (d *decider) output(target geom.Vec) Decision {
	if !target.IsFinite() {
		target = d.view.Self
	}
	return Decision{Target: target, Trace: d.trace}
}

func (d *decider) terminate() Decision {
	return Decision{Target: d.view.Self, Terminate: true, Trace: d.trace}
}

// --- Non-terminal procedures (state transitions) ---

// procStart implements Procedure Start (4.2.1).
func (d *decider) procStart() AlgState {
	if d.hull.SelfOnHull() {
		return StateOnConvexHull
	}
	return StateNotOnConvexHull
}

// procOnConvexHull implements Procedure OnConvexHull (4.2.2): the robot is on
// the hull; it moves to AllOnConvexHull only if it sees all n robots, all of
// them are on the hull, and every robot in the view can see every other robot
// (the paper's "all robots have full visibility, according to Vi"). The paper
// expresses the last condition as "no three robots on a straight line"; with
// unit-disc robots the operative notion is occlusion, so the check is done
// with the same visibility predicate the Look state uses.
func (d *decider) procOnConvexHull() AlgState {
	v := d.view
	h := d.hull
	if !v.SeesAll() || len(h.onHull) < v.N {
		return StateNotAllOnConvexHull
	}
	if !d.viewFullyVisible() {
		return StateNotAllOnConvexHull
	}
	return StateAllOnConvexHull
}

// procAllOnConvexHull implements Procedure AllOnConvexHull (4.2.3): check
// whether the robots in the view form a single tangency-connected component.
func (d *decider) procAllOnConvexHull() AlgState {
	all := d.hull.all
	n := len(all)
	if n <= 1 {
		return StateConnected
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < n; j++ {
			if !seen[j] && tangent(all[cur], all[j]) {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	if count == n {
		return StateConnected
	}
	return StateNotConnected
}

// procNotAllOnConvexHull implements Procedure NotAllOnConvexHull (4.2.6): the
// robot checks whether it participates in a "straight line" situation: either
// it sits in the 1/n-wide rectangle of Figure 5 between two consecutive hull
// robots, or it actually occludes a pair of robots in its view (the condition
// the rectangle test stands in for with fat robots).
func (d *decider) procNotAllOnConvexHull() AlgState {
	if _, _, blocks := d.selfBlocksPair(); blocks {
		return StateOnStraightLine
	}
	if d.selfInFlatHullTriple(1 / float64(d.view.N)) {
		return StateOnStraightLine
	}
	return StateNotOnStraightLine
}

// procNotOnStraightLine implements Procedure NotOnStraightLine (4.2.7).
func (d *decider) procNotOnStraightLine() AlgState {
	v := d.view
	h := d.hull
	if len(h.onHull) >= v.N {
		return StateSpaceForMore
	}
	if v.SeesAll() {
		if hullHasGap(h.onHull, MinGapForRobot) {
			return StateSpaceForMore
		}
		return StateNoSpaceForMore
	}
	// The robot cannot see everyone: project the robots it can see that are
	// not on the hull onto the hull boundary (along the ray from the robot
	// itself) and check the augmented hull for space.
	augmented := append([]geom.Vec(nil), h.onHull...)
	for _, c := range h.all {
		if h.indexOf(c) >= 0 {
			continue
		}
		if proj, ok := projectOntoHull(d.view.Self, c, h.corners); ok {
			augmented = append(augmented, proj)
		}
	}
	augmented = orderOnHull(augmented, geom.ConvexHull(augmented), math.Inf(1), geom.Centroid(augmented))
	if hullHasGap(augmented, MinGapForRobot) {
		return StateSpaceForMore
	}
	return StateNoSpaceForMore
}

// procOnStraightLine implements Procedure OnStraightLine (4.2.10): the robot
// distinguishes being the one in the middle — it occludes two robots it can
// see, or sits between two hull neighbours in the Figure 5 rectangle — from
// being an endpoint of the line, which only sees one robot and stays.
func (d *decider) procOnStraightLine() AlgState {
	if _, _, blocks := d.selfBlocksPair(); blocks {
		return StateSeeTwoRobot
	}
	if d.selfMiddleOfFlatHullTriple(1 / float64(d.view.N)) {
		return StateSeeTwoRobot
	}
	return StateSeeOneRobot
}

// procNotOnConvexHull implements Procedure NotOnConvexHull (4.2.13).
func (d *decider) procNotOnConvexHull() AlgState {
	if touchingAny(d.view.Self, d.hull.all) {
		return StateIsTouching
	}
	return StateNotTouching
}

// procNotTouching implements Procedure NotTouching (4.2.15).
func (d *decider) procNotTouching() AlgState {
	if len(FindPoints(d.hull.onHull, d.view.N)) > 0 {
		return StateNotChange
	}
	return StateToChange
}

// --- Terminal procedures (produce a target point) ---

// procNotConnected implements Procedure NotConnected (4.2.5), the phase-2
// convergence step. Preconditions (established by the earlier states): the
// robot sees all n robots, all are on the convex hull, the configuration is
// fully visible but not tangency-connected.
func (d *decider) procNotConnected() geom.Vec {
	v := d.view
	h := d.hull
	self := v.Self
	n := v.N
	all := h.all

	if len(all) <= 2 {
		// Two robots: walk straight toward the other one; the motion stops
		// when the discs touch.
		for _, c := range all {
			if !c.EqWithin(self, geom.Eps) {
				return c
			}
		}
		return self
	}

	idx := h.indexOf(self)
	if idx < 0 {
		return self
	}
	left, right := h.neighbors(idx)
	inward := h.inwardNormal(left, right, self)

	touchLeft := tangent(self, left)
	touchRight := tangent(self, right)
	if touchLeft && touchRight {
		return self
	}

	comps := ConnectedComponents(all, n)
	if len(comps) == 1 {
		if !touchingAny(self, all) {
			// Sub-tangency gaps on both sides: converge inward.
			return self.Add(inward.Scale(1 / (2 * float64(n))))
		}
		if !touchRight {
			// Close the remaining small gap toward the right neighbour (see
			// package documentation on Connected-Components gaps).
			return MoveToPoint(self, right, n, h.interior)
		}
		return self
	}

	// Component priority rule. The paper's pseudocode expresses this through
	// In-Largest-Component / In-Smallest-Component / How-Much-Distance; the
	// authoritative statement of the intended behaviour is the three cases of
	// Lemma 23, which is what is implemented here:
	//
	//	(A) some component is strictly smaller than another: robots of the
	//	    smallest components slide toward their right neighbour component;
	//	(B) all components have equal size but the gaps differ: the rightmost
	//	    robot of the component with the smallest right-gap slides right;
	//	(C) all sizes and all gaps are equal: everyone converges inward by
	//	    1/(2n)−ε, preserving the hull shape.
	ci := componentIndexOf(comps, self)
	if ci < 0 {
		return self
	}
	minSize, maxSize := comps[0].Size(), comps[0].Size()
	for _, comp := range comps[1:] {
		if comp.Size() < minSize {
			minSize = comp.Size()
		}
		if comp.Size() > maxSize {
			maxSize = comp.Size()
		}
	}
	mySize := comps[ci].Size()
	if mySize > minSize {
		return self
	}
	if minSize < maxSize {
		// Case (A): member of a smallest component. Only the rightmost member
		// makes real progress (the others are already tangent to their right
		// neighbour), exactly as in the paper's cascading argument.
		return MoveToPoint(self, right, n, h.interior)
	}
	switch HowMuchDistance(all, self, n) {
	case 1:
		return MoveToPoint(self, right, n, h.interior) // case (B)
	case 2:
		return d.convergeStep(idx, comps, true) // case (C)
	default:
		return self
	}
}

// convergeStep implements the "all components equal" convergence move of
// Procedure NotConnected: step inward by 1/(2n)−ε, perpendicular to the
// chord of the robot's own component. The step is skipped (the robot stays)
// when it would flatten the robot below the 1/(2n) sagitta that the paper's
// guards preserve, so converging never degenerates the hull locally into a
// straight line. When checkTouch is set, the move is also suppressed if it
// would make the robot touch another member of its own component (unless the
// robot is an endpoint of the component).
func (d *decider) convergeStep(idx int, comps []Component, checkTouch bool) geom.Vec {
	self := d.view.Self
	n := d.view.N
	h := d.hull
	ci := componentIndexOf(comps, self)
	if ci < 0 {
		return self
	}
	comp := comps[ci]
	a, b := comp.Leftmost(), comp.Rightmost()
	if a.EqWithin(b, geom.Eps) {
		left, right := h.neighbors(idx)
		a, b = left, right
	}
	inward := h.inwardNormal(a, b, self)
	target := self.Add(inward.Scale(HalfStep(n)))
	// Flatness guard (paper, Procedure NotConnected, first bullets): do not
	// converge below sagitta 1/(2n) with respect to the hull neighbours.
	hl, hr := h.neighbors(idx)
	if geom.DistancePointLine(target, hl, hr) < 1/(2*float64(n)) &&
		geom.DistancePointLine(target, hl, hr) < geom.DistancePointLine(self, hl, hr) {
		return self
	}
	if checkTouch {
		isEndpoint := comp.Leftmost().EqWithin(self, geom.Eps) || comp.Rightmost().EqWithin(self, geom.Eps)
		if !isEndpoint {
			for _, q := range comp.Members {
				if q.EqWithin(self, geom.Eps) {
					continue
				}
				if target.Dist(q) < 2*geom.UnitRadius-geom.Eps {
					return self
				}
			}
		}
	}
	return target
}

// procSpaceForMore implements Procedure SpaceForMore (4.2.8): a hull robot
// that is tangent to a non-adjacent hull robot steps outward by 1/(2n)−ε so
// that it no longer obstructs views; otherwise it stays.
func (d *decider) procSpaceForMore() geom.Vec {
	h := d.hull
	self := d.view.Self
	idx := h.indexOf(self)
	if idx < 0 {
		return self
	}
	left, right := h.neighbors(idx)
	for _, q := range h.onHull {
		if q.EqWithin(self, geom.Eps) || q.EqWithin(left, geom.Eps) || q.EqWithin(right, geom.Eps) {
			continue
		}
		if tangent(self, q) {
			outward := h.outwardNormal(left, right, self)
			return self.Add(outward.Scale(HalfStep(d.view.N)))
		}
	}
	return self
}

// procNoSpaceForMore implements Procedure NoSpaceForMore (4.2.9): the hull
// robot steps outward by 1/(2n)−ε to expand the hull and make room for the
// robots that are still inside it.
func (d *decider) procNoSpaceForMore() geom.Vec {
	h := d.hull
	self := d.view.Self
	idx := h.indexOf(self)
	if idx < 0 {
		return self
	}
	left, right := h.neighbors(idx)
	outward := h.outwardNormal(left, right, self)
	return self.Add(outward.Scale(HalfStep(d.view.N)))
}

// procSeeTwoRobot implements Procedure SeeTwoRobot (4.2.12): the robot is in
// the middle of two robots it keeps from seeing each other; it steps outward
// (away from the hull interior, perpendicular to the chord of that pair) by
// at most 1/(2n)−ε per cycle until the obstruction is gone.
func (d *decider) procSeeTwoRobot() geom.Vec {
	h := d.hull
	self := d.view.Self
	n := d.view.N
	step := HalfStep(n)

	if a, b, blocks := d.selfBlocksPair(); blocks {
		outward := h.outwardNormal(a, b, self)
		return self.Add(outward.Scale(step))
	}

	idx := h.indexOf(self)
	if idx < 0 {
		return self
	}
	left, right := h.neighbors(idx)
	outward := h.outwardNormal(left, right, self)
	distToLine := geom.DistancePointLine(self, left, right)
	needed := 1/float64(n) - distToLine
	if needed > 0 && needed < step {
		step = needed
	}
	if step <= 0 {
		step = HalfStep(n)
	}
	return self.Add(outward.Scale(step))
}

// procIsTouching implements Procedure IsTouching (4.2.14): an interior robot
// that touches others competes with them for the nearest free spot on the
// hull; only the robot with the highest proximity moves.
func (d *decider) procIsTouching() geom.Vec {
	h := d.hull
	self := d.view.Self
	n := d.view.N
	touchers := touchingNeighbours(self, h.all)

	points := FindPoints(h.onHull, n)
	if len(points) > 0 {
		p := closestTo(points, self)
		return d.contendForTarget(p, touchers)
	}
	mid, ok := widestGapMidpointNear(h.onHull, self, MinGapForRobot)
	if !ok {
		return self
	}
	return d.contendForTarget(mid, touchers)
}

// contendForTarget applies the paper's proximity rule: the robot moves toward
// target only if no touching robot is strictly closer, and ties are broken in
// favour of the "rightmost" contender (a deterministic chirality-consistent
// tie-break all robots agree on).
func (d *decider) contendForTarget(target geom.Vec, touchers []geom.Vec) geom.Vec {
	self := d.view.Self
	dSelf := self.Dist(target)
	const tieTol = 1e-9
	var tied []geom.Vec
	for _, q := range touchers {
		dq := q.Dist(target)
		if dq < dSelf-tieTol {
			return self
		}
		if math.Abs(dq-dSelf) <= tieTol {
			tied = append(tied, q)
		}
	}
	if len(tied) > 0 {
		contenders := append([]geom.Vec{self}, tied...)
		if !rightmostToward(contenders, target).EqWithin(self, geom.Eps) {
			return self
		}
	}
	return d.towardHullBoundary(target)
}

// procToChange implements Procedure ToChange (4.2.16): the interior robot
// cannot reach the hull without changing it, so it heads for the midpoint of
// the nearest hull gap that can accommodate a robot (changing the hull, which
// in this situation is unavoidable).
func (d *decider) procToChange() geom.Vec {
	h := d.hull
	self := d.view.Self
	mid, ok := widestGapMidpointNear(h.onHull, self, MinGapForRobot)
	if !ok {
		return self
	}
	return mid
}

// procNotChange implements Procedure NotChange (4.2.17): move toward the
// closest Find-Points candidate, stopping on the hull boundary.
func (d *decider) procNotChange() geom.Vec {
	h := d.hull
	self := d.view.Self
	points := FindPoints(h.onHull, d.view.N)
	if len(points) == 0 {
		return self
	}
	x := closestTo(points, self)
	return d.towardHullBoundary(x)
}

// --- helpers ---

// selfInFlatHullTriple reports whether the robot belongs to any consecutive
// hull triple whose middle point is within `width` of the chord of the outer
// two (the Figure 5 rectangle test).
func (d *decider) selfInFlatHullTriple(width float64) bool {
	h := d.hull
	n := len(h.onHull)
	if n < 3 {
		return false
	}
	idx := h.indexOf(d.view.Self)
	if idx < 0 {
		return false
	}
	for off := -1; off <= 1; off++ {
		a := h.onHull[(idx+off-1+2*n)%n]
		b := h.onHull[(idx+off+2*n)%n]
		c := h.onHull[(idx+off+1+2*n)%n]
		if !containsPoint([]geom.Vec{a, b, c}, d.view.Self) {
			continue
		}
		if InStraightLineRect(a, b, c, d.view.N) && geom.DistancePointSegment(b, a, c) <= width {
			return true
		}
	}
	return false
}

// selfMiddleOfFlatHullTriple reports whether the robot is the middle point of
// a flat consecutive hull triple.
func (d *decider) selfMiddleOfFlatHullTriple(width float64) bool {
	h := d.hull
	n := len(h.onHull)
	if n < 3 {
		return false
	}
	idx := h.indexOf(d.view.Self)
	if idx < 0 {
		return false
	}
	a := h.onHull[(idx-1+n)%n]
	c := h.onHull[(idx+1)%n]
	return geom.DistancePointSegment(d.view.Self, a, c) <= width
}

// towardHullBoundary returns the point where the segment from the robot to
// target crosses the hull boundary; if the robot is already outside or the
// segment does not cross, target itself is returned.
func (d *decider) towardHullBoundary(target geom.Vec) geom.Vec {
	corners := d.hull.corners
	if len(corners) < 3 {
		return target
	}
	self := d.view.Self
	best := target
	bestDist := math.Inf(1)
	for i := range corners {
		a := corners[i]
		b := corners[(i+1)%len(corners)]
		if pt, ok := geom.SegmentIntersection(self, target, a, b); ok {
			if dd := self.Dist(pt); dd > geom.Eps && dd < bestDist {
				bestDist = dd
				best = pt
			}
		}
	}
	return best
}

// hullHasGap reports whether any pair of consecutive on-hull points is at
// center distance at least gap.
func hullHasGap(onHull []geom.Vec, gap float64) bool {
	m := len(onHull)
	if m < 2 {
		return true
	}
	pairs := m
	if m == 2 {
		pairs = 1
	}
	for i := 0; i < pairs; i++ {
		if onHull[i].Dist(onHull[(i+1)%m]) >= gap {
			return true
		}
	}
	return false
}

// projectOntoHull projects point c onto the hull boundary along the ray from
// origin through c, returning the boundary point farthest along the ray.
func projectOntoHull(origin, c geom.Vec, corners []geom.Vec) (geom.Vec, bool) {
	if len(corners) < 3 {
		return geom.Vec{}, false
	}
	dir := c.Sub(origin)
	if dir.Norm() < geom.Eps {
		return geom.Vec{}, false
	}
	far := origin.Add(dir.Unit().Scale(1e6))
	best := geom.Vec{}
	bestDist := -1.0
	for i := range corners {
		a := corners[i]
		b := corners[(i+1)%len(corners)]
		if pt, ok := geom.SegmentIntersection(origin, far, a, b); ok {
			if dd := origin.Dist(pt); dd > bestDist {
				bestDist = dd
				best = pt
			}
		}
	}
	if bestDist < 0 {
		return geom.Vec{}, false
	}
	return best, true
}

// widestGapMidpointNear returns the midpoint of the hull gap (consecutive
// on-hull pair at distance >= minGap) whose midpoint is closest to p.
func widestGapMidpointNear(onHull []geom.Vec, p geom.Vec, minGap float64) (geom.Vec, bool) {
	m := len(onHull)
	if m < 2 {
		return geom.Vec{}, false
	}
	pairs := m
	if m == 2 {
		pairs = 1
	}
	best := geom.Vec{}
	bestDist := math.Inf(1)
	found := false
	for i := 0; i < pairs; i++ {
		a := onHull[i]
		b := onHull[(i+1)%m]
		if a.Dist(b) < minGap {
			continue
		}
		mid := geom.Midpoint(a, b)
		if dd := p.Dist(mid); dd < bestDist {
			bestDist = dd
			best = mid
			found = true
		}
	}
	return best, found
}

// closestTo returns the point of pts closest to p.
func closestTo(pts []geom.Vec, p geom.Vec) geom.Vec {
	best := pts[0]
	bestDist := p.Dist(best)
	for _, q := range pts[1:] {
		if dd := p.Dist(q); dd < bestDist {
			bestDist = dd
			best = q
		}
	}
	return best
}

// rightmostToward returns, among the candidate centers, the one that is
// "rightmost" with respect to the direction toward target: the candidate with
// the largest component along the clockwise perpendicular of that direction
// (ties broken by progress toward the target, then lexicographically). All
// robots share chirality, so they all agree on the outcome.
func rightmostToward(cands []geom.Vec, target geom.Vec) geom.Vec {
	center := geom.Centroid(cands)
	dir := target.Sub(center)
	if dir.Norm() < geom.Eps {
		dir = geom.V(1, 0)
	}
	u := dir.Unit()
	right := u.PerpCW()
	best := cands[0]
	bestKey := scoreRightmost(best, right, u)
	for _, c := range cands[1:] {
		key := scoreRightmost(c, right, u)
		if key[0] > bestKey[0]+geom.Eps ||
			(math.Abs(key[0]-bestKey[0]) <= geom.Eps && key[1] > bestKey[1]+geom.Eps) ||
			(math.Abs(key[0]-bestKey[0]) <= geom.Eps && math.Abs(key[1]-bestKey[1]) <= geom.Eps && key[2] > bestKey[2]) {
			best = c
			bestKey = key
		}
	}
	return best
}

func scoreRightmost(c, right, forward geom.Vec) [3]float64 {
	return [3]float64{c.Dot(right), c.Dot(forward), c.X*1e-9 + c.Y}
}

// containsPoint reports whether pts contains p (within Eps).
func containsPoint(pts []geom.Vec, p geom.Vec) bool {
	for _, q := range pts {
		if q.EqWithin(p, geom.Eps) {
			return true
		}
	}
	return false
}
