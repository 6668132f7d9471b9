package vision

import (
	"fmt"
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// DefaultBoundarySamples is the default number of boundary points sampled on
// each disc (per side) when generating candidate sight lines, in addition to
// the center-center and common-tangent candidates.
const DefaultBoundarySamples = 8

// BlockTol is the numerical cushion used when deciding whether a candidate
// sight line is blocked by a disc. The paper's robots are closed discs, so a
// segment that merely grazes another robot's boundary already "contains a
// point of another robot" and is blocked; a candidate is therefore blocked
// when its distance to a blocker's center is at most radius+BlockTol.
const BlockTol = 1e-9

// corridorMargin is the absolute slack added to the blocking-corridor radius
// 2r+BlockTol (see CorridorRadius). The bound itself is mathematically exact;
// the margin only has to absorb floating-point rounding in the candidate
// endpoints and in DistancePointSegment, a few ulps of the coordinates
// (about 1e-10 at |coordinate| = 1e6), which it exceeds by four orders of
// magnitude. Erring wide merely keeps a disc that cannot block — never the
// reverse.
const corridorMargin = 1e-6

// Options configures the visibility model.
type Options struct {
	// Radius is the robot disc radius. Zero means geom.UnitRadius.
	Radius float64
	// BoundarySamples is the number of extra boundary points sampled per disc
	// for candidate sight lines. Zero means DefaultBoundarySamples.
	BoundarySamples int
}

func (o Options) radius() float64 {
	if o.Radius <= 0 {
		return geom.UnitRadius
	}
	return o.Radius
}

func (o Options) samples() int {
	if o.BoundarySamples <= 0 {
		return DefaultBoundarySamples
	}
	return o.BoundarySamples
}

// Model answers visibility queries for a fixed set of disc centers.
// The zero value uses unit-radius discs and the default sampling density.
type Model struct {
	opts Options
}

// New returns a visibility model with the given options.
func New(opts Options) *Model { return &Model{opts: opts} }

// Fingerprint returns a stable identity string for the model's effective
// parameters, used when a model is part of a persistent cell key: two models
// with equal fingerprints answer every query identically.
func (m *Model) Fingerprint() string {
	return fmt.Sprintf("r=%g,s=%d", m.opts.radius(), m.opts.samples())
}

// Default is a visibility model with default options (unit discs).
var Default = New(Options{})

// CorridorRadius returns the radius of a pair's blocking corridor,
// 2r + BlockTol plus a rounding margin: a disc whose center is farther than
// this from the center segment [a, b] cannot block any candidate sight line
// between the discs at a and b (see Corridor).
func (m *Model) CorridorRadius() float64 {
	return 2*m.opts.radius() + BlockTol + corridorMargin
}

// Corridor is the blocking corridor of one pair of discs: the set of disc
// centers within CorridorRadius of the center segment [a, b]. It is the one
// definition of "can this disc affect this pair" shared by the visibility
// kernel, the incremental cache (internal/geom/incr) and the Compute
// algorithm's occlusion test (internal/core).
//
// Exactness. Every candidate sight line lies within distance r of [a, b]:
// each endpoint is on one of the two disc boundaries (distance exactly r from
// a center, which lies on [a, b]), and the distance to a segment is convex
// along a line, so its maximum over a candidate is attained at an endpoint.
// A disc blocks a candidate only within r+BlockTol of it, so by the triangle
// inequality a disc outside the corridor is farther than r+BlockTol from
// every candidate and can never block one. The kernel therefore tests the
// candidates against the corridor discs only and returns exactly the verdict
// of testing them against every disc, for finite coordinates whose rounding
// stays below the margin (|coordinate| up to about 1e6; NaN distances count
// as inside, so non-finite input is tested in full).
type Corridor struct {
	a, ab geom.Vec
	len2  float64 // |ab|^2
	rad2  float64 // CorridorRadius^2
}

// Corridor returns the blocking corridor of the pair of discs at a and b.
func (m *Model) Corridor(a, b geom.Vec) Corridor {
	rad := m.CorridorRadius()
	ab := b.Sub(a)
	return Corridor{a: a, ab: ab, len2: ab.Norm2(), rad2: rad * rad}
}

// Contains reports whether the disc centered at p lies in the corridor. It
// compares squared distances (no square root) and is conservative: a NaN
// distance counts as inside.
func (c Corridor) Contains(p geom.Vec) bool {
	ap := p.Sub(c.a)
	t := ap.Dot(c.ab)
	var d2 float64
	switch {
	case t <= 0:
		d2 = ap.Norm2()
	case t >= c.len2:
		d2 = ap.Sub(c.ab).Norm2()
	default:
		x := c.ab.Cross(ap)
		d2 = x * x / c.len2
	}
	return !(d2 > c.rad2)
}

// Scratch holds reusable buffers for repeated visibility queries on a hot
// path. The zero value is ready to use; once its corridor buffer has grown to
// the largest corridor queried, the Scratch queries allocate nothing. A
// Scratch is not safe for concurrent use.
type Scratch struct {
	near []geom.Vec
}

// Visible reports whether the robot centered at centers[i] can see the robot
// centered at centers[j], given that every entry of centers is an opaque
// closed disc. A robot always sees itself. Hot paths should hold a Scratch
// and call VisibleScratch instead.
func (m *Model) Visible(centers []geom.Vec, i, j int) bool {
	var sc Scratch
	return m.VisibleScratch(&sc, centers, i, j)
}

// VisibleScratch answers Visible(centers, i, j) with the corridor collected
// into the scratch's reused buffer.
func (m *Model) VisibleScratch(sc *Scratch, centers []geom.Vec, i, j int) bool {
	if i == j {
		return true
	}
	a, b := centers[i], centers[j]
	cor := m.Corridor(a, b)
	sc.near = sc.near[:0]
	for k, c := range centers {
		if k != i && k != j && cor.Contains(c) {
			sc.near = append(sc.near, c)
		}
	}
	return m.clearSightLine(a, b, sc.near)
}

// VisiblePairScratch reports whether two discs at a and b can see each other
// given the obstacle discs (which must not include a or b), with the
// corridor collected into the scratch's reused buffer.
func (m *Model) VisiblePairScratch(sc *Scratch, a, b geom.Vec, obstacles []geom.Vec) bool {
	cor := m.Corridor(a, b)
	sc.near = sc.near[:0]
	for _, c := range obstacles {
		if cor.Contains(c) {
			sc.near = append(sc.near, c)
		}
	}
	return m.clearSightLine(a, b, sc.near)
}

// View returns the indices of all robots visible from robot i (always
// including i itself), in increasing index order.
func (m *Model) View(centers []geom.Vec, i int) []int {
	var sc Scratch
	out := make([]int, 0, len(centers))
	for j := range centers {
		if m.VisibleScratch(&sc, centers, i, j) {
			out = append(out, j)
		}
	}
	return out
}

// ViewCenters returns the centers of all robots visible from robot i
// (including robot i's own center).
func (m *Model) ViewCenters(centers []geom.Vec, i int) []geom.Vec {
	idx := m.View(centers, i)
	out := make([]geom.Vec, 0, len(idx))
	for _, j := range idx {
		out = append(out, centers[j])
	}
	return out
}

// FullyVisible reports whether every robot sees every other robot (the
// paper's "fully visible configuration").
func (m *Model) FullyVisible(centers []geom.Vec) bool {
	var sc Scratch
	for i := range centers {
		for j := range centers {
			if !m.VisibleScratch(&sc, centers, i, j) {
				return false
			}
		}
	}
	return true
}

// clearSightLine is the visibility kernel: it reports whether some candidate
// sight line between the discs at a and b avoids every disc in near, which
// must hold the pair's corridor discs (see Corridor). With no disc in the
// corridor the pair is visible without generating a single candidate;
// otherwise the candidates are generated one at a time and the first
// unblocked one answers.
func (m *Model) clearSightLine(a, b geom.Vec, near []geom.Vec) bool {
	if len(near) == 0 {
		return true
	}
	r := m.opts.radius()
	g := m.sightLines(a, b, r)
	for seg, ok := g.next(); ok; seg, ok = g.next() {
		if !segmentBlocked(seg, near, r) {
			return true
		}
	}
	return false
}

// sightLines generates the candidate sight lines between the discs at a and
// b lazily, in a fixed order: the center-center segment (clipped to the disc
// boundaries), the two outer common tangents, then sampled
// boundary-to-boundary segments on the halves of each disc facing the other.
// Touching or (illegally) overlapping discs trivially see each other through
// the contact region; their only candidate is a degenerate segment at the
// contact point.
//
// Every candidate's arithmetic is expression-for-expression that of the
// historical eager generator (kept as the test oracle), so every candidate
// endpoint — and therefore every visibility verdict and every pinned
// determinism hash downstream — is bit-identical to it; only the trig of
// candidates that are never reached is skipped.
type sightLines struct {
	a, b, u  geom.Vec
	r        float64
	touching bool
	samples  int
	base     float64 // u.Angle(), computed when the first sample is reached
	k        int     // index of the next candidate
}

func (m *Model) sightLines(a, b geom.Vec, r float64) sightLines {
	dir := b.Sub(a)
	d := dir.Norm()
	g := sightLines{a: a, b: b, r: r, samples: m.opts.samples()}
	if d <= 2*r+geom.Eps {
		g.touching = true
		return g
	}
	// dir.Unit(), reusing the norm: d > 2r+Eps >= Eps here.
	g.u = geom.Vec{X: dir.X / d, Y: dir.Y / d}
	return g
}

// next returns the next candidate sight line, or false when every candidate
// has been generated.
func (g *sightLines) next() (geom.Segment, bool) {
	k := g.k
	g.k++
	if g.touching {
		if k > 0 {
			return geom.Segment{}, false
		}
		mid := geom.Midpoint(g.a, g.b)
		return geom.Segment{A: mid, B: mid}, true
	}
	switch {
	case k == 0:
		return geom.Segment{A: g.a.Add(g.u.Scale(g.r)), B: g.b.Sub(g.u.Scale(g.r))}, true
	case k == 1:
		// Outer common tangents, as geom.AppendOuterTangentSegments.
		n := g.u.Perp().Scale(g.r)
		return geom.Segment{A: g.a.Add(n), B: g.b.Add(n)}, true
	case k == 2:
		n := g.u.Perp().Scale(g.r)
		return geom.Segment{A: g.a.Sub(n), B: g.b.Sub(n)}, true
	case k-2 <= g.samples:
		if k == 3 {
			g.base = g.u.Angle()
		}
		s := k - 2
		// Spread angles in (-pi/2, pi/2) around the facing direction.
		off := (float64(s)/float64(g.samples+1) - 0.5) * math.Pi
		pa := geom.Circle{Center: g.a, Radius: g.r}.PointAtAngle(g.base + off)
		pb := geom.Circle{Center: g.b, Radius: g.r}.PointAtAngle(g.base + math.Pi - off)
		return geom.Segment{A: pa, B: pb}, true
	}
	return geom.Segment{}, false
}

// segmentBlocked reports whether the segment comes within the closed disc of
// radius r of any blocker.
func segmentBlocked(seg geom.Segment, blockers []geom.Vec, r float64) bool {
	for _, c := range blockers {
		if geom.DistancePointSegment(c, seg.A, seg.B) <= r+BlockTol {
			return true
		}
	}
	return false
}
