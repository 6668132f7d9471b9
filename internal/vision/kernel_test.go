package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// CheckMatchesEager compares every query of m on centers with the eager
// oracle: Visible, VisibleScratch and VisiblePairScratch (with a fresh and a
// reused Scratch) for every ordered pair, View for every robot and
// FullyVisible for the configuration. It returns the first disagreement, or
// nil. Exported for the external tests.
func CheckMatchesEager(m *Model, centers []geom.Vec) error {
	var sc, pairSc Scratch
	var obstacles []geom.Vec
	for i := range centers {
		var view []int
		for j := range centers {
			want := m.eagerVisible(centers, i, j)
			if got := m.Visible(centers, i, j); got != want {
				return fmt.Errorf("Visible(%d,%d)=%v, eager %v on %v", i, j, got, want, centers)
			}
			if got := m.VisibleScratch(&sc, centers, i, j); got != want {
				return fmt.Errorf("VisibleScratch(%d,%d)=%v, eager %v on %v", i, j, got, want, centers)
			}
			if want {
				view = append(view, j)
			}
			if i == j {
				continue
			}
			obstacles = obstacles[:0]
			for k, c := range centers {
				if k != i && k != j {
					obstacles = append(obstacles, c)
				}
			}
			wantPair := m.eagerVisiblePair(centers[i], centers[j], obstacles)
			var fresh Scratch
			if got := m.VisiblePairScratch(&fresh, centers[i], centers[j], obstacles); got != wantPair {
				return fmt.Errorf("VisiblePairScratch(%d,%d) fresh=%v, eager %v on %v", i, j, got, wantPair, centers)
			}
			if got := m.VisiblePairScratch(&pairSc, centers[i], centers[j], obstacles); got != wantPair {
				return fmt.Errorf("VisiblePairScratch(%d,%d)=%v, eager %v on %v", i, j, got, wantPair, centers)
			}
		}
		if got := m.View(centers, i); fmt.Sprint(got) != fmt.Sprint(view) {
			return fmt.Errorf("View(%d)=%v, eager %v on %v", i, got, view, centers)
		}
	}
	if got, want := m.FullyVisible(centers), m.eagerFullyVisible(centers); got != want {
		return fmt.Errorf("FullyVisible=%v, eager %v on %v", got, want, centers)
	}
	return nil
}

// kernelModels are the models the table tests run: the default, plus a wide
// and a narrow radius with non-default sampling.
var kernelModels = []*Model{Default, New(Options{Radius: 1.5, BoundarySamples: 5}), New(Options{Radius: 0.5, BoundarySamples: 1})}

func checkAll(t *testing.T, name string, centers []geom.Vec) {
	t.Helper()
	for _, m := range kernelModels {
		if err := CheckMatchesEager(m, centers); err != nil {
			t.Fatalf("%s, model %s: %v", name, m.Fingerprint(), err)
		}
	}
}

// drain returns every candidate the lazy generator yields for (a, b).
func drain(m *Model, a, b geom.Vec) []geom.Segment {
	var out []geom.Segment
	g := m.sightLines(a, b, m.opts.radius())
	for seg, ok := g.next(); ok; seg, ok = g.next() {
		out = append(out, seg)
	}
	return out
}

// sameBits reports whether x and y are bit-identical, any NaN matching any
// NaN (the sign of a NaN produced by arithmetic carries no meaning).
func sameBits(x, y geom.Vec) bool {
	same := func(p, q float64) bool {
		return math.Float64bits(p) == math.Float64bits(q) || (math.IsNaN(p) && math.IsNaN(q))
	}
	return same(x.X, y.X) && same(x.Y, y.Y)
}

// TestSightLinesMatchEagerCandidates pins the lazy generator to the eager
// one: the same candidates, bit for bit and in the same order, for random,
// touching, overlapping, coincident and non-finite pairs.
func TestSightLinesMatchEagerCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type pair struct{ a, b geom.Vec }
	pairs := []pair{
		{geom.V(0, 0), geom.V(2, 0)},
		{geom.V(0, 0), geom.V(2+geom.Eps, 0)},
		{geom.V(0, 0), geom.V(math.Nextafter(2+geom.Eps, 3), 0)},
		{geom.V(0, 0), geom.V(1, 0)},
		{geom.V(3, 3), geom.V(3, 3)},
		{geom.V(0, 0), geom.V(math.NaN(), 1)},
		{geom.V(math.Inf(-1), 0), geom.V(4, 4)},
	}
	for trial := 0; trial < 200; trial++ {
		pairs = append(pairs, pair{
			geom.V(rng.Float64()*30-15, rng.Float64()*30-15),
			geom.V(rng.Float64()*30-15, rng.Float64()*30-15),
		})
	}
	for _, p := range pairs {
		for _, m := range kernelModels {
			want := m.candidateSegments(p.a, p.b, m.opts.radius())
			got := drain(m, p.a, p.b)
			if len(got) != len(want) {
				t.Fatalf("%v-%v: %d candidates, eager %d", p.a, p.b, len(got), len(want))
			}
			for k := range want {
				if !sameBits(got[k].A, want[k].A) || !sameBits(got[k].B, want[k].B) {
					t.Fatalf("%v-%v candidate %d: %+v, eager %+v (must be bit-identical)", p.a, p.b, k, got[k], want[k])
				}
			}
		}
	}
}

// ulpSteps moves x by n ulps (toward +Inf for n > 0, toward -Inf for n < 0).
func ulpSteps(x float64, n int) float64 {
	to := math.Inf(1)
	if n < 0 {
		to, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, to)
	}
	return x
}

// knifeEdge returns a disc center at distance r+BlockTol, moved by ulps, from
// the point at parameter t of the candidate seg, on the given side of it.
func knifeEdge(seg geom.Segment, t, r float64, ulps int, side float64) geom.Vec {
	dir := seg.B.Sub(seg.A).Unit()
	if dir == (geom.Vec{}) {
		dir = geom.V(1, 0)
	}
	foot := seg.A.Add(seg.B.Sub(seg.A).Scale(t))
	return foot.Add(dir.Perp().Scale(side * ulpSteps(r+BlockTol, ulps)))
}

// TestKnifeEdgeBlockersMatchEager places a blocker at exactly r+BlockTol,
// and a few ulps either side, from points of each candidate sight line of a
// pair, against three backdrops: nothing else, a wall disc at the midpoint
// that blocks every candidate, and a wall shifted a little to either side
// that blocks every candidate but one outer tangent. Behind the shifted wall
// the knife-edge blocker alone decides the verdict; a blocker beside an
// outer tangent sits at the very edge of the corridor, so a corridor even
// 1e-9 too narrow flips those verdicts.
func TestKnifeEdgeBlockersMatchEager(t *testing.T) {
	decisive := 0
	for _, m := range kernelModels {
		r := m.opts.radius()
		for _, ang := range []float64{0, 0.3, math.Pi / 2, 2.5, -1.1} {
			for _, dist := range []float64{2*r + 0.5, 5 * r, 11.25 * r} {
				a := geom.V(1.5, -2)
				u := geom.V(math.Cos(ang), math.Sin(ang))
				b := a.Add(u.Scale(dist))
				mid := geom.Midpoint(a, b)
				shift := u.Perp().Scale(0.03 * r)
				backdrops := [][]geom.Vec{{a, b}, {a, b, mid}, {a, b, mid.Sub(shift)}, {a, b, mid.Add(shift)}}
				for k, seg := range m.candidateSegments(a, b, r) {
					for _, side := range []float64{1, -1} {
						for _, at := range []float64{0, 0.5, 1} {
							for bi, backdrop := range backdrops {
								var verdicts [2]bool
								for ui, ulps := range []int{-3, -1, 0, 1, 3} {
									centers := append(append([]geom.Vec(nil), backdrop...), knifeEdge(seg, at, r, ulps, side))
									if err := CheckMatchesEager(m, centers); err != nil {
										t.Fatalf("ang=%g dist=%g cand=%d side=%g at=%g backdrop=%d ulps=%d: %v", ang, dist, k, side, at, bi, ulps, err)
									}
									if ui == 0 || ui == 4 {
										verdicts[ui/4] = m.eagerVisible(centers, 0, 1)
									}
								}
								if verdicts[0] != verdicts[1] {
									decisive++
								}
							}
						}
					}
				}
			}
		}
	}
	// The construction must actually put verdicts on the knife edge.
	if decisive == 0 {
		t.Fatal("no knife-edge blocker decided a verdict")
	}
	t.Logf("%d knife-edge placements decided a verdict", decisive)
}

// TestCorridorBoundary pins Contains at the corridor edge: a disc at
// 2r+BlockTol from the center segment (the farthest that can block) is
// inside, one clearly beyond CorridorRadius is not, and NaN is inside.
func TestCorridorBoundary(t *testing.T) {
	for _, m := range kernelModels {
		r := m.opts.radius()
		a, b := geom.V(-3, 1), geom.V(9, 6)
		cor := m.Corridor(a, b)
		n := b.Sub(a).Unit().Perp()
		for _, at := range []geom.Vec{a, geom.Midpoint(a, b), b} {
			if !cor.Contains(at.Add(n.Scale(2*r + BlockTol))) {
				t.Fatalf("%s: disc at 2r+BlockTol from %v not in corridor", m.Fingerprint(), at)
			}
			if cor.Contains(at.Add(n.Scale(m.CorridorRadius() * (1 + 1e-9)))) {
				t.Fatalf("%s: disc beyond CorridorRadius from %v in corridor", m.Fingerprint(), at)
			}
		}
		beyond := b.Add(b.Sub(a).Unit().Scale(2*r + BlockTol))
		if !cor.Contains(beyond) {
			t.Fatalf("%s: disc at 2r+BlockTol past the end b not in corridor", m.Fingerprint())
		}
		if !cor.Contains(geom.V(math.NaN(), 0)) {
			t.Fatalf("%s: NaN center must count as inside", m.Fingerprint())
		}
		if !m.Corridor(a, a).Contains(a.Add(geom.V(0, 2*r))) {
			t.Fatalf("%s: degenerate corridor must be a disc around a", m.Fingerprint())
		}
	}
}

// TestTouchingPairsMatchEager covers pairs at and around the contact
// distance 2r (whose only candidate is the degenerate contact segment) with
// discs crowding the contact point.
func TestTouchingPairsMatchEager(t *testing.T) {
	for _, m := range kernelModels {
		r := m.opts.radius()
		for _, d := range []float64{2 * r, 2*r + geom.Eps, ulpSteps(2*r+geom.Eps, 1), ulpSteps(2*r+geom.Eps, -1), 1.5 * r, 0} {
			for _, ang := range []float64{0, 0.7, math.Pi} {
				u := geom.V(math.Cos(ang), math.Sin(ang))
				a := geom.V(4, 4)
				b := a.Add(u.Scale(d))
				mid := geom.Midpoint(a, b)
				cases := [][]geom.Vec{
					{a, b, mid.Add(u.Perp().Scale(r))},
					{a, b, mid.Add(u.Perp().Scale(ulpSteps(r+BlockTol, 1)))},
					{a, b, mid.Add(u.Perp().Scale(2 * r)), mid.Sub(u.Perp().Scale(2 * r))},
					{a, b, mid},
				}
				for _, c := range cases {
					if err := CheckMatchesEager(m, c); err != nil {
						t.Fatalf("d=%g ang=%g: %v", d, ang, err)
					}
				}
			}
		}
	}
}

// TestCollinearTriplesMatchEager covers three discs on a line, with the
// middle one between, at and beyond the ends, spaced from touching to wide.
func TestCollinearTriplesMatchEager(t *testing.T) {
	for _, dir := range []geom.Vec{geom.V(1, 0), geom.V(0, 1), geom.V(1, 1).Unit(), geom.V(-3, 7).Unit()} {
		for _, gap := range []float64{2, 2 + geom.Eps, 2.5, 4, 10} {
			for _, pos := range []float64{-1, 0.5, 1, 2, 0.25} {
				a := geom.V(-7, 2)
				b := a.Add(dir.Scale(2 * gap))
				c := a.Add(dir.Scale(2 * gap * pos))
				checkAll(t, fmt.Sprintf("dir=%v gap=%g pos=%g", dir, gap, pos), []geom.Vec{a, b, c})
				checkAll(t, fmt.Sprintf("dir=%v gap=%g pos=%g shifted", dir, gap, pos), []geom.Vec{a, b, c.Add(dir.Perp().Scale(1))})
			}
		}
	}
}

// FuzzVisibleMatchesEager builds a dense random configuration from the seed
// (overlaps allowed), adds a knife-edge blocker a few ulps off r+BlockTol from
// one candidate of the first pair, and one disc at a raw fuzzed position
// (non-finite values included; finite ones are folded into |x| < 1e6, the
// range the corridor margin covers), then checks every query against the
// eager oracle.
func FuzzVisibleMatchesEager(f *testing.F) {
	f.Add(int64(1), uint8(3), 8.0, int16(0), 5.0, 5.0)
	f.Add(int64(2), uint8(10), 30.0, int16(1), 0.0, 0.0)
	f.Add(int64(3), uint8(13), 3.0, int16(-2), math.NaN(), 1.0)
	f.Add(int64(4), uint8(6), 12.0, int16(4), math.Inf(1), 2.0)
	f.Add(int64(5), uint8(0), 2.0, int16(-1), 1e9, -3e7)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, spread float64, ulps int16, x, y float64) {
		rng := rand.New(rand.NewSource(seed))
		m := kernelModels[rng.Intn(len(kernelModels))]
		r := m.opts.radius()
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 10
		}
		spread = 2 + math.Mod(math.Abs(spread), 60)
		n := 2 + int(nRaw)%14
		centers := make([]geom.Vec, 0, n+2)
		for len(centers) < n {
			centers = append(centers, geom.V(rng.Float64()*spread, rng.Float64()*spread))
		}
		cands := m.candidateSegments(centers[0], centers[1], r)
		seg := cands[rng.Intn(len(cands))]
		side := 1.0
		if rng.Intn(2) == 0 {
			side = -1
		}
		centers = append(centers, knifeEdge(seg, rng.Float64(), r, int(ulps)%64, side))
		fold := func(v float64) float64 {
			if math.Abs(v) >= 1e6 {
				return math.Mod(v, 1e6)
			}
			return v
		}
		centers = append(centers, geom.V(fold(x), fold(y)))
		if err := CheckMatchesEager(m, centers); err != nil {
			t.Fatal(err)
		}
	})
}
