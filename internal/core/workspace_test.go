package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// corpusDigest pins Decide's output on decisionCorpus(): the Target bits,
// Terminate and Trace of every view, in corpus order. Decide is a pure
// function of its View, so the digest may only change with a deliberate
// change to the algorithm — never with how Decide manages its buffers.
const corpusDigest = "23e8bcd8ef8aa53b"

// decisionCorpus returns a fixed set of views over n = 2..24 robots, drawn
// from seeded generators that between them reach every terminal algorithmic
// state: rings split into tangency components (Procedure NotConnected's
// cases A, B and C), rings with robots inside (the NotOnConvexHull branch),
// near-straight lines (OnStraightLine) and random scatters seen in full and in
// part (the projected-hull branch of NotOnStraightLine). It also holds views
// with more points than N, which no simulator run produces but Decide accepts.
func decisionCorpus() []View {
	rng := rand.New(rand.NewSource(20261022))
	var views []View
	addAll := func(pts []geom.Vec) {
		for i := range pts {
			views = append(views, viewOfAll(pts, i))
		}
	}
	addPartial := func(pts []geom.Vec, keep float64) {
		for i := range pts {
			var others []geom.Vec
			for j, c := range pts {
				if j != i && rng.Float64() < keep {
					others = append(others, c)
				}
			}
			views = append(views, NewView(pts[i], others, len(pts)))
		}
	}
	// Two robots: Procedure NotConnected walks straight to the other one.
	addAll([]geom.Vec{geom.V(0, 0), geom.V(5, 1)})
	for n := 3; n <= 24; n++ {
		tol := ComponentGapTol(n)
		// One component of tangent or nearly tangent discs.
		addAll(chordRing(repeatChord(n, 2)))
		addAll(chordRing(jitterChords(rng, repeatChord(n, 2), 0.9*tol)))
		addAll(chordRing(jitterChords(rng, componentChords(n, 2, func(int) float64 { return 0 }), 0.9*tol)))
		// Equal sizes and equal gaps (case C), equal sizes and unequal gaps
		// (case B), unequal sizes (case A).
		for _, size := range []int{1, 2, 3} {
			if n%size != 0 || n/size < 2 {
				continue
			}
			addAll(chordRing(componentChords(n, size, func(int) float64 { return 3 })))
			addAll(chordRing(componentChords(n, size, func(k int) float64 { return 3 + 0.5*float64(k%3) })))
			addAll(pullInward(rng, chordRing(componentChords(n, size, func(int) float64 { return 4 })), OnHullSlack(n)))
		}
		addAll(chordRing(unevenComponentChords(rng, n)))
		// Hull robots with robots inside, some of them touching.
		if n >= 5 {
			addAll(ringWithInterior(rng, n))
			addAll(ringWithSymmetricPair(n-2, 5))
			addAll(ringWithSymmetricPair(n-2, 2.5))
		}
		// A malformed view with one point more than N robots: the ring
		// passes every check up to NotConnected, and the extra point inside
		// it is still part of the components.
		ring := chordRing(componentChords(n, 1, func(int) float64 { return 8 }))
		for i := range ring {
			views = append(views, NewView(ring[i], append(append([]geom.Vec(nil), ring[:i]...), append(ring[i+1:], geom.V(0.5, 0.25))...), n))
		}
		// Straight lines with a slightly displaced robot.
		addAll(bentLine(n, 2, 0.4/float64(n)))
		addAll(bentLine(n, 4.5, 0.2))
		// Random scatters, seen in full and in part.
		pts := scatter(rng, n, 3+float64(n)/2)
		addAll(pts)
		addPartial(pts, 0.6)
	}
	return views
}

// chordRing places len(chords) points counter-clockwise on a circle so that
// consecutive centers are chords[i] apart (the last chord closes the ring).
// The radius is found by bisection on the total subtended angle.
func chordRing(chords []float64) []geom.Vec {
	maxChord := 0.0
	for _, c := range chords {
		maxChord = math.Max(maxChord, c)
	}
	angleSum := func(r float64) float64 {
		s := 0.0
		for _, c := range chords {
			s += 2 * math.Asin(math.Min(1, c/(2*r)))
		}
		return s
	}
	lo, hi := maxChord/2, 1e4
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if angleSum(mid) > 2*math.Pi {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := (lo + hi) / 2
	pts := make([]geom.Vec, len(chords))
	theta := 0.0
	for i, c := range chords {
		pts[i] = geom.V(r*math.Cos(theta), r*math.Sin(theta))
		theta += 2 * math.Asin(math.Min(1, c/(2*r)))
	}
	return pts
}

func repeatChord(n int, c float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// jitterChords widens every chord by a random free gap in [0, maxGap].
func jitterChords(rng *rand.Rand, chords []float64, maxGap float64) []float64 {
	out := make([]float64, len(chords))
	for i, c := range chords {
		out[i] = c + rng.Float64()*maxGap
	}
	return out
}

// componentChords splits n tangent discs into n/size components; the free
// gap after the k-th component is gap(k).
func componentChords(n, size int, gap func(k int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2
		if (i+1)%size == 0 {
			out[i] = 2 + gap(i/size)
		}
	}
	return out
}

// unevenComponentChords splits n discs into components of random sizes.
func unevenComponentChords(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2
		if rng.Intn(3) == 0 {
			out[i] = 3 + rng.Float64()
		}
	}
	out[n-1] = 3.5
	return out
}

// pullInward moves every other point toward the origin by a random distance
// below slack, so it stays on the hull within the Compute tolerance.
func pullInward(rng *rand.Rand, pts []geom.Vec, slack float64) []geom.Vec {
	for i := 0; i < len(pts); i += 2 {
		pts[i] = pts[i].Sub(pts[i].Unit().Scale(rng.Float64() * 0.9 * slack))
	}
	return pts
}

// ringWithInterior places about two thirds of n robots on a wide ring and the
// rest inside it, alternating isolated robots and tangent pairs.
func ringWithInterior(rng *rand.Rand, n int) []geom.Vec {
	hull := n - n/3
	pts := ringPositions(hull, 3+2*float64(hull)/math.Pi)
	for len(pts) < n {
		p := geom.V(rng.Float64()*6-3, rng.Float64()*6-3)
		if !clearOf(pts, p) {
			continue
		}
		pts = append(pts, p)
		if len(pts) < n && len(pts)%2 == 0 {
			a := rng.Float64() * 2 * math.Pi
			q := p.Add(geom.V(2*math.Cos(a), 2*math.Sin(a)))
			if clearOf(pts[:len(pts)-1], q) && q.Dist(p) >= 2-geom.Eps {
				pts = append(pts, q)
			}
		}
	}
	return pts
}

// ringWithSymmetricPair places m robots on a ring with consecutive centers
// chord apart and a tangent pair inside, mirror-symmetric about the bisector
// of the first hull gap: both members of the pair are equally far from the
// Find-Points candidate of that gap, so they contend with a tie.
func ringWithSymmetricPair(m int, chord float64) []geom.Vec {
	pts := chordRing(repeatChord(m, chord))
	phi := math.Pi / float64(m)
	axis := geom.V(math.Cos(phi), math.Sin(phi))
	center := axis.Scale(pts[0].Norm() / 2)
	side := axis.PerpCW()
	return append(pts, center.Add(side), center.Sub(side))
}

// bentLine lays n robots on the x axis spacing apart and lifts the middle
// one by bend.
func bentLine(n int, spacing, bend float64) []geom.Vec {
	pts := make([]geom.Vec, n)
	for i := range pts {
		pts[i] = geom.V(float64(i)*spacing, 0)
	}
	pts[n/2].Y = bend
	return pts
}

// scatter places n non-overlapping robots uniformly in a square of the given
// half-side.
func scatter(rng *rand.Rand, n int, half float64) []geom.Vec {
	var pts []geom.Vec
	for len(pts) < n {
		p := geom.V((rng.Float64()*2-1)*half, (rng.Float64()*2-1)*half)
		if clearOf(pts, p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// clearOf reports whether a unit disc at p overlaps none of the discs at pts.
func clearOf(pts []geom.Vec, p geom.Vec) bool {
	for _, q := range pts {
		if p.Dist(q) < 2 {
			return false
		}
	}
	return true
}

// decisionDigest hashes the decisions of the views in the given order of
// indices, so every ordering of the same corpus must give the same digest.
func decisionDigest(views []View, order []int) string {
	out := make([]Decision, len(views))
	for _, i := range order {
		out[i] = Decide(views[i])
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, d := range out {
		put(math.Float64bits(d.Target.X))
		put(math.Float64bits(d.Target.Y))
		if d.Terminate {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(d.Trace)))
		for _, s := range d.Trace {
			put(uint64(s))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func indices(n int, backwards bool) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
		if backwards {
			out[i] = n - 1 - i
		}
	}
	return out
}

// TestDecisionCorpusCoversTerminalStates guards the corpus itself: a corpus
// that never reaches a terminal state leaves that procedure's buffers
// unexercised by the digest tests below.
func TestDecisionCorpusCoversTerminalStates(t *testing.T) {
	views := decisionCorpus()
	seen := map[AlgState]int{}
	for _, v := range views {
		seen[Decide(v).Final()]++
	}
	for _, s := range AllAlgStates() {
		if s.Terminal() && seen[s] == 0 {
			t.Errorf("no corpus view ends in %v", s)
		}
	}
	t.Logf("%d views; final states %v", len(views), seen)
}

// TestDecideWorkspaceDigest decides the corpus forwards, backwards (large
// views run before small ones, so every buffer starts longer than the view
// needs) and from two goroutines at once, and requires the pinned digest
// each time: the pooled workspace must be scratch only.
func TestDecideWorkspaceDigest(t *testing.T) {
	views := decisionCorpus()
	if got := decisionDigest(views, indices(len(views), false)); got != corpusDigest {
		t.Fatalf("forwards: digest %s, want %s", got, corpusDigest)
	}
	if got := decisionDigest(views, indices(len(views), true)); got != corpusDigest {
		t.Fatalf("backwards: digest %s, want %s", got, corpusDigest)
	}
	var wg sync.WaitGroup
	got := make([]string, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = decisionDigest(views, indices(len(views), g == 1))
		}(g)
	}
	wg.Wait()
	for g, d := range got {
		if d != corpusDigest {
			t.Fatalf("goroutine %d: digest %s, want %s", g, d, corpusDigest)
		}
	}
}

// decideAllocBudget is the allocation budget of one decision on a warmed
// workspace: the copy of the trace it returns. Everything else a decision
// builds lives in the workspace.
const decideAllocBudget = 1

// TestDecideAllocs decides every view of the corpus on one private, warmed
// workspace and requires each decision to stay within decideAllocBudget. It
// measures the workspace directly rather than through Decide's pool, whose
// reuse the race detector randomises.
func TestDecideAllocs(t *testing.T) {
	views := decisionCorpus()
	d := new(decider)
	worst, worstView := 0.0, 0
	for i, v := range views {
		d.reset(v) // warm the workspace for this view's size
		d.run()
		if a := testing.AllocsPerRun(3, func() { d.reset(v); d.run() }); a > worst {
			worst, worstView = a, i
		}
	}
	if worst > decideAllocBudget {
		t.Fatalf("Decide allocates %v allocs/op on corpus view %d (%d robots seen), budget %d",
			worst, worstView, views[worstView].Count(), decideAllocBudget)
	}
}
