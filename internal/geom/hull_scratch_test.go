package geom

import (
	"math/rand"
	"testing"
)

// scratchPointSets is a deterministic spread of hull inputs: empty, singleton,
// duplicates, collinear runs, squares with edge midpoints, and random clouds.
func scratchPointSets() [][]Vec {
	sets := [][]Vec{
		nil,
		{V(1, 2)},
		{V(1, 2), V(1, 2), V(1, 2)},
		{V(0, 0), V(1, 0)},
		{V(0, 0), V(1, 0), V(2, 0), V(3, 0)},
		{V(0, 0), V(2, 0), V(2, 2), V(0, 2), V(1, 0), V(1, 1)},
		{V(0, 0), V(4, 0), V(4, 4), V(0, 4), V(2, 0), V(4, 2), V(2, 4), V(0, 2)},
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 5, 10, 25, 60, 128} {
		pts := make([]Vec, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*100-50, rng.Float64()*100-50)
		}
		sets = append(sets, pts)
	}
	// Clouds with exact duplicates and near-duplicates sprinkled in.
	dup := make([]Vec, 0, 40)
	for i := 0; i < 20; i++ {
		p := V(rng.Float64()*10, rng.Float64()*10)
		dup = append(dup, p, p, V(p.X+Eps/2, p.Y))
	}
	sets = append(sets, dup)
	return sets
}

// TestHullScratchMatchesConvexHull is the differential oracle test for the
// scratch-buffer hull: for every input, the reused-buffer implementation must
// return exactly — bit for bit, in the same order — what the allocating
// ConvexHull returns, including when the scratch is reused across differently
// sized inputs (stale buffer contents must never leak).
func TestHullScratchMatchesConvexHull(t *testing.T) {
	var sc HullScratch
	for si, pts := range scratchPointSets() {
		want := ConvexHull(pts)
		got := sc.ConvexHull(pts)
		if len(got) != len(want) {
			t.Fatalf("set %d: scratch hull has %d vertices, ConvexHull has %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("set %d vertex %d: scratch %v != ConvexHull %v (must be bit-identical)",
					si, i, got[i], want[i])
			}
		}
	}
}

// TestHullScratchInputOrderInvariance re-checks the exactness argument behind
// the scratch hull: because lexLess strictly orders the deduped points, every
// input permutation (and either sort algorithm) must yield bit-identical hull
// vertices.
func TestHullScratchInputOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([]Vec, 40)
	for i := range base {
		base[i] = V(rng.Float64()*20-10, rng.Float64()*20-10)
	}
	want := ConvexHull(base)
	var sc HullScratch
	for trial := 0; trial < 20; trial++ {
		perm := make([]Vec, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		got := sc.ConvexHull(perm)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vertices, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d vertex %d: %v != %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestHullWithOnHullCountMatchesCollinearOracle is the differential oracle
// test for the boundary count: for every input it must equal
// len(ConvexHullWithCollinear(pts)) — the definition of config.OnHullCount —
// with the corners still bit-identical to ConvexHull.
func TestHullWithOnHullCountMatchesCollinearOracle(t *testing.T) {
	var sc HullScratch
	for si, pts := range scratchPointSets() {
		wantCorners := ConvexHull(pts)
		wantCount := len(ConvexHullWithCollinear(pts))
		corners, count := sc.HullWithOnHullCount(pts)
		if count != wantCount {
			t.Fatalf("set %d: boundary count %d, want %d", si, count, wantCount)
		}
		if len(corners) != len(wantCorners) {
			t.Fatalf("set %d: %d corners, want %d", si, len(corners), len(wantCorners))
		}
		for i := range wantCorners {
			if corners[i] != wantCorners[i] {
				t.Fatalf("set %d corner %d: %v != %v", si, i, corners[i], wantCorners[i])
			}
		}
	}
}

// TestCollinearHullContainsMatchesOracle is the differential oracle test for
// the membership query: for each input and each query point (the input
// points, near-duplicates of them and strangers), the verdict must equal a
// scan of ConvexHullWithCollinear's output.
func TestCollinearHullContainsMatchesOracle(t *testing.T) {
	var sc HullScratch
	rng := rand.New(rand.NewSource(11))
	for si, pts := range scratchPointSets() {
		onCH := ConvexHullWithCollinear(pts)
		oracle := func(q Vec) bool {
			for _, r := range onCH {
				if r.EqWithin(q, Eps) {
					return true
				}
			}
			return false
		}
		var queries []Vec
		for _, p := range pts {
			queries = append(queries, p, V(p.X+Eps/2, p.Y), V(p.X, p.Y+2*Eps))
		}
		queries = append(queries, V(rng.Float64()*100-50, rng.Float64()*100-50), V(0.5, 0))
		all := true
		for qi, q := range queries {
			want := oracle(q)
			all = all && want
			if got := sc.CollinearHullContains(pts, []Vec{q}); got != want {
				t.Fatalf("set %d query %d %v: contained %v, oracle %v", si, qi, q, got, want)
			}
		}
		if got := sc.CollinearHullContains(pts, queries); got != all {
			t.Fatalf("set %d: all queries contained %v, oracle %v", si, got, all)
		}
	}
}

// TestHullScratchAllocFree pins the allocation budget of the warmed-up scratch
// hull at zero: the whole point of HullScratch is that the per-event hull
// recomputation in the simulator allocates nothing. A future change that
// reintroduces an allocation (e.g. swapping sort.Sort back to sort.Slice)
// fails here rather than silently regressing the event loop.
func TestHullScratchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Vec, 64)
	for i := range pts {
		pts[i] = V(rng.Float64()*100, rng.Float64()*100)
	}
	var sc HullScratch
	sc.ConvexHull(pts) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.ConvexHull(pts)
	})
	if allocs != 0 {
		t.Fatalf("warmed HullScratch.ConvexHull allocates %v allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		sc.CollinearHullContains(pts, pts[:8])
	})
	if allocs != 0 {
		t.Fatalf("warmed HullScratch.CollinearHullContains allocates %v allocs/op, want 0", allocs)
	}
}
