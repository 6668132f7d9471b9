package vision

import (
	"math/rand"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// randomScratchConfig places n unit discs with valid separation on a seeded
// grid-jittered layout (no workload import: package-internal test).
func randomScratchConfig(rng *rand.Rand, n int) []geom.Vec {
	out := make([]geom.Vec, 0, n)
	for len(out) < n {
		p := geom.V(rng.Float64()*40-20, rng.Float64()*40-20)
		ok := true
		for _, q := range out {
			if p.Dist(q) < 2*geom.UnitRadius+0.1 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// TestAppendCandidateSegmentsMatchesFresh pins the refactor that introduced
// the append-style candidate generator: for any pair it must produce exactly
// the segments of the allocating candidateSegments, bit for bit and in order,
// with preexisting dst contents preserved.
func TestAppendCandidateSegmentsMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := Default
	custom := New(Options{Radius: 1.5, BoundarySamples: 5})
	for trial := 0; trial < 200; trial++ {
		a := geom.V(rng.Float64()*30-15, rng.Float64()*30-15)
		b := geom.V(rng.Float64()*30-15, rng.Float64()*30-15)
		for _, model := range []*Model{m, custom} {
			r := model.opts.radius()
			want := model.candidateSegments(a, b, r)
			prefix := geom.Segment{A: geom.V(-1, -2), B: geom.V(-3, -4)}
			got := model.appendCandidateSegments([]geom.Segment{prefix}, a, b, r)
			if got[0] != prefix {
				t.Fatalf("trial %d: dst prefix clobbered", trial)
			}
			got = got[1:]
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d segments, want %d", trial, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d seg %d: %+v != %+v (must be bit-identical)", trial, k, got[k], want[k])
				}
			}
		}
	}
}

// TestVisibleScratchMatchesVisible is the differential oracle for the
// scratch-buffer pair query: over random valid configurations (including
// sizes that route batch queries through the grid) every ordered pair must
// agree with Model.Visible, and the scratch must be reusable across pairs and
// configurations without verdict drift.
func TestVisibleScratchMatchesVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	for _, n := range []int{2, 3, 5, 9, 17, 24} {
		centers := randomScratchConfig(rng, n)
		for i := range centers {
			for j := range centers {
				want := Default.Visible(centers, i, j)
				if got := Default.VisibleScratch(&sc, centers, i, j); got != want {
					t.Fatalf("n=%d: VisibleScratch(%d,%d)=%v, Visible=%v", n, i, j, got, want)
				}
			}
		}
	}
}

// TestVisibleScratchAllocFree pins the warmed scratch pair query at zero
// allocations — the property the incremental cache's recompute path depends
// on.
func TestVisibleScratchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	centers := randomScratchConfig(rng, 12)
	var sc Scratch
	Default.VisibleScratch(&sc, centers, 0, 7) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		Default.VisibleScratch(&sc, centers, 0, 7)
		Default.VisibleScratch(&sc, centers, 3, 9)
	})
	if allocs != 0 {
		t.Fatalf("warmed VisibleScratch allocates %v allocs/op, want 0", allocs)
	}
}

// TestRadiusAccessor pins the effective radius: the zero options resolve to
// geom.UnitRadius and an explicit Radius is used verbatim.
func TestRadiusAccessor(t *testing.T) {
	if got := Default.opts.radius(); got != geom.UnitRadius {
		t.Fatalf("Default radius = %v, want %v", got, geom.UnitRadius)
	}
	if got := New(Options{Radius: 2.5}).opts.radius(); got != 2.5 {
		t.Fatalf("radius = %v, want 2.5", got)
	}
}
