package incr_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/geom/incr"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// sameBits reports exact (bit-level) float equality — the cache's contract is
// bit-identity with the from-scratch oracles, not epsilon closeness.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkAgainstOracles compares every cached predicate against its from-scratch
// oracle on the cache's current centers. Exact equality throughout.
func checkAgainstOracles(t *testing.T, c *incr.Cache, m *vision.Model) {
	t.Helper()
	cfg := config.Geometric(append([]geom.Vec(nil), c.Centers()...))
	n := len(cfg)

	// Pairwise visibility matrix vs vision.Model.Visible.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := c.Visible(i, j), m.Visible(cfg, i, j); got != want {
				t.Fatalf("Visible(%d,%d) = %v, oracle %v", i, j, got, want)
			}
		}
	}
	if got, want := c.FullyVisible(), m.FullyVisible(cfg); got != want {
		t.Fatalf("FullyVisible = %v, oracle %v", got, want)
	}

	// Look snapshots vs vision.Model.ViewCenters.
	for i := 0; i < n; i++ {
		want := m.ViewCenters(cfg, i)
		got := c.AppendViewCenters(nil, i)
		if len(got) != len(want) {
			t.Fatalf("ViewCenters(%d): %d centers, oracle %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("ViewCenters(%d)[%d] = %v, oracle %v", i, k, got[k], want[k])
			}
		}
	}

	// Hull predicates vs geom.ConvexHull / config.Geometric.
	wantCorners := geom.ConvexHull(cfg)
	gotCorners := c.HullCorners()
	if len(gotCorners) != len(wantCorners) {
		t.Fatalf("HullCorners: %d vertices, oracle %d", len(gotCorners), len(wantCorners))
	}
	for k := range wantCorners {
		if gotCorners[k] != wantCorners[k] {
			t.Fatalf("HullCorners[%d] = %v, oracle %v (must be bit-identical)", k, gotCorners[k], wantCorners[k])
		}
	}
	if got, want := c.OnHullCount(), cfg.OnHullCount(); got != want {
		t.Fatalf("OnHullCount = %d, oracle %d", got, want)
	}
	if got, want := c.AllOnHull(), cfg.AllOnHull(); got != want {
		t.Fatalf("AllOnHull = %v, oracle %v", got, want)
	}
	if got, want := c.HullArea(), cfg.HullArea(); !sameBits(got, want) {
		t.Fatalf("HullArea = %v (bits %x), oracle %v (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}

	// Connectivity vs config.Geometric.Connected.
	if got, want := c.Connected(), cfg.Connected(); got != want {
		t.Fatalf("Connected = %v, oracle %v", got, want)
	}

	// Scalar series sources.
	if got, want := c.Spread(), cfg.Spread(); !sameBits(got, want) {
		t.Fatalf("Spread = %v, oracle %v (must be bit-identical)", got, want)
	}
}

// moveSequence applies steps random single-robot displacements, checking the
// cache against the oracles after every single move (the per-event pattern of
// the simulator: exactly one robot moves at a time). Displacements mix small
// simulator-scale steps with occasional large jumps so moves both stay inside
// and leave the blocking corridors of other pairs.
func moveSequence(t *testing.T, rng *rand.Rand, c *incr.Cache, m *vision.Model, steps int) {
	t.Helper()
	n := len(c.Centers())
	for s := 0; s < steps; s++ {
		i := rng.Intn(n)
		scale := 0.5
		if rng.Intn(4) == 0 {
			scale = 10 // corridor-leaving jump
		}
		p := c.Centers()[i]
		p.X += (rng.Float64()*2 - 1) * scale
		p.Y += (rng.Float64()*2 - 1) * scale
		c.Move(i, p)
		checkAgainstOracles(t, c, m)
	}
}

// TestCacheMatchesOraclesOverMoveSequences is the main differential property
// test: over every workload shape and a range of sizes (crossing the vision
// grid threshold), a randomized single-robot-move sequence must keep every
// cached predicate exactly equal to its from-scratch oracle.
func TestCacheMatchesOraclesOverMoveSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for _, kind := range workload.Kinds() {
		for _, n := range []int{1, 2, 3, 5, 8, 17} {
			cfg, err := workload.Generate(kind, n, 1)
			if err != nil {
				t.Fatalf("generate %s n=%d: %v", kind, n, err)
			}
			c := incr.New(vision.Default, cfg)
			checkAgainstOracles(t, c, vision.Default)
			steps := 12
			if n >= 17 {
				steps = 4 // oracle cost is O(n^3) per step
			}
			moveSequence(t, rng, c, vision.Default, steps)
		}
	}
}

// TestCacheCustomModel repeats the differential check under a non-default
// visibility model (larger radius, fewer boundary samples): the cache must
// take its blocking radius from the model, not assume unit discs.
func TestCacheCustomModel(t *testing.T) {
	m := vision.New(vision.Options{Radius: 1.75, BoundarySamples: 4})
	cfg, err := workload.Generate(workload.KindRandom, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := incr.New(m, cfg)
	checkAgainstOracles(t, c, m)
	moveSequence(t, rand.New(rand.NewSource(9)), c, m, 10)
}

// TestCacheReset pins the structural-change fallback: after Reset the cache
// must answer for the new configuration as if freshly built.
func TestCacheReset(t *testing.T) {
	a, err := workload.Generate(workload.KindClustered, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(workload.KindNestedHulls, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := incr.New(vision.Default, a)
	c.Move(0, geom.V(100, 100))
	c.Reset(b)
	checkAgainstOracles(t, c, vision.Default)

	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a different size must panic")
		}
	}()
	c.Reset(b[:3])
}

// TestCacheMoveAllocFree pins the per-move allocation budget of the warmed
// cache at zero: Move plus the full set of per-event queries (the observe()
// pattern in internal/sim) must not allocate. This is the core of the event
// loop's alloc win; a regression here silently re-inflates every simulation.
func TestCacheMoveAllocFree(t *testing.T) {
	cfg, err := workload.Generate(workload.KindClustered, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := incr.New(vision.Default, cfg)
	rng := rand.New(rand.NewSource(4))
	// Warm every lazy path once.
	c.Move(0, geom.V(cfg[0].X+0.25, cfg[0].Y))
	_, _, _, _, _ = c.AllOnHull(), c.FullyVisible(), c.Connected(), c.HullArea(), c.Spread()

	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := rng.Intn(len(c.Centers()))
		p := c.Centers()[r]
		p.X += (rng.Float64()*2 - 1) * 0.3
		p.Y += (rng.Float64()*2 - 1) * 0.3
		c.Move(r, p)
		_ = c.AllOnHull()
		_ = c.FullyVisible()
		_ = c.Connected()
		_ = c.HullArea()
		_ = c.Spread()
		i++
	})
	if allocs != 0 {
		t.Fatalf("warmed Move+queries allocates %v allocs/op, want 0", allocs)
	}
}
