package vision_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

var dflt = vision.Default

// oracleConfigs are dense rings, random spreads, clusters and the degenerate
// collinear line (long skinny sight lines with crowded corridors).
func oracleConfigs(t testing.TB) map[string][]geom.Vec {
	t.Helper()
	out := map[string][]geom.Vec{
		"ring-40":   workload.Ring(40, 0),
		"ring-wide": workload.Ring(24, 200),
		"pair":      {geom.V(0, 0), geom.V(2, 0)},
	}
	for _, kind := range []workload.Kind{workload.KindRandom, workload.KindClustered, workload.KindCollinear, workload.KindGrid, workload.KindNestedHulls} {
		cfg, err := workload.Generate(kind, 32, 7)
		if err != nil {
			t.Fatalf("generate %s: %v", kind, err)
		}
		out[string(kind)] = cfg
	}
	return out
}

// TestIndexMatchesFlatScan checks that every index-addressed query
// (Visible(centers, i, j), View, FullyVisible, ...) answers exactly as the
// eager flat scan for every ordered pair.
func TestIndexMatchesFlatScan(t *testing.T) {
	for name, centers := range oracleConfigs(t) {
		if err := vision.CheckMatchesEager(dflt, centers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestVisibleMatchesEagerWorkloads runs the differential check on ring,
// nested-hulls and random configurations from n=3 to n=128.
func TestVisibleMatchesEagerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("n up to 128 against the eager oracle")
	}
	for _, kind := range []workload.Kind{workload.KindRing, workload.KindNestedHulls, workload.KindRandom} {
		for _, n := range []int{3, 4, 5, 8, 16, 24, 32, 64, 128} {
			centers, err := workload.Generate(kind, n, 3)
			if err != nil {
				t.Fatalf("generate %s n=%d: %v", kind, n, err)
			}
			if err := vision.CheckMatchesEager(dflt, centers); err != nil {
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
		}
	}
}

// TestDegenerateGeometryMatchesEager covers configurations with no extent:
// coincident centers, single robots, a zero-width line and a sub-Eps spread.
func TestDegenerateGeometryMatchesEager(t *testing.T) {
	coincident := make([]geom.Vec, 20)
	for i := range coincident {
		coincident[i] = geom.V(3.5, -1.25)
	}
	vertical := make([]geom.Vec, 24)
	for i := range vertical {
		vertical[i] = geom.V(0, 3*float64(i)) // zero x-span
	}
	cases := map[string][]geom.Vec{
		"coincident":      coincident,
		"single":          {geom.V(7, 7)},
		"two-coincident":  {geom.V(1, 1), geom.V(1, 1)},
		"collinear-horiz": workload.Collinear(24, 3),
		"collinear-vert":  vertical,
		"tiny-span":       {geom.V(0, 0), geom.V(1e-12, 1e-12), geom.V(0, 1e-12)},
	}
	for name, centers := range cases {
		if err := vision.CheckMatchesEager(dflt, centers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSingleRobotView pins the n=1 configuration end to end.
func TestSingleRobotView(t *testing.T) {
	one := []geom.Vec{geom.V(2, 3)}
	if view := dflt.View(one, 0); len(view) != 1 || view[0] != 0 {
		t.Fatalf("single robot view = %v, want [0]", view)
	}
	if !dflt.FullyVisible(one) {
		t.Fatal("a single robot must be fully visible")
	}
}

// TestNonFiniteCenters checks that NaN and infinite coordinates neither panic
// nor change any verdict: the corridor counts a NaN distance as inside, so
// such discs go through the full candidate test exactly as in the eager scan.
func TestNonFiniteCenters(t *testing.T) {
	nan := math.NaN()
	cases := map[string][]geom.Vec{
		"nan-x":    {geom.V(0, 0), geom.V(nan, 1), geom.V(8, 0)},
		"nan-both": {geom.V(nan, nan), geom.V(nan, nan)},
		"inf-x":    {geom.V(0, 0), geom.V(math.Inf(1), 0), geom.V(4, 4)},
		"neg-inf":  {geom.V(math.Inf(-1), 0), geom.V(0, 0), geom.V(4, 0)},
		"nan-wall": {geom.V(0, 0), geom.V(5, 0), geom.V(10, 0), geom.V(nan, 0)},
	}
	for name, centers := range cases {
		if err := vision.CheckMatchesEager(dflt, centers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestEmptyConfiguration pins the zero-robot queries.
func TestEmptyConfiguration(t *testing.T) {
	if !dflt.FullyVisible(nil) {
		t.Fatal("an empty configuration is vacuously fully visible")
	}
}

// TestIndexViewMatchesModelView checks the index-addressed View against
// per-pair eager reference answers.
func TestIndexViewMatchesModelView(t *testing.T) {
	for name, centers := range oracleConfigs(t) {
		for i := range centers {
			var want []int
			for j := range centers {
				if vision.EagerVisible(dflt, centers, i, j) {
					want = append(want, j)
				}
			}
			if got := dflt.View(centers, i); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: View(%d) = %v want %v", name, i, got, want)
			}
		}
	}
}

// TestFullyVisibleMatchesFlatScan compares the whole-configuration predicate
// with the eager flat scan.
func TestFullyVisibleMatchesFlatScan(t *testing.T) {
	for name, centers := range oracleConfigs(t) {
		if got, want := dflt.FullyVisible(centers), vision.EagerFullyVisible(dflt, centers); got != want {
			t.Fatalf("%s: FullyVisible = %v want %v", name, got, want)
		}
	}
}

// TestVisibilityCountMatches cross-checks the ordered-pair count summed over
// the views against the eager scan.
func TestVisibilityCountMatches(t *testing.T) {
	centers := workload.Ring(30, 0)
	want := 0
	for i := range centers {
		for j := range centers {
			if i != j && vision.EagerVisible(dflt, centers, i, j) {
				want++
			}
		}
	}
	got := 0
	for i := range centers {
		got += len(dflt.View(centers, i)) - 1
	}
	if got != want {
		t.Fatalf("ordered pairs seen in the views = %d want %d", got, want)
	}
}

func benchmarkCenters(n int) []geom.Vec { return workload.Ring(n, 0) }

func BenchmarkFullyVisibleFlat(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		centers := benchmarkCenters(n)
		b.Run(benchName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dflt.FullyVisible(centers)
			}
		})
	}
}

func benchName(n int) string { return fmt.Sprintf("n=%d", n) }
