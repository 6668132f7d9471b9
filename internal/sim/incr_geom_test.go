package sim

import (
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/race"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestStepGeometryMatchesScratchOracles is the simulator-level differential
// test for the incremental geometry cache: drive real event sequences (the
// only code path that feeds geo.Move) under several strategies and, after
// every single Step, compare each cached predicate against the from-scratch
// config.Geometric / vision oracle on the live configuration. All comparisons
// are exact — bit-level for floats — because the observe()/result() values
// flow into pinned milestone indices, snapshot series and store records.
func TestStepGeometryMatchesScratchOracles(t *testing.T) {
	specs := []string{"fair", "greedy-stall", "random-async"}
	for _, spec := range specs {
		for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls} {
			for _, n := range []int{3, 6, 17} {
				cfg, err := workload.Generate(kind, n, 1)
				if err != nil {
					t.Fatalf("generate %s n=%d: %v", kind, n, err)
				}
				as, err := adversary.ParseSpec(spec)
				if err != nil {
					t.Fatalf("parse %q: %v", spec, err)
				}
				strat, err := adversary.New(as, 7)
				if err != nil {
					t.Fatalf("build %q: %v", spec, err)
				}
				s, err := New(cfg, Options{Strategy: strat, SnapshotEvery: 1})
				if err != nil {
					t.Fatal(err)
				}
				for ev := 0; ev < 120 && !s.AllTerminated(); ev++ {
					if err := s.Step(); err != nil {
						t.Fatalf("%s/%s/n=%d step %d: %v", spec, kind, n, ev, err)
					}
					live := s.Config()
					if got, want := s.geo.Connected(), live.Connected(); got != want {
						t.Fatalf("%s/%s/n=%d ev %d: Connected cache %v, oracle %v", spec, kind, n, ev, got, want)
					}
					if got, want := s.geo.FullyVisible(), live.FullyVisible(s.opts.Vision); got != want {
						t.Fatalf("%s/%s/n=%d ev %d: FullyVisible cache %v, oracle %v", spec, kind, n, ev, got, want)
					}
					if got, want := s.geo.AllOnHull(), live.AllOnHull(); got != want {
						t.Fatalf("%s/%s/n=%d ev %d: AllOnHull cache %v, oracle %v", spec, kind, n, ev, got, want)
					}
					ga, wa := s.geo.HullArea(), live.HullArea()
					if math.Float64bits(ga) != math.Float64bits(wa) {
						t.Fatalf("%s/%s/n=%d ev %d: HullArea cache %v, oracle %v (must be bit-identical)", spec, kind, n, ev, ga, wa)
					}
					gs, ws := s.geo.Spread(), live.Spread()
					if math.Float64bits(gs) != math.Float64bits(ws) {
						t.Fatalf("%s/%s/n=%d ev %d: Spread cache %v, oracle %v (must be bit-identical)", spec, kind, n, ev, gs, ws)
					}
				}
			}
		}
	}
}

// stepAllocBudget is the pinned per-event allocation budget for Simulator.Step
// averaged over a long fair-schedule run. The per-event geometry (visibility,
// hull, connectivity, spread) is allocation-free through the incremental
// cache, and core.Decide computes in a pooled workspace, so what remains is
// two allocations per Compute — core.NewView's defensive copy and the
// decision's Trace — or about half an allocation per event on an n=9 ring,
// which testing.AllocsPerRun reports as 0 (versus ~20 before the pooled
// workspace and several hundred before the cache). The budget leaves slack
// for Go-version variance but fails on any structural regression such as
// losing a reused buffer.
const stepAllocBudget = 2

// TestStepAllocBudget pins the simulator's per-event allocation count. This is
// the event-loop half of the alloc win (the geometry half is pinned at zero in
// internal/geom/incr); a regression here multiplies across every event of
// every sweep cell.
func TestStepAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes core.Decide's sync.Pool drop workspaces at random")
	}
	s, err := New(workload.Ring(9, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm all reused buffers through a few full Look-Compute-Move cycles.
	for i := 0; i < 64; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if s.AllTerminated() {
			return
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if s.AllTerminated() {
		t.Fatal("run terminated during measurement; enlarge the workload")
	}
	if allocs > stepAllocBudget {
		t.Fatalf("Step allocates %v allocs/op on average, budget %d", allocs, stepAllocBudget)
	}
}
