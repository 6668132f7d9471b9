package sim

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestStepInvariantsProperty is a property-based sweep over randomized
// (workload, n, seed, adversary) combinations. After every single Step it
// asserts the physical and geometric invariants of the model:
//
//  1. No two discs ever overlap: every pairwise center distance stays at
//     least 2r - ContactEps (the simulator's tangency tolerance).
//  2. Once the gathering goal (connected + fully visible) first holds, the
//     convex hull area never grows again (the Lemma 21 convergence
//     property). Before that point the hull may legitimately grow, because
//     phase 1 moves interior robots outward onto the hull.
func TestStepInvariantsProperty(t *testing.T) {
	const (
		combos    = 14
		maxEvents = 8000
	)
	rng := rand.New(rand.NewSource(20260728))
	kinds := workload.Kinds()
	advNames := stateOnlyNames

	for c := 0; c < combos; c++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := 3 + rng.Intn(6)
		seed := rng.Int63n(1000) + 1
		advName := advNames[rng.Intn(len(advNames))]

		w, err := workload.Generate(kind, n, seed)
		if err != nil {
			t.Fatalf("generate %s n=%d: %v", kind, n, err)
		}
		s, err := New(w, Options{Strategy: strategy(t, advName, seed+77), MaxEvents: maxEvents})
		if err != nil {
			t.Fatalf("%s n=%d seed=%d: %v", kind, n, seed, err)
		}

		hullAtGoal := -1.0
		prevArea := -1.0
		for s.Events() < maxEvents && !s.AllTerminated() {
			if err := s.Step(); errors.Is(err, ErrLivelocked) {
				// A certified zero-progress cycle: the configuration is frozen
				// for good, so every remaining invariant holds trivially.
				break
			} else if err != nil {
				t.Fatalf("%s n=%d seed=%d adv=%s: step: %v", kind, n, seed, advName, err)
			}
			cfg := s.Config()
			if d := cfg.MinPairDistance(); n > 1 && d < 2*geom.UnitRadius-1e-7 {
				t.Fatalf("%s n=%d seed=%d adv=%s event=%d: discs overlap (min pair distance %.12f)",
					kind, n, seed, advName, s.Events(), d)
			}
			if s.milestones.Gathered >= 0 {
				area := cfg.HullArea()
				if hullAtGoal < 0 {
					hullAtGoal = area
				} else if area > prevArea+1e-9 {
					t.Fatalf("%s n=%d seed=%d adv=%s event=%d: hull area grew after gathering (%.12f -> %.12f)",
						kind, n, seed, advName, s.Events(), prevArea, area)
				}
				prevArea = area
			}
		}
	}
}

// TestValidateEveryEventAgrees runs the simulator's built-in per-event
// validation over the same property space; it must never trip.
func TestValidateEveryEventAgrees(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workload.Generate(workload.KindClustered, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, Options{
			Strategy:           adversary.NewRandomAsync(seed + 5),
			MaxEvents:          6000,
			ValidateEveryEvent: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Err != nil {
			t.Fatalf("seed %d: invariant violation: %v", seed, res.Err)
		}
	}
}
