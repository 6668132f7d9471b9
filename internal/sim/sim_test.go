package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/workload"
)

func v(x, y float64) geom.Vec { return geom.V(x, y) }

// stateOnlyNames are the five scheduling policies that rule on robot states
// alone.
var stateOnlyNames = []string{
	adversary.NameFair, adversary.NameRandomAsync, adversary.NameStopHappy,
	adversary.NameSlowRobot, adversary.NameMoverStarver,
}

// strategy builds the named base strategy with the given seed.
func strategy(t testing.TB, name string, seed int64) adversary.Strategy {
	t.Helper()
	s, err := adversary.New(adversary.Spec{Strategy: name}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsInvalidInitial(t *testing.T) {
	if _, err := New(config.Geometric{v(0, 0), v(1, 0)}, Options{}); !errors.Is(err, ErrInvalidInitial) {
		t.Fatalf("expected ErrInvalidInitial, got %v", err)
	}
	if _, err := New(config.Geometric{}, Options{}); !errors.Is(err, ErrInvalidInitial) {
		t.Fatalf("expected ErrInvalidInitial for empty config, got %v", err)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeAllTerminated.String() != "all-terminated" ||
		OutcomeGathered.String() != "gathered" ||
		OutcomeBudgetExhausted.String() != "budget-exhausted" {
		t.Fatal("unexpected outcome strings")
	}
	if Outcome(99).String() == "" {
		t.Fatal("unknown outcome should still stringify")
	}
}

func TestSingleRobotTerminatesImmediately(t *testing.T) {
	res, err := Run(config.Geometric{v(0, 0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeAllTerminated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.TerminatedCount != 1 {
		t.Fatalf("terminated = %d", res.TerminatedCount)
	}
}

func TestTwoRobotsGatherUnderEveryAdversary(t *testing.T) {
	for _, name := range stateOnlyNames {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(config.Geometric{v(0, 0), v(9, 3)}, Options{
				Strategy:           strategy(t, name, 11),
				MaxEvents:          30000,
				ValidateEveryEvent: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != OutcomeAllTerminated {
				t.Fatalf("outcome = %v (events=%d)", res.Outcome, res.Events)
			}
			if !res.Gathered() {
				t.Fatal("two robots should end gathered")
			}
			if res.Err != nil {
				t.Fatalf("unexpected run error: %v", res.Err)
			}
		})
	}
}

func TestSmallClusterGathersAndTerminates(t *testing.T) {
	// Seeds chosen so that the run completes well inside the event budget;
	// convergence for every seed at larger n is the subject of the
	// experiment harness (internal/experiments), not of this unit test.
	cases := []struct {
		n    int
		seed int64
	}{{3, 1}, {4, 2}, {5, 3}}
	for _, tc := range cases {
		cfg, err := workload.Generate(workload.KindClustered, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, Options{Strategy: adversary.NewRandomAsync(42), MaxEvents: 150000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeAllTerminated {
			t.Fatalf("n=%d: outcome = %v", tc.n, res.Outcome)
		}
		if !res.Gathered() {
			t.Fatalf("n=%d: final configuration not gathered", tc.n)
		}
		if err := res.Final.Validate(); err != nil {
			t.Fatalf("n=%d: final configuration invalid: %v", tc.n, err)
		}
		if res.Milestones.Gathered < 0 || res.Milestones.Connected < 0 {
			t.Fatalf("n=%d: milestones not recorded: %+v", tc.n, res.Milestones)
		}
	}
}

func TestNoOverlapInvariantThroughoutRun(t *testing.T) {
	cfg, err := workload.Generate(workload.KindNestedHulls, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{
		Strategy:           adversary.NewStopHappy(5),
		MaxEvents:          40000,
		ValidateEveryEvent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("invariant violated: %v", res.Err)
	}
}

func TestStopWhenGathered(t *testing.T) {
	cfg, err := workload.Generate(workload.KindClustered, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{
		Strategy:         adversary.NewRandomAsync(9),
		StopWhenGathered: true,
		MaxEvents:        150000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeGathered && res.Outcome != OutcomeAllTerminated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !res.Gathered() {
		t.Fatal("run should end gathered")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	cfg, err := workload.Generate(workload.KindRandom, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{MaxEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeBudgetExhausted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Events > 50 {
		t.Fatalf("events %d exceeded budget", res.Events)
	}
}

func TestSnapshotSeries(t *testing.T) {
	cfg, err := workload.Generate(workload.KindClustered, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{SnapshotEvery: 10, MaxEvents: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HullAreaSeries) == 0 || len(res.SpreadSeries) == 0 {
		t.Fatal("expected recorded series")
	}
	for _, a := range res.HullAreaSeries {
		if a < 0 {
			t.Fatal("negative hull area recorded")
		}
	}
}

func TestBaselineAlgorithmPluggability(t *testing.T) {
	cfg := config.Geometric{v(0, 0), v(8, 0), v(4, 7)}
	res, err := Run(cfg, Options{Algorithm: gravityForTest{}, MaxEvents: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "test-gravity" {
		t.Fatalf("algorithm name = %q", res.Algorithm)
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatalf("final configuration invalid: %v", err)
	}
}

func TestFirstContact(t *testing.T) {
	// Moving right toward a disc two units ahead of the contact distance.
	tHit, hits := geom.FirstDiscContact(v(0, 0), v(1, 0), v(4, 0), geom.UnitRadius, 10, config.ContactEps)
	if !hits || tHit <= 0 || tHit > 2.0001 {
		t.Fatalf("firstContact = %v %v", tHit, hits)
	}
	// Moving away from a touching disc is allowed.
	_, hits = geom.FirstDiscContact(v(0, 0), v(1, 0), v(-2, 0), geom.UnitRadius, 10, config.ContactEps)
	if hits {
		t.Fatal("moving away from a tangent disc should not be blocked")
	}
	// Moving into a touching disc is blocked immediately.
	tHit, hits = geom.FirstDiscContact(v(0, 0), v(1, 0), v(2, 0), geom.UnitRadius, 10, config.ContactEps)
	if !hits || tHit != 0 {
		t.Fatalf("head-on tangent contact: %v %v", tHit, hits)
	}
	// A disc far off the path never blocks.
	if _, hits = geom.FirstDiscContact(v(0, 0), v(1, 0), v(5, 10), geom.UnitRadius, 100, config.ContactEps); hits {
		t.Fatal("distant disc should not block")
	}
}

// gravityForTest is a minimal Algorithm used to exercise pluggability: move
// toward the centroid of the view and never terminate.
type gravityForTest struct{}

func (gravityForTest) Name() string { return "test-gravity" }

func (gravityForTest) Decide(view core.View) core.Decision {
	return core.Decision{Target: geom.Centroid(view.All()), Trace: []core.AlgState{core.StateStart, core.StateNotConnected}}
}

// Result.StateVisits is copied by enumerating core.AllAlgStates() rather than
// ranging over the internal map (gatherlint detmaprange). The copy must stay
// complete — every visited state survives with its exact count — and
// byte-for-byte reproducible across identical runs.
func TestStateVisitsCopyIsCompleteAndReproducible(t *testing.T) {
	run := func() Result {
		res, err := Run(config.Geometric{v(0, 0), v(6, 2), v(-3, 5)}, Options{
			Strategy:  strategy(t, adversary.NameRandomAsync, 41),
			MaxEvents: 50000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.StateVisits) == 0 {
		t.Fatal("StateVisits is empty after a multi-robot run")
	}
	total := 0
	for _, st := range core.AllAlgStates() {
		total += a.StateVisits[st]
	}
	sum := 0
	for _, n := range a.StateVisits {
		sum += n
	}
	if total != sum {
		t.Fatalf("copy dropped visits: AllAlgStates sum %d != map sum %d", total, sum)
	}
	if !reflect.DeepEqual(a.StateVisits, b.StateVisits) {
		t.Fatalf("StateVisits not reproducible:\n  a=%v\n  b=%v", a.StateVisits, b.StateVisits)
	}
}
