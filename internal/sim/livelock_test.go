package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
	"github.com/fatgather/fatgather/internal/workload"
)

// nearestNeighbour is a test-only Algorithm whose robots always target the
// center of their nearest visible neighbour. A move toward a disc ends
// tangent to some disc, and from then on every grant is 0: the mover already
// touches the disc it heads into. So every run deadlocks by construction,
// whatever package core decides, and the livelock tests do not rest on a
// defect of the paper's algorithm.
type nearestNeighbour struct{}

func (nearestNeighbour) Name() string { return "nearest-neighbour" }

func (nearestNeighbour) Decide(v core.View) core.Decision {
	target, best := v.Self, math.Inf(1)
	for _, c := range v.Others {
		if d := v.Self.Dist(c); d < best {
			target, best = c, d
		}
	}
	return core.Decision{Target: target}
}

// livelockCase is a deadlock by construction: nested-hulls n=6 under
// round-robin-lag with nearestNeighbour robots. Without certification it
// burns the full budget.
func livelockCase(t *testing.T) (config.Geometric, Options) {
	t.Helper()
	cfg, err := workload.Generate(workload.KindNestedHulls, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, Options{
		Algorithm: nearestNeighbour{},
		Strategy:  adversary.NewRoundRobinLag(),
		MaxEvents: 150000,
	}
}

func TestRoundRobinLagLivelockCertified(t *testing.T) {
	cfg, opts := livelockCase(t)
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeLivelocked {
		t.Fatalf("outcome = %v (events=%d), want livelocked", res.Outcome, res.Events)
	}
	// "Well under budget": the detector needs roughly the activation window
	// plus a few cycle lengths past the livelock onset, nowhere near 150000.
	if res.Events >= 10000 {
		t.Fatalf("certified only after %d events; want well under the 150000 budget", res.Events)
	}
	if res.Err != nil {
		t.Fatalf("unexpected run error: %v", res.Err)
	}
}

func TestLivelockTraceSnippet(t *testing.T) {
	cfg, opts := livelockCase(t)
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.LivelockTrace
	if tr == nil {
		t.Fatal("certified livelock should carry a trace snippet")
	}
	if tr.Len() == 0 || tr.Len() > DefaultLivelockTraceFrames {
		t.Fatalf("snippet has %d frames, want 1..%d", tr.Len(), DefaultLivelockTraceFrames)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("snippet invalid: %v", err)
	}
	if tr.N != res.N || tr.Algorithm != res.Algorithm || tr.Adversary != res.Adversary {
		t.Fatalf("snippet metadata %q/%q/%d does not match result %q/%q/%d",
			tr.Algorithm, tr.Adversary, tr.N, res.Algorithm, res.Adversary, res.N)
	}
	// The last frame is the configuration at certification: positions are
	// frozen, so it must equal the final configuration bit for bit.
	last := tr.Config(tr.Len() - 1)
	for i, c := range last {
		if c != res.Final[i] {
			t.Fatalf("snippet last frame robot %d at %v, final config at %v", i, c, res.Final[i])
		}
	}
	// Every frame of a zero-progress cycle holds the same frozen positions.
	first := tr.Config(0)
	for i := range first {
		if first[i] != last[i] {
			t.Fatalf("robot %d moved inside the certified cycle: %v -> %v", i, first[i], last[i])
		}
	}
}

func TestLivelockDetectionDeterministic(t *testing.T) {
	cfg, opts := livelockCase(t)
	a, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, opts = livelockCase(t)
	b, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.Events != b.Events || a.TotalDistance != b.TotalDistance {
		t.Fatalf("two identical runs diverged: (%v, %d, %g) vs (%v, %d, %g)",
			a.Outcome, a.Events, a.TotalDistance, b.Outcome, b.Events, b.TotalDistance)
	}
	for i, r := range []Result{a, b} {
		if r.LivelockTrace == nil {
			t.Fatalf("run %d ended %v after %d events without a livelock trace", i+1, r.Outcome, r.Events)
		}
	}
	if a.LivelockTrace.Len() != b.LivelockTrace.Len() {
		t.Fatalf("snippet lengths diverged: %d vs %d", a.LivelockTrace.Len(), b.LivelockTrace.Len())
	}
}

func TestLivelockDetectionDisabled(t *testing.T) {
	cfg, opts := livelockCase(t)
	opts.MaxEvents = 20000 // keep the burn cheap; still far beyond certification
	opts.NoLivelockDetection = true
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeBudgetExhausted {
		t.Fatalf("outcome = %v, want the pre-detector budget-exhausted behavior", res.Outcome)
	}
	if res.Events != 20000 {
		t.Fatalf("events = %d, want the full 20000 budget burned", res.Events)
	}
	if res.LivelockTrace != nil {
		t.Fatal("disabled detector must not record a snippet")
	}
}

func TestLivelockWindowDefersCertification(t *testing.T) {
	cfg, opts := livelockCase(t)
	opts.MaxEvents = DefaultLivelockWindow - 1 // budget below the window: detector stays dormant
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeBudgetExhausted {
		t.Fatalf("outcome = %v, want budget-exhausted with a budget below the window", res.Outcome)
	}
}

// TestHealthyRunsUnaffected pins that detection never fires on runs that make
// progress and terminate: same outcome, events, and distance as with the
// detector off. The two-robot configuration gathers and terminates under
// every registered adversary (see TestTwoRobotsGatherUnderEveryAdversary).
func TestHealthyRunsUnaffected(t *testing.T) {
	for _, name := range stateOnlyNames {
		cfg := config.Geometric{geom.V(0, 0), geom.V(9, 3)}
		on, err := Run(cfg, Options{Strategy: strategy(t, name, 11), MaxEvents: 150000})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Run(cfg, Options{Strategy: strategy(t, name, 11), MaxEvents: 150000, NoLivelockDetection: true})
		if err != nil {
			t.Fatal(err)
		}
		if on.Outcome != off.Outcome || on.Events != off.Events || on.TotalDistance != off.TotalDistance {
			t.Fatalf("adv=%s: detector changed a healthy run: (%v, %d, %g) vs (%v, %d, %g)",
				name, on.Outcome, on.Events, on.TotalDistance, off.Outcome, off.Events, off.TotalDistance)
		}
		if on.LivelockTrace != nil {
			t.Fatalf("adv=%s: healthy run recorded a livelock snippet", name)
		}
	}
}

// badPickStrategy returns a fixed robot ID regardless of the candidate set.
type badPickStrategy struct{ id int }

func (badPickStrategy) Name() string                        { return "bad-pick" }
func (b badPickStrategy) Next(_ []int, _ adversary.Env) int { return b.id }
func (badPickStrategy) Move(_ int, r float64, _ adversary.Env) sched.MoveAction {
	return sched.MoveAction{Distance: r}
}

func TestStepRejectsOutOfRangePick(t *testing.T) {
	for _, id := range []int{-5, 99} {
		res, err := Run(config.Geometric{geom.V(0, 0), geom.V(9, 0)}, Options{
			Strategy: badPickStrategy{id: id}, MaxEvents: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeError {
			t.Fatalf("pick %d: outcome = %v, want error", id, res.Outcome)
		}
		if !errors.Is(res.Err, ErrBadSchedule) {
			t.Fatalf("pick %d: err = %v, want ErrBadSchedule", id, res.Err)
		}
		if res.Events != 0 {
			t.Fatalf("pick %d: %d events executed after an invalid pick", id, res.Events)
		}
	}
}

// TestStepRejectsTerminatedPick pins the second half of the old coercion bug:
// picking a robot that already terminated (in range, but not a candidate)
// must fail loudly instead of silently running candidates[0].
func TestStepRejectsTerminatedPick(t *testing.T) {
	// Robot 0 terminates after one full cycle of a single-robot run; then a
	// strategy that keeps picking it must trip ErrBadSchedule.
	s, err := New(config.Geometric{geom.V(0, 0), geom.V(9, 0)}, Options{
		Strategy: badPickStrategy{id: 0}, MaxEvents: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive robot 0 by hand until it terminates (two robots at distance 9
	// are mutually invisible under the default model only if out of range;
	// instead terminate robot 0 artificially via its state machine).
	r := s.Robots()[0]
	if err := r.BeginLook([]geom.Vec{r.Center}); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginCompute(); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if r.State != robot.Terminate {
		t.Fatalf("setup failed: robot 0 in state %v", r.State)
	}
	if err := s.Step(); !errors.Is(err, ErrBadSchedule) {
		t.Fatalf("err = %v, want ErrBadSchedule for a terminated pick", err)
	}
}

func TestLivelockOutcomeStrings(t *testing.T) {
	if OutcomeLivelocked.String() != "livelocked" || OutcomeError.String() != "error" {
		t.Fatalf("unexpected outcome strings: %v %v", OutcomeLivelocked, OutcomeError)
	}
}

func TestDefaultMaxEventsPinned(t *testing.T) {
	if DefaultMaxEvents != 200000 {
		t.Fatalf("sim.DefaultMaxEvents = %d; changing the single-run budget is a conscious decision (see Options.MaxEvents)", DefaultMaxEvents)
	}
}
