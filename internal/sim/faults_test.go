package sim

import (
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestCrashStrategyStallsRun pins the crash-stop end-to-end semantics: with
// every robot crashed after its first move, the run must end stalled (not
// burn the whole event budget), with nobody terminated.
func TestCrashStrategyStallsRun(t *testing.T) {
	n := 4
	strat, err := adversary.New(adversary.Spec{Strategy: adversary.NameCrash, Crash: n}, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(workload.Ring(n, 14), Options{Strategy: strat, MaxEvents: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeStalled {
		t.Fatalf("outcome %v, want %v", res.Outcome, OutcomeStalled)
	}
	if res.Events >= 100000 {
		t.Fatalf("stall burned the whole budget (%d events): Run did not cut the run short", res.Events)
	}
	if res.TerminatedCount != 0 {
		t.Fatalf("%d robots terminated under full crash", res.TerminatedCount)
	}
	if res.Adversary != "crash(4)" {
		t.Fatalf("result adversary %q, want crash(4)", res.Adversary)
	}
}

// TestPartialCrashKeepsSurvivorsLive: with k < n crashed, the run continues
// (survivors keep getting events) and never reports more than n-k
// terminations by the paper's algorithm.
func TestPartialCrashKeepsSurvivorsLive(t *testing.T) {
	strat, err := adversary.New(adversary.Spec{Strategy: adversary.NameCrash, Crash: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(workload.Ring(4, 14), Options{Strategy: strat, MaxEvents: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeAllTerminated {
		t.Fatalf("all robots terminated despite a crashed one")
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatalf("final configuration invalid under crash faults: %v", err)
	}
}

// TestSurvivorMetricsReported pins the survivor-relative result fields:
// crash runs report how many robots crash-stopped and whether the survivors
// alone satisfy the gathering goal; fault-free runs report zero crashes and
// a survivor flag identical to the full goal.
func TestSurvivorMetricsReported(t *testing.T) {
	// Fault-free: survivors == everyone.
	plain, err := Run(workload.TangentRing(2), Options{MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if plain.CrashedCount != 0 {
		t.Fatalf("fault-free run reports %d crashed robots", plain.CrashedCount)
	}
	if plain.SurvivorsGathered != plain.Gathered() {
		t.Fatalf("fault-free SurvivorsGathered %v != Gathered %v", plain.SurvivorsGathered, plain.Gathered())
	}

	// Full crash: everybody freezes after the first move, n robots crashed,
	// and the survivor goal over the empty set is trivially false or true —
	// pin the count, not the vacuous predicate.
	strat, err := adversary.New(adversary.Spec{Strategy: adversary.NameCrash, Crash: 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := Run(workload.Ring(4, 14), Options{Strategy: strat, MaxEvents: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.CrashedCount != 4 {
		t.Fatalf("crash(4) run reports %d crashed robots, want 4", crashed.CrashedCount)
	}

	// Partial crash, decorated with noise so the crash layer sits under
	// another decorator: the count must still surface through the stack.
	strat, err = adversary.New(adversary.Spec{Strategy: adversary.NameFair, Crash: 1, Noise: 0.01}, 7)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Run(workload.Ring(4, 14), Options{Strategy: strat, MaxEvents: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if partial.CrashedCount != 1 {
		t.Fatalf("crash=1 through a fault decorator reports %d crashed robots, want 1", partial.CrashedCount)
	}
}

// TestNoiseKeepsPhysicalInvariants: sensor noise corrupts only the snapshots,
// so the no-overlap invariant must survive arbitrarily large noise.
func TestNoiseKeepsPhysicalInvariants(t *testing.T) {
	strat, err := adversary.New(adversary.Spec{Strategy: adversary.NameRandomAsync, Noise: 1.5}, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(workload.Ring(5, 16), Options{
		Strategy:           strat,
		MaxEvents:          5000,
		ValidateEveryEvent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("invariant violated under noise: %v", res.Err)
	}
}

// TestTruncationSlowsButNeverFreezes: motion truncation scales each grant by
// a factor in (1-trunc, 1], so a truncated run needs at least as many events
// to terminate as the unfaulted one — but the residual progress per event
// stays positive, so it must still terminate within a generous budget.
func TestTruncationSlowsButNeverFreezes(t *testing.T) {
	run := func(trunc float64) Result {
		strat, err := adversary.New(adversary.Spec{Strategy: adversary.NameFair, Trunc: trunc}, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(workload.Ring(4, 14), Options{Strategy: strat, MaxEvents: 200000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, truncated := run(0), run(0.9)
	if plain.Outcome != OutcomeAllTerminated {
		t.Fatalf("unfaulted run did not terminate: %v", plain.Outcome)
	}
	// Termination is NOT guaranteed under truncation (that degradation is
	// what E15 charts); what must hold is that the fault never speeds the
	// run up and never corrupts the physical configuration.
	if truncated.Events < plain.Events {
		t.Fatalf("truncation sped the run up: %d events vs %d unfaulted", truncated.Events, plain.Events)
	}
	if err := truncated.Final.Validate(); err != nil {
		t.Fatalf("final configuration invalid under truncation: %v", err)
	}
}

// TestLegacyAdversaryOptionStillWorks pins the default scheduler: Options
// with no Strategy run the fair round-robin strategy.
func TestLegacyAdversaryOptionStillWorks(t *testing.T) {
	res, err := Run(workload.TangentRing(2), Options{MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary != "fair" {
		t.Fatalf("default adversary %q, want fair", res.Adversary)
	}
	if res.Outcome != OutcomeAllTerminated {
		t.Fatalf("tangent pair under fair did not terminate: %v", res.Outcome)
	}
}
