package sweep

import (
	"math"
	"os"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// nearestNeighbour is a test-only sim.Algorithm whose robots always target
// the center of their nearest visible neighbour. Once the discs touch, every
// grant is 0, so every run deadlocks by construction, whatever package core
// decides (see internal/sim/livelock_test.go).
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

// livelockCell is a round-robin-lag cell of nearestNeighbour robots that
// certifies a livelock well inside its budget.
func livelockCell(seed int64) engine.Cell {
	cell := engine.Cell{
		Workload:     workload.KindNestedHulls,
		N:            6,
		WorkloadSeed: seed,
		Algorithm:    nearestNeighbour{},
		Adversary:    adversary.NameRoundRobinLag,
		MaxEvents:    30000,
	}
	cell.AdversarySeed = seed
	return cell
}

// TestStoreRoundTripsLivelockTrace pins that the bounded livelock snippet
// survives the checkpoint: a restored livelocked cell renders the same
// record — snippet included — as the fresh run.
func TestStoreRoundTripsLivelockTrace(t *testing.T) {
	cells := []engine.Cell{livelockCell(1)}
	results := engine.Run(cells, engine.Options{})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Result.Outcome.String() != "livelocked" {
		t.Fatalf("outcome = %v, test needs a livelocked cell", results[0].Result.Outcome)
	}
	if results[0].Result.LivelockTrace == nil {
		t.Fatal("livelocked run carries no trace snippet")
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(cells[0].Key(), results[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	stored, ok := re.Lookup(cells[0].Key())
	if !ok {
		t.Fatal("livelocked cell not restored")
	}
	restored := stored.Result.LivelockTrace
	if restored == nil {
		t.Fatal("restored result lost its livelock trace")
	}
	if restored.Len() != results[0].Result.LivelockTrace.Len() {
		t.Fatalf("restored snippet has %d frames, want %d",
			restored.Len(), results[0].Result.LivelockTrace.Len())
	}
	sameResult(t, "livelocked cell", results[0],
		engine.CellResult{Result: stored.Result, Err: stored.Err})
}

// TestV2StoreDiscardedCleanly pins the migration contract of the schema bump
// to v3: a store written under schema 2 is discarded wholesale on open and
// the sweep re-runs cleanly, never mixing pre-certification records (which
// burned the budget on livelocks) with current ones.
func TestV2StoreDiscardedCleanly(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:1], engine.Options{})
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(cells[0].Key(), results[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"schema":3`, `"schema":2`, 1)
	if mutated == string(data) {
		t.Fatal("test setup: schema field not found in store file")
	}
	if err := os.WriteFile(st.Path(), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Done() != 0 {
		t.Fatalf("Done = %d after v2 records, want 0 (clean re-run)", re.Done())
	}
	warns := re.Warnings()
	if len(warns) == 0 || !strings.Contains(warns[0], "mismatch") {
		t.Fatalf("expected mismatch warning, got %v", warns)
	}
}

// TestAdaptiveLivelockedGroupConvergesEarly: certification makes livelocked
// replicas cheap and (for a deterministic strategy) identical in event
// count, so the adaptive scheduler sees a zero-width confidence interval
// and stops the group at the initial replicas instead of growing it toward
// the seed cap — livelocked groups behave like stalled ones.
func TestAdaptiveLivelockedGroupConvergesEarly(t *testing.T) {
	cells := []engine.Cell{livelockCell(1), livelockCell(2)}
	_, infos, _ := runAdaptive(cells, Options{}, Adaptive{TargetCI: 500, MaxSeeds: 8})
	if len(infos) != 1 {
		t.Fatalf("expected 1 group, got %d", len(infos))
	}
	g := infos[0]
	if !g.Converged {
		t.Fatalf("livelocked group did not converge: %+v", g)
	}
	if g.Seeds != 2 {
		t.Fatalf("livelocked group consumed %d seeds, want the 2 initial replicas", g.Seeds)
	}
	if g.HalfWidth > 500 {
		t.Fatalf("half-width %g above target", g.HalfWidth)
	}
}
