package sweep

import (
	"os"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestRunKillAndResume is the core resume contract at the result level: a
// sweep killed midway (its store holds a prefix of the records, the last one
// torn mid-write) resumes to results identical to an uninterrupted run while
// executing strictly fewer cells. The table-level byte-identity acceptance
// test lives in internal/experiments.
func TestRunKillAndResume(t *testing.T) {
	cells := smallCells(2)
	reference := engine.Run(cells, engine.Options{})

	// Uninterrupted sweep with a store.
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, stats := Run(cells, Options{Store: st})
	if stats.Executed != len(cells) || stats.Restored != 0 {
		t.Fatalf("fresh run stats %+v", stats)
	}
	st.Close()
	for i := range cells {
		sameResult(t, "fresh vs engine", full[i], reference[i])
	}

	// Kill the sweep midway: keep the first half of the records and tear the
	// next one in the middle of its line, as a SIGKILL during a write would.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	keep := len(cells) / 2
	partial := strings.Join(lines[:keep], "") + lines[keep][:len(lines[keep])/2]
	if err := os.WriteFile(st.Path(), []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: only the missing cells run, and the merged results are
	// identical to the uninterrupted run.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	resumed, stats := Run(cells, Options{Store: re})
	if stats.Restored != keep {
		t.Fatalf("resumed run restored %d cells, want %d", stats.Restored, keep)
	}
	if stats.Executed >= len(cells) {
		t.Fatalf("resumed run executed %d cells, want strictly fewer than %d", stats.Executed, len(cells))
	}
	if stats.Executed+stats.Restored != len(cells) {
		t.Fatalf("stats don't cover the batch: %+v", stats)
	}
	for i := range cells {
		if resumed[i].Index != i {
			t.Fatalf("resumed result %d has index %d", i, resumed[i].Index)
		}
		sameResult(t, cells[i].Key(), resumed[i], reference[i])
	}
	// Everything is checkpointed again after the resume.
	if re.Done() != len(cells) {
		t.Fatalf("store holds %d cells after resume, want %d", re.Done(), len(cells))
	}
}

func TestRunWithoutStoreMatchesEngine(t *testing.T) {
	cells := smallCells(1)
	want := engine.Run(cells, engine.Options{})
	got, stats := Run(cells, Options{})
	if stats.Executed != len(cells) || stats.Restored != 0 {
		t.Fatalf("stats %+v", stats)
	}
	for i := range cells {
		sameResult(t, cells[i].Key(), got[i], want[i])
	}
}

// TestRunWorkloadCacheHits proves that Run, given no workload hook, memoizes
// generation and so deduplicates it across the adversary axis (same kind, n,
// seed in every group) without changing results.
func TestRunWorkloadCacheHits(t *testing.T) {
	cells := engine.Batch{
		Workloads:   []workload.Kind{workload.KindClustered},
		Ns:          []int{4},
		Adversaries: []string{"random-async", "stop-happy", "fair"},
		Seeds:       2,
		MaxEvents:   300,
	}.Cells()
	want := engine.Run(cells, engine.Options{})

	// The cache's process-wide counters; no test in this package runs in
	// parallel, so the deltas are this Run's.
	hitCount := obs.NewCounter("fatgather_workload_cache_hits_total")
	missCount := obs.NewCounter("fatgather_workload_cache_misses_total")
	hits0, misses0 := hitCount.Value(), missCount.Value()
	got, _ := Run(cells, Options{})
	for i := range cells {
		sameResult(t, cells[i].Key(), got[i], want[i])
	}
	hits, misses := hitCount.Value()-hits0, missCount.Value()-misses0
	if misses != 2 { // 2 distinct (kind, n, seed) triples
		t.Fatalf("cache generated %d placements, want 2", misses)
	}
	if hits != int64(len(cells))-2 {
		t.Fatalf("cache hits = %d, want %d", hits, len(cells)-2)
	}
}

func TestRunCheckpointsInvalidCells(t *testing.T) {
	cells := []engine.Cell{
		{Workload: workload.KindClustered, N: 3, WorkloadSeed: 1, MaxEvents: 300},
		{Workload: "bogus", N: 3, MaxEvents: 300},
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Run(cells, Options{Store: st})
	if res[1].Err == nil {
		t.Fatal("invalid cell should error")
	}
	st.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	resumed, stats := Run(cells, Options{Store: re})
	if stats.Executed != 0 || stats.Restored != 2 {
		t.Fatalf("resume stats %+v, want everything restored", stats)
	}
	if resumed[1].Err == nil || !strings.Contains(resumed[1].Err.Error(), "bogus") {
		t.Fatalf("restored error lost its message: %v", resumed[1].Err)
	}
}
