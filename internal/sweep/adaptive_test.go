package sweep

import (
	"math"
	"reflect"
	"testing"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// runAdaptive is Run with adaptive seed scheduling, the per-group seed
// report split out beside the results.
func runAdaptive(cells []engine.Cell, opts Options, ad Adaptive) ([]engine.CellResult, []GroupSeeds, Stats) {
	opts.Adaptive = ad
	res, stats := Run(cells, opts)
	return res, stats.Groups, stats
}

// adaptiveCells: two groups (n=3 and n=4), two initial seed replicas each.
func adaptiveCells() []engine.Cell {
	return engine.Batch{
		Workloads: []workload.Kind{workload.KindClustered},
		Ns:        []int{3, 4},
		Seeds:     2,
		MaxEvents: 300,
	}.Cells()
}

func TestRunAdaptiveAlreadyConverged(t *testing.T) {
	cells := adaptiveCells()
	// An enormous target: the initial replicas are already tight enough.
	res, infos, stats := runAdaptive(cells, Options{}, Adaptive{TargetCI: math.MaxFloat64})
	if len(res) != len(cells) {
		t.Fatalf("converged run added cells: %d results for %d cells", len(res), len(cells))
	}
	if stats.Executed != len(cells) {
		t.Fatalf("stats %+v", stats)
	}
	if len(infos) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(infos))
	}
	for _, g := range infos {
		if g.Seeds != 2 || !g.Converged {
			t.Fatalf("group %q: seeds %d converged %v, want 2/true", g.Key, g.Seeds, g.Converged)
		}
	}
}

func TestRunAdaptiveGrowsToCap(t *testing.T) {
	cells := adaptiveCells()
	// An impossible target: every group must grow to the seed cap.
	res, infos, _ := runAdaptive(cells, Options{}, Adaptive{TargetCI: 1e-12, MaxSeeds: 4})
	if len(res) != 8 { // 2 groups x 4 seeds
		t.Fatalf("expected 8 results, got %d", len(res))
	}
	for _, g := range infos {
		if g.Seeds != 4 {
			t.Fatalf("group %q consumed %d seeds, want cap 4", g.Key, g.Seeds)
		}
		if g.Converged {
			t.Fatalf("group %q cannot converge to 1e-12", g.Key)
		}
		if math.IsInf(g.HalfWidth, 1) {
			t.Fatalf("group %q half-width not computed", g.Key)
		}
	}
	// Replica seeds continue the initial range and stay decorrelated.
	seen := map[string]bool{}
	for i, r := range res {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		key := r.Cell.Key()
		if seen[key] {
			t.Fatalf("duplicate replica key %s", key)
		}
		seen[key] = true
	}
}

func TestRunAdaptiveDeterministicAndResumable(t *testing.T) {
	cells := adaptiveCells()
	ad := Adaptive{TargetCI: 50, MaxSeeds: 6}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, infos1, stats1 := runAdaptive(cells, Options{Store: st}, ad)
	st.Close()

	// Same schedule without a store: adaptive growth is deterministic.
	res2, infos2, _ := runAdaptive(cells, Options{}, ad)
	if !reflect.DeepEqual(infos1, infos2) {
		t.Fatalf("adaptive schedules diverged:\n%+v\nvs\n%+v", infos1, infos2)
	}
	if len(res1) != len(res2) {
		t.Fatalf("%d vs %d results", len(res1), len(res2))
	}
	for i := range res1 {
		sameResult(t, res1[i].Cell.Key(), res1[i], res2[i])
	}

	// Resume: the whole adaptive schedule is served from the store.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res3, infos3, stats3 := runAdaptive(cells, Options{Store: re}, ad)
	if stats3.Executed != 0 {
		t.Fatalf("resumed adaptive run executed %d cells, want 0 (fresh executed %d)", stats3.Executed, stats1.Executed)
	}
	if stats3.Restored != len(res1) {
		t.Fatalf("resumed adaptive run restored %d of %d", stats3.Restored, len(res1))
	}
	if !reflect.DeepEqual(infos1, infos3) {
		t.Fatalf("resumed schedule diverged:\n%+v\nvs\n%+v", infos1, infos3)
	}
	for i := range res1 {
		sameResult(t, res1[i].Cell.Key(), res1[i], res3[i])
	}
}

func TestRunAdaptiveGivesUpOnDeadGroups(t *testing.T) {
	cells := []engine.Cell{{Workload: "bogus", N: 3, MaxEvents: 100}}
	res, infos, _ := runAdaptive(cells, Options{}, Adaptive{TargetCI: 1, MaxSeeds: 16})
	if len(res) > 2 {
		t.Fatalf("dead group kept growing: %d results", len(res))
	}
	if len(infos) != 1 || infos[0].Converged {
		t.Fatalf("dead group infos %+v", infos)
	}
}
