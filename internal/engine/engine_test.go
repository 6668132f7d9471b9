package engine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// testCells is a small but heterogeneous batch: two workloads, two sizes,
// two adversaries, two seeds (16 cells).
func testCells() []Cell {
	return Batch{
		Workloads:   []workload.Kind{workload.KindClustered, workload.KindNestedHulls},
		Ns:          []int{4, 6},
		Adversaries: []string{"random-async", "stop-happy"},
		Seeds:       2,
		MaxEvents:   3000,
	}.Cells()
}

// sameCellResults compares everything except the wall-clock field.
func sameCellResults(t *testing.T, label string, a, b []CellResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatalf("%s: result %d has index %d vs %d", label, i, a[i].Index, b[i].Index)
		}
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("%s: cell %d err %v vs %v", label, i, a[i].Err, b[i].Err)
		}
		if !reflect.DeepEqual(a[i].Result, b[i].Result) {
			t.Fatalf("%s: cell %d results differ:\n%+v\nvs\n%+v", label, i, a[i].Result, b[i].Result)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := testCells()
	base := Run(cells, Options{Workers: 1})
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := Run(cells, Options{Workers: workers})
		sameCellResults(t, "workers", base, got)
	}
}

func TestRunMatchesSequentialReference(t *testing.T) {
	cells := testCells()
	par := Run(cells, Options{})
	for i, c := range cells {
		res, err := c.Run()
		if (err == nil) != (par[i].Err == nil) {
			t.Fatalf("cell %d: sequential err %v, engine err %v", i, err, par[i].Err)
		}
		if !reflect.DeepEqual(res, par[i].Result) {
			t.Fatalf("cell %d: engine result differs from sequential reference", i)
		}
	}
}

func TestOnResultStreamsInCellOrder(t *testing.T) {
	cells := testCells()
	var order []int
	Run(cells, Options{Workers: 3, OnResult: func(r CellResult) {
		order = append(order, r.Index)
	}})
	if len(order) != len(cells) {
		t.Fatalf("OnResult called %d times for %d cells", len(order), len(cells))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("OnResult order %v not strictly increasing", order)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	if got := Run(nil, Options{}); len(got) != 0 {
		t.Fatalf("empty batch produced %d results", len(got))
	}
}

func TestBatchCellsExpansion(t *testing.T) {
	cells := testCells()
	if want := 2 * 2 * 2 * 2; len(cells) != want {
		t.Fatalf("expected %d cells, got %d", want, len(cells))
	}
	// Expansion is deterministic, including derived adversary seeds.
	again := testCells()
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("Batch.Cells is not deterministic")
	}
	// Adversary seeds are positive and decorrelated across cells.
	seen := make(map[int64]int)
	for _, c := range cells {
		if c.AdversarySeed <= 0 {
			t.Fatalf("non-positive derived seed %d", c.AdversarySeed)
		}
		seen[c.AdversarySeed]++
	}
	if len(seen) < len(cells)/2 {
		t.Fatalf("derived seeds collide too much: %d distinct of %d", len(seen), len(cells))
	}
}

func TestBatchDefaults(t *testing.T) {
	cells := Batch{MaxEvents: 100}.Cells()
	if len(cells) != 5 { // 1 workload x 1 n x 1 adversary x 5 seeds
		t.Fatalf("default batch expanded to %d cells", len(cells))
	}
	if cells[0].Workload != workload.KindClustered || cells[0].N != 8 {
		t.Fatalf("unexpected default cell %+v", cells[0])
	}
	if cells[0].WorkloadSeed != 1 || cells[4].WorkloadSeed != 5 {
		t.Fatalf("default seed range wrong: %d..%d", cells[0].WorkloadSeed, cells[4].WorkloadSeed)
	}
}

func TestCellRunErrors(t *testing.T) {
	if _, err := (Cell{Workload: "no-such-workload", N: 3, MaxEvents: 10}).Run(); err == nil {
		t.Fatal("unknown workload should error")
	}
	if _, err := (Cell{Workload: workload.KindClustered, N: 3, WorkloadSeed: 1, Adversary: "no-such-adversary", MaxEvents: 10}).Run(); err == nil {
		t.Fatal("unknown adversary should error")
	}
}

func TestCellKey(t *testing.T) {
	base := Cell{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100}
	if base.Key() != base.Key() {
		t.Fatal("Key is not deterministic")
	}
	// Every result-relevant field must move the key.
	variants := []Cell{
		{Workload: workload.KindRing, N: 4, WorkloadSeed: 1, MaxEvents: 100},
		{Workload: workload.KindClustered, N: 5, WorkloadSeed: 1, MaxEvents: 100},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 2, MaxEvents: 100},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 200},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, Adversary: "fair"},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, AdversarySeed: 7},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, Delta: 0.5},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, SnapshotEvery: 10},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, StopWhenGathered: true},
		{Workload: workload.KindClustered, N: 4, WorkloadSeed: 1, MaxEvents: 100, Vision: vision.New(vision.Options{Radius: 2})},
	}
	seen := map[string]bool{base.Key(): true}
	for i, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Fatalf("variant %d collides with a previous key: %s", i, k)
		}
		seen[k] = true
	}
	// Explicit initial configurations are keyed by content, not identity.
	a := Cell{Initial: workload.Ring(4, 0), MaxEvents: 100}
	b := Cell{Initial: workload.Ring(4, 0), MaxEvents: 100}
	c := Cell{Initial: workload.Ring(5, 0), MaxEvents: 100}
	if a.Key() != b.Key() {
		t.Fatal("equal initial configurations must share a key")
	}
	if a.Key() == c.Key() {
		t.Fatal("different initial configurations must not share a key")
	}
}

func TestValidateCells(t *testing.T) {
	good := Cell{Workload: workload.KindClustered, N: 3, WorkloadSeed: 1, MaxEvents: 100}
	if err := ValidateCells([]Cell{good}); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	cases := []struct {
		name string
		cell Cell
		want string
	}{
		{"unknown workload", Cell{Workload: "bogus", N: 3}, "unknown workload"},
		{"zero n", Cell{Workload: workload.KindClustered, N: 0}, "N must be"},
		{"negative max events", Cell{Workload: workload.KindClustered, N: 3, MaxEvents: -1}, "MaxEvents"},
		{"negative delta", Cell{Workload: workload.KindClustered, N: 3, Delta: -0.5}, "Delta"},
		{"unknown adversary", Cell{Workload: workload.KindClustered, N: 3, Adversary: "bogus"}, "unknown adversary"},
		{"empty initial", Cell{Initial: config.Geometric{}}, "empty initial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateCells([]Cell{good, tc.cell})
			if err == nil {
				t.Fatalf("invalid cell accepted: %+v", tc.cell)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the defect %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "cell 1 [") {
				t.Fatalf("error %q does not name the offending cell", err)
			}
		})
	}
}

// TestRunFailsFastOnInvalidCells pins that invalid cells never reach a
// worker: their error names the cell key, and the valid cells of the same
// batch still run and stream in order.
func TestRunFailsFastOnInvalidCells(t *testing.T) {
	cells := []Cell{
		{Workload: workload.KindClustered, N: 3, WorkloadSeed: 1, MaxEvents: 300},
		{Workload: "bogus", N: 3, MaxEvents: 300},
		{Workload: workload.KindClustered, N: 0, WorkloadSeed: 1, MaxEvents: 300},
		{Workload: workload.KindClustered, N: 3, WorkloadSeed: 2, MaxEvents: 300},
	}
	var order []int
	results := Run(cells, Options{Workers: 2, OnResult: func(r CellResult) {
		order = append(order, r.Index)
	}})
	for _, i := range []int{1, 2} {
		if results[i].Err == nil {
			t.Fatalf("invalid cell %d did not error", i)
		}
		if !strings.Contains(results[i].Err.Error(), "invalid cell ["+cells[i].Key()+"]") {
			t.Fatalf("cell %d error %q does not name its key", i, results[i].Err)
		}
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Fatalf("valid cell %d failed: %v", i, results[i].Err)
		}
		if results[i].Result.Events <= 0 {
			t.Fatalf("valid cell %d did not run", i)
		}
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("OnResult order %v with invalid cells", order)
	}
}

func TestAggregateGroups(t *testing.T) {
	cells := testCells()
	col := NewCollector(func(r CellResult) string { return string(r.Cell.Workload) })
	results := Run(cells, Options{OnResult: col.Add})
	groups := col.Groups()
	if len(results) != len(cells) {
		t.Fatalf("%d results for %d cells", len(results), len(cells))
	}
	if len(groups) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(groups))
	}
	// Groups appear in cell order and cover every run.
	if groups[0].Key != string(workload.KindClustered) {
		t.Fatalf("group order not cell order: %q first", groups[0].Key)
	}
	total := 0
	for _, g := range groups {
		total += g.Runs + g.Errors
		if g.Events.Count != g.Runs {
			t.Fatalf("group %q has %d event samples for %d runs", g.Key, g.Events.Count, g.Runs)
		}
		if g.GatheredRate < 0 || g.GatheredRate > 1 {
			t.Fatalf("group %q gathered rate %f", g.Key, g.GatheredRate)
		}
	}
	if total != len(cells) {
		t.Fatalf("groups cover %d cells of %d", total, len(cells))
	}
}

func TestCollectorCountsErrors(t *testing.T) {
	cells := []Cell{
		{Workload: workload.KindClustered, N: 3, WorkloadSeed: 1, MaxEvents: 500},
		{Workload: "bogus", N: 3, MaxEvents: 500},
	}
	col := NewCollector(func(CellResult) string { return "all" })
	Run(cells, Options{OnResult: col.Add})
	groups := col.Groups()
	if len(groups) != 1 || groups[0].Runs != 1 || groups[0].Errors != 1 {
		t.Fatalf("unexpected groups %+v", groups)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for base := int64(-50); base < 50; base++ {
		s := DeriveSeed(base, 7)
		if s <= 0 {
			t.Fatalf("DeriveSeed(%d) = %d, want positive", base, s)
		}
		seen[s] = true
		if s != DeriveSeed(base, 7) {
			t.Fatal("DeriveSeed is not deterministic")
		}
	}
	if len(seen) != 100 {
		t.Fatalf("DeriveSeed collided: %d distinct of 100", len(seen))
	}
	if DeriveSeed(1, 2) == DeriveSeed(1, 3) {
		t.Fatal("stream coordinate ignored")
	}
}

func TestStreamOf(t *testing.T) {
	if StreamOf("a", "b") != StreamOf("a", "b") {
		t.Fatal("StreamOf not deterministic")
	}
	if StreamOf("a", "b") == StreamOf("ab") {
		t.Fatal("StreamOf must separate labels")
	}
	if StreamOf("x") < 0 {
		t.Fatal("StreamOf must be non-negative")
	}
}
