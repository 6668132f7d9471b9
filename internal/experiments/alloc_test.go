package experiments

import (
	"testing"

	"github.com/fatgather/fatgather/internal/race"
)

// e5CellAllocPerEventBudget is the pinned per-event allocation budget for one
// E5 sweep cell run end to end through engine.Cell.Run — workload generation,
// adversary construction, the full event loop and result assembly. The event
// loop itself is nearly allocation-free: the incremental geometry cache
// (internal/geom/incr) took visibility, hull and connectivity recomputation
// off the per-event path, and core.Decide computes in a pooled workspace, so
// each Compute allocates only the view copy and the decision trace. Measured
// 2.5 allocs/event on the n=8 grid cell (11.4 before the pooled workspace,
// several hundred before the cache); the budget leaves slack for Go-version
// variance while still failing on any structural regression.
const e5CellAllocPerEventBudget = 4

// TestE5CellAllocBudget pins the allocation cost of the E5 inner loop: the
// benchmark trajectory's headline figure (allocs/op of the sequential E5
// engine run) is this number times the event count, so a regression here is
// exactly a regression of the committed BENCH_<rev>.json snapshot.
func TestE5CellAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes core.Decide's sync.Pool drop workspaces at random")
	}
	cfg := Config{Seeds: 1, MaxEvents: 4000}
	cells := e5Cells(cfg, []int{8})
	if len(cells) == 0 {
		t.Fatal("no E5 cells generated")
	}
	c := cells[0]
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 100 {
		t.Fatalf("cell ran only %d events; not a meaningful alloc sample", res.Events)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(res.Events)
	if perEvent > e5CellAllocPerEventBudget {
		t.Fatalf("E5 cell allocates %.1f allocs/event (%v allocs over %d events), budget %d",
			perEvent, allocs, res.Events, e5CellAllocPerEventBudget)
	}
}
