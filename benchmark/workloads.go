package main

import (
	"fmt"
	"strings"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/experiments"
	"github.com/fatgather/fatgather/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"sweep-small-n", "compute-large-n", "resume-store"}

// grid is one cell grid: the cross product of placement kinds, robot counts,
// adversaries and seeds, all run with the same event budget.
type grid struct {
	kinds     []workload.Kind
	ns        []int
	advs      []string
	seeds     int
	maxEvents int
}

// plan describes a workload: the cells its run phase simulates, on how many
// engine workers, whether the run phase checkpoints every cell into a sweep
// store, and how many seeds the key grid of its store phase has.
type plan struct {
	grid       grid
	workers    int
	checkpoint bool
	storeSeeds int
}

// plans returns the workload definitions; tiny shrinks each one to a few
// short cells for the self-test.
func plans(tiny bool) map[string]plan {
	fair, async := adversary.NameFair, adversary.NameRandomAsync
	if tiny {
		small := []workload.Kind{workload.KindRandom, workload.KindClustered}
		return map[string]plan{
			"sweep-small-n":   {grid{small, []int{4, 5}, []string{fair, adversary.NameRoundRobinLag}, 1, 3000}, 2, true, 1},
			"compute-large-n": {grid{[]workload.Kind{workload.KindRing}, []int{16}, []string{fair, async}, 1, 200}, 1, false, 3},
			"resume-store":    {grid{small, []int{5}, []string{fair}, 1, 3000}, 2, false, 4},
		}
	}
	return map[string]plan{
		"sweep-small-n": {
			grid{workload.Kinds(), []int{4, 5, 6, 8},
				[]string{fair, async, adversary.NameGreedyStall, adversary.NameRoundRobinLag},
				5, experiments.DefaultMaxEvents},
			2, true, 6,
		},
		"compute-large-n": {
			grid{[]workload.Kind{workload.KindRandom, workload.KindRing, workload.KindNestedHulls},
				[]int{16, 24}, []string{fair, async}, 2, 1200},
			1, false, 64,
		},
		// The run phase of resume-store only makes the records of its store
		// phase. Its cap keeps the few cells that would run on to
		// DefaultMaxEvents from leaving one worker alone at the end of the
		// phase, which made events_per_s swing by a third from seed to seed.
		"resume-store": {
			grid{workload.Kinds(), []int{5, 6}, []string{fair, async}, 10, 10000},
			2, false, 40,
		},
	}
}

// workloadSpec is a built workload: its generated cells and store keys.
type workloadSpec struct {
	name       string
	workers    int
	checkpoint bool
	cells      []engine.Cell
	keys       []string
	// storeCells name the records of the store phase: record i carries the
	// run-phase result of cell i % len(cells) under storeCells[i]'s key.
	storeCells []engine.Cell
	storeKeys  []string
}

// buildWorkload generates the named workload's cells from seed. The program
// under test only ever sees these generated cells.
func buildWorkload(name string, seed int64, tiny bool) (*workloadSpec, error) {
	p, ok := plans(tiny)[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	b := engine.Batch{
		Workloads:   p.grid.kinds,
		Ns:          p.grid.ns,
		Adversaries: p.grid.advs,
		Seeds:       p.grid.seeds,
		SeedStart:   seedStart(seed, name, "run"),
		MaxEvents:   p.grid.maxEvents,
	}
	w := &workloadSpec{name: name, workers: p.workers, checkpoint: p.checkpoint}
	w.cells = b.Cells()
	b.Seeds, b.SeedStart = p.storeSeeds, seedStart(seed, name, "store")
	w.storeCells = b.Cells()
	if err := engine.ValidateCells(append(append([]engine.Cell(nil), w.cells...), w.storeCells...)); err != nil {
		return nil, err
	}
	w.keys = cellKeys(w.cells)
	w.storeKeys = cellKeys(w.storeCells)
	return w, nil
}

// seedStart derives the first workload seed of a grid from the run seed, so
// every input of every workload follows from the one --seed argument.
func seedStart(seed int64, labels ...string) int64 {
	return 1 + engine.DeriveSeed(seed, engine.StreamOf(labels...))%1_000_000_000
}

func cellKeys(cells []engine.Cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}
