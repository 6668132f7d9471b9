package fatgather

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/sweep/netbackend"
)

func TestRunBatchShapeAndDeterminism(t *testing.T) {
	opts := BatchOptions{
		Workloads: []Workload{WorkloadClustered, WorkloadRing},
		Ns:        []int{3, 4},
		Seeds:     2,
		MaxEvents: 2500,
		Workers:   3,
	}
	got, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(got.Cells) != want {
		t.Fatalf("expected %d cells, got %d", want, len(got.Cells))
	}
	if want := 2 * 2; len(got.Groups) != want {
		t.Fatalf("expected %d groups, got %d", want, len(got.Groups))
	}
	for _, c := range got.Cells {
		if c.Err != nil {
			t.Fatalf("cell %+v failed: %v", c.Cell, c.Err)
		}
		if c.Cell.Algorithm != AlgorithmPaper || c.Cell.Adversary != AdversaryRandomAsync {
			t.Fatalf("defaults not applied: %+v", c.Cell)
		}
		if c.Result.Events <= 0 {
			t.Fatalf("cell %+v ran no events", c.Cell)
		}
	}
	for _, g := range got.Groups {
		if g.Runs != 2 || g.Errors != 0 {
			t.Fatalf("group %+v has wrong run count", g)
		}
	}

	// The same batch with a different worker count is bit-identical.
	opts.Workers = 1
	sequential, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sequential) {
		t.Fatal("RunBatch results depend on worker count")
	}
}

// TestRunBatchCellReplaysWithRun pins the replay contract: a single batch
// cell, re-run through the public Run API with the cell's two seeds, must
// reproduce the batch result exactly.
func TestRunBatchCellReplaysWithRun(t *testing.T) {
	opts := BatchOptions{
		Workloads: []Workload{WorkloadClustered},
		Ns:        []int{4},
		Seeds:     3,
		MaxEvents: 2500,
	}
	batch, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range batch.Cells {
		replayed, err := Run(Options{
			N:             c.Cell.N,
			Workload:      c.Cell.Workload,
			Seed:          c.Cell.Seed,
			AdversarySeed: c.Cell.AdversarySeed,
			Adversary:     c.Cell.Adversary,
			Algorithm:     c.Cell.Algorithm,
			MaxEvents:     opts.MaxEvents,
		})
		if err != nil {
			t.Fatalf("replay %+v: %v", c.Cell, err)
		}
		if !reflect.DeepEqual(replayed, c.Result) {
			t.Fatalf("replay of cell %+v differs from batch result", c.Cell)
		}
	}
}

func TestRunBatchRejectsBadOptions(t *testing.T) {
	if _, err := RunBatch(BatchOptions{Adversaries: []AdversaryName{"nope"}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad adversary: got %v", err)
	}
	if _, err := RunBatch(BatchOptions{Algorithms: []AlgorithmName{"nope"}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad algorithm: got %v", err)
	}
	if _, err := RunBatch(BatchOptions{Ns: []int{0}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad n: got %v", err)
	}
	// A negative seed range could reach workload seed 0, which Run cannot
	// replay exactly; it must be rejected up front.
	if _, err := RunBatch(BatchOptions{SeedStart: -1, Seeds: 2}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative SeedStart: got %v", err)
	}
	if _, err := RunBatch(BatchOptions{SweepDir: "x", Coordinator: "http://localhost:9340"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("SweepDir+Coordinator: got %v", err)
	}
	if _, err := RunBatch(BatchOptions{Coordinator: "localhost:9340"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("malformed Coordinator URL: got %v", err)
	}
}

// TestRunBatchCoordinator runs a sharded batch through an in-process gatherd
// coordinator — no sweep directory — and checks it matches an in-memory run.
func TestRunBatchCoordinator(t *testing.T) {
	opts := BatchOptions{Ns: []int{3}, Seeds: 2, MaxEvents: 600}
	want, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := netbackend.NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Close()
	}()

	opts.Coordinator = ts.URL
	opts.ShardOwner = "w1"
	got, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("coordinator batch ran %d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i].Cell != want.Cells[i].Cell || !reflect.DeepEqual(got.Cells[i].Result, want.Cells[i].Result) {
			t.Fatalf("cell %d differs via coordinator:\n%+v\nvs\n%+v", i, got.Cells[i], want.Cells[i])
		}
	}
	if got.Executed == 0 {
		t.Fatal("coordinator batch executed no cells")
	}
	// A second, resuming batch restores everything from the coordinator.
	again, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Restored != len(want.Cells) {
		t.Fatalf("resumed coordinator batch executed %d / restored %d, want 0 / %d",
			again.Executed, again.Restored, len(want.Cells))
	}
}

// TestRunBatchValidatesExpandedCells pins the up-front batch validation:
// invalid per-cell knobs are rejected before any worker runs, with an error
// that names the offending cell.
func TestRunBatchValidatesExpandedCells(t *testing.T) {
	_, err := RunBatch(BatchOptions{Ns: []int{3}, Seeds: 1, MaxEvents: -5})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative MaxEvents: got %v", err)
	}
	if !strings.Contains(err.Error(), "cell 0 [") || !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("error does not name the offending cell: %v", err)
	}
	if _, err := RunBatch(BatchOptions{Ns: []int{3}, Seeds: 1, Delta: -0.1, MaxEvents: 100}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative Delta: got %v", err)
	}
}

// TestRunBatchResume pins the public resumable-sweep contract: a second
// RunBatch with Resume on a completed store executes zero cells and returns
// the identical BatchResult.
func TestRunBatchResume(t *testing.T) {
	dir := t.TempDir()
	opts := BatchOptions{
		Workloads: []Workload{WorkloadClustered},
		Ns:        []int{3, 4},
		Seeds:     2,
		MaxEvents: 1500,
		SweepDir:  dir,
	}
	first, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != len(first.Cells) || first.Restored != 0 {
		t.Fatalf("fresh batch executed %d restored %d", first.Executed, first.Restored)
	}

	opts.Resume = true
	second, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Restored != len(first.Cells) {
		t.Fatalf("resumed batch executed %d restored %d, want 0/%d",
			second.Executed, second.Restored, len(first.Cells))
	}
	if !reflect.DeepEqual(first.Cells, second.Cells) || !reflect.DeepEqual(first.Groups, second.Groups) {
		t.Fatal("resumed batch differs from the fresh run")
	}
}

// TestRunBatchAdaptive pins the adaptive seed scheduling surface: a tight
// target with a small cap grows every group to the cap and reports the
// consumption in SeedsUsed.
func TestRunBatchAdaptive(t *testing.T) {
	got, err := RunBatch(BatchOptions{
		Workloads:        []Workload{WorkloadClustered},
		Ns:               []int{3},
		Seeds:            2,
		MaxEvents:        1200,
		AdaptiveCI:       1e-9,
		AdaptiveMaxSeeds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 1 {
		t.Fatalf("expected 1 group, got %d", len(got.Groups))
	}
	g := got.Groups[0]
	if g.SeedsUsed != 4 || g.Runs != 4 {
		t.Fatalf("adaptive group consumed %d seeds over %d runs, want 4/4", g.SeedsUsed, g.Runs)
	}
	if g.CIHalfWidth <= 0 {
		t.Fatalf("CIHalfWidth not reported: %v", g.CIHalfWidth)
	}
	if len(got.Cells) != 4 {
		t.Fatalf("adaptive replicas missing: %d cells", len(got.Cells))
	}
	// A loose target keeps the grid at its initial size.
	got, err = RunBatch(BatchOptions{
		Workloads:  []Workload{WorkloadClustered},
		Ns:         []int{3},
		Seeds:      2,
		MaxEvents:  1200,
		AdaptiveCI: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 2 || got.Groups[0].SeedsUsed != 2 {
		t.Fatalf("loose adaptive target changed the grid: %d cells, %d seeds",
			len(got.Cells), got.Groups[0].SeedsUsed)
	}
}

// TestRunBatchAdaptiveSharded pins the public cross-worker adaptive
// contract: two RunBatch workers given AdaptiveCI and ShardOwner over one
// SweepDir coordinate the data-dependent seed grid through the shared store,
// and each returns exactly what a single adaptive process produces — same
// cells, same groups, same per-group SeedsUsed — while the fleet executes
// every adaptive replica exactly once.
func TestRunBatchAdaptiveSharded(t *testing.T) {
	opts := BatchOptions{
		Workloads:        []Workload{WorkloadClustered, WorkloadRing},
		Ns:               []int{3, 4},
		Seeds:            2,
		MaxEvents:        1200,
		AdaptiveCI:       1e-9,
		AdaptiveMaxSeeds: 3,
	}
	want, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const workers = 2
	results := make([]BatchResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := opts
			sh.SweepDir = dir
			sh.ShardOwner = fmt.Sprintf("worker-%d", w)
			sh.LeaseTTL = 5 * time.Second
			results[w], errs[w] = RunBatch(sh)
		}(w)
	}
	wg.Wait()

	executed := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w].Cells, want.Cells) || !reflect.DeepEqual(results[w].Groups, want.Groups) {
			t.Fatalf("worker %d adaptive result differs from the single-process batch", w)
		}
		executed += results[w].Executed
	}
	if executed != len(want.Cells) {
		t.Fatalf("fleet executed %d adaptive replicas, want exactly %d (no duplicated seeds)", executed, len(want.Cells))
	}
}

func TestRunBatchRejectsUnknownWorkload(t *testing.T) {
	_, err := RunBatch(BatchOptions{
		Workloads: []Workload{"no-such-workload"},
		Ns:        []int{3},
		Seeds:     1,
		MaxEvents: 100,
	})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad workload: got %v", err)
	}
}

// TestRunBatchShardedConcurrentWorkers pins the public sharding contract:
// two RunBatch workers cooperating over one SweepDir via leases both return
// the complete batch, identical to an unsharded run, and together execute
// every cell exactly once.
func TestRunBatchShardedConcurrentWorkers(t *testing.T) {
	opts := BatchOptions{
		Workloads: []Workload{WorkloadClustered, WorkloadRing},
		Ns:        []int{3, 4},
		Seeds:     2,
		MaxEvents: 1500,
	}
	want, err := RunBatch(opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const workers = 2
	results := make([]BatchResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := opts
			sh.SweepDir = dir
			sh.ShardOwner = fmt.Sprintf("worker-%d", w)
			sh.LeaseTTL = 5 * time.Second
			results[w], errs[w] = RunBatch(sh)
		}(w)
	}
	wg.Wait()

	executed, claimed := 0, 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w].Cells, want.Cells) || !reflect.DeepEqual(results[w].Groups, want.Groups) {
			t.Fatalf("worker %d result differs from the unsharded batch", w)
		}
		executed += results[w].Executed
		claimed += results[w].Claimed
		if results[w].Claimed+results[w].Skipped != 4 { // 2 workloads x 2 ns cell groups
			t.Fatalf("worker %d claimed %d + skipped %d groups, want 4 total",
				w, results[w].Claimed, results[w].Skipped)
		}
	}
	if executed != len(want.Cells) {
		t.Fatalf("fleet executed %d cells, want exactly %d", executed, len(want.Cells))
	}
	if claimed != 4 {
		t.Fatalf("fleet claimed %d groups, want exactly 4", claimed)
	}
}

// TestRunBatchRejectsLeaseTTLBeyondHorizon pins the shard validator at the
// batch entry point. A LeaseTTL past sweep.MaxLeaseHorizon makes every claim
// fail, so a worker would run every group leaseless and a fleet would
// duplicate all of its work; it must be rejected up front. LeaseTTL without
// ShardOwner configures nothing and is rejected too.
func TestRunBatchRejectsLeaseTTLBeyondHorizon(t *testing.T) {
	base := BatchOptions{Ns: []int{3}, Seeds: 1, MaxEvents: 200}
	opts := base
	opts.ShardOwner, opts.SweepDir, opts.LeaseTTL = "w1", t.TempDir(), 25*time.Hour
	if _, err := RunBatch(opts); !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "lease horizon") {
		t.Fatalf("LeaseTTL 25h: got %v, want ErrBadOptions naming the lease horizon", err)
	}
	opts = base
	opts.LeaseTTL = time.Minute
	if _, err := RunBatch(opts); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("LeaseTTL without ShardOwner: got %v, want ErrBadOptions", err)
	}
}

// TestRunBatchShardedRejectsBadOptions covers the sharding option validation.
func TestRunBatchShardedRejectsBadOptions(t *testing.T) {
	if _, err := RunBatch(BatchOptions{ShardOwner: "w"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ShardOwner without SweepDir: got %v", err)
	}
	if _, err := RunBatch(BatchOptions{ShardOwner: "w", SweepDir: t.TempDir(), LeaseTTL: -time.Second}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative LeaseTTL: got %v", err)
	}
}
