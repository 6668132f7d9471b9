package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// adaptiveShardCells: six cell groups with two initial replicas each — enough
// groups that a two-worker fleet genuinely splits the work.
func adaptiveShardCells() []engine.Cell {
	return engine.Batch{
		Workloads: []workload.Kind{workload.KindClustered, workload.KindRing},
		Ns:        []int{3, 4, 5},
		Seeds:     2,
		MaxEvents: 300,
	}.Cells()
}

// tightAdaptive is an adaptive config that forces every group to grow beyond
// its initial replicas (an unreachable target with a small cap), so the
// cross-worker trajectory really exercises the extra-replica protocol.
func tightAdaptive() Adaptive {
	return Adaptive{TargetCI: 1e-12, MaxSeeds: 4}
}

// sweepMode is one input the sharded scenarios below run under: a cell grid
// and its Adaptive setting. The scenarios hold for every mode, so each takes
// the mode as an input instead of being written once per runner.
type sweepMode struct {
	cells func() []engine.Cell
	ad    Adaptive
}

var (
	fixedMode    = sweepMode{cells: func() []engine.Cell { return smallCells(1) }}
	adaptiveMode = sweepMode{cells: adaptiveShardCells, ad: tightAdaptive()}
)

// reference is the solo, storeless run every sharded run must reproduce.
func (m sweepMode) reference() ([]engine.CellResult, []GroupSeeds) {
	res, stats := Run(m.cells(), Options{Adaptive: m.ad})
	return res, stats.Groups
}

func sameAdaptiveRun(t *testing.T, label string, gotRes, wantRes []engine.CellResult, gotInfos, wantInfos []GroupSeeds) {
	t.Helper()
	if len(gotRes) != len(wantRes) {
		t.Fatalf("%s: %d results, want %d", label, len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if gotRes[i].Index != i {
			t.Fatalf("%s: result %d has index %d", label, i, gotRes[i].Index)
		}
		if gotRes[i].Cell.Key() != wantRes[i].Cell.Key() {
			t.Fatalf("%s: result %d is cell %s, want %s (trajectory order diverged)",
				label, i, gotRes[i].Cell.Key(), wantRes[i].Cell.Key())
		}
		sameResult(t, fmt.Sprintf("%s result %d", label, i), gotRes[i], wantRes[i])
	}
	if !reflect.DeepEqual(gotInfos, wantInfos) {
		t.Fatalf("%s: group seed schedules diverged:\n%+v\nvs\n%+v", label, gotInfos, wantInfos)
	}
}

// TestRunShardedTwoConcurrentWorkers is the acceptance test for cooperative
// sharding on a fixed grid; see twoConcurrentWorkers.
func TestRunShardedTwoConcurrentWorkers(t *testing.T) {
	twoConcurrentWorkers(t, sweepMode{cells: func() []engine.Cell { return smallCells(2) }})
}

// TestRunAdaptiveShardedTwoConcurrentWorkers is the same acceptance test for
// the cross-worker adaptive protocol.
func TestRunAdaptiveShardedTwoConcurrentWorkers(t *testing.T) {
	twoConcurrentWorkers(t, adaptiveMode)
}

// twoConcurrentWorkers: two workers drain one sweep directory concurrently
// through leases and the shared store, and each returns the complete result
// set — same cells, same per-group seed counts, bit-identical results, in
// the exact order the solo run produces — while no replica is executed
// twice fleet-wide. The sweep directory ends holding the record log and an
// empty lease directory, nothing else.
func twoConcurrentWorkers(t *testing.T, m sweepMode) {
	cells := m.cells()
	wantRes, wantInfos := m.reference()

	dir := t.TempDir()
	const workers = 2
	outs := make([][]engine.CellResult, workers)
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := OpenShared(dir)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer st.Close()
			outs[w], stats[w] = Run(cells, Options{Store: st, Adaptive: m.ad, Shard: fastShard(fmt.Sprintf("w%d", w))})
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	executed := 0
	for w := 0; w < workers; w++ {
		sameAdaptiveRun(t, fmt.Sprintf("worker %d", w), outs[w], wantRes, stats[w].Groups, wantInfos)
		executed += stats[w].Executed
	}
	// The leases make the split exact: the fleet executed each replica
	// exactly once, and the store holds each record exactly once.
	if executed != len(wantRes) {
		t.Fatalf("fleet executed %d replicas, want exactly %d", executed, len(wantRes))
	}
	data, err := os.ReadFile(filepath.Join(dir, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != len(wantRes) {
		t.Fatalf("store holds %d records, want %d", got, len(wantRes))
	}
	top, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range top {
		names = append(names, e.Name())
	}
	if want := []string{leasesDir, resultsFile}; !reflect.DeepEqual(names, want) {
		t.Fatalf("sweep directory holds %v, want %v", names, want)
	}
	// All leases released.
	entries, err := os.ReadDir(filepath.Join(dir, leasesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d lease files left behind", len(entries))
	}
}

// TestRunAdaptiveShardedKillMidAdaptive simulates a worker killed in the
// middle of an adaptive sweep: the store holds a prefix of the trajectory, an
// expired lease guards an unfinished group, and the directory still holds
// an open state record of the kind older versions published in adaptive/.
// A surviving worker must reclaim the lease, re-evaluate the CI against the
// merged history, finish the remaining seed blocks and produce results
// identical to an uninterrupted single-process adaptive run, leaving the
// legacy record unread and untouched.
func TestRunAdaptiveShardedKillMidAdaptive(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := runAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The dead worker checkpointed roughly the first half of the trajectory
	// (a prefix in canonical order: whole rounds land before later rounds).
	k := len(wantRes) / 2
	for i := 0; i < k; i++ {
		if err := st.Append(wantRes[i].Cell.Key(), wantRes[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// ...died holding the lease on the last cell's group, with an open
	// (non-closed) legacy state record for it.
	victim := cells[len(cells)-1]
	writeStaleLease(t, dir, victim, "dead-worker")
	legacy := filepath.Join(dir, "adaptive", fmt.Sprintf("state-%016x.json", shardHash(GroupKey(victim))))
	legacyBody := fmt.Sprintf(`{"version":1,"engine":%q,"group":%q,"seeds":2,"closed":false,"owner":"dead-worker","updated_unix_ns":1,"half_width":"12345"}`+"\n",
		engine.Version, GroupKey(victim))
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(legacyBody), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, infos, stats := runAdaptive(cells, Options{Store: re, Shard: fastShard("survivor")}, ad)
	if stats.LeasesReclaimed != 1 {
		t.Fatalf("LeasesReclaimed = %d, want 1", stats.LeasesReclaimed)
	}
	if stats.Executed != len(wantRes)-k {
		t.Fatalf("Executed = %d, want %d (the dead worker's unfinished replicas)", stats.Executed, len(wantRes)-k)
	}
	if stats.Restored != k {
		t.Fatalf("Restored = %d, want %d", stats.Restored, k)
	}
	sameAdaptiveRun(t, "survivor", res, wantRes, infos, wantInfos)
	if got, err := os.ReadFile(legacy); err != nil || string(got) != legacyBody {
		t.Fatalf("legacy state record changed: %q (%v)", got, err)
	}
}

// TestRunAdaptiveShardedResumesStoreWithoutStateRecords is the claim loop's
// resume test: a sweep directory written by a solo adaptive run (records
// only, no leases) must resume cleanly under the claim loop — the full
// trajectory is recomputed from the result records alone, nothing re-runs,
// and the output is identical.
func TestRunAdaptiveShardedResumesStoreWithoutStateRecords(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantInfos, _ := runAdaptive(cells, Options{Store: st}, ad)
	st.Close()

	re, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, infos, stats := runAdaptive(cells, Options{Store: re, Shard: fastShard("late-joiner")}, ad)
	if stats.Executed != 0 {
		t.Fatalf("resuming an old adaptive store executed %d replicas, want 0", stats.Executed)
	}
	if stats.Restored != len(wantRes) {
		t.Fatalf("Restored = %d, want %d", stats.Restored, len(wantRes))
	}
	sameAdaptiveRun(t, "late joiner", res, wantRes, infos, wantInfos)
}

// TestRunAdaptiveShardedSoloMatchesRunAdaptive pins the degenerate fleet: one
// cooperative worker alone walks the identical trajectory (and leaves a
// store a solo adaptive run can resume from, and vice versa).
func TestRunAdaptiveShardedSoloMatchesRunAdaptive(t *testing.T) {
	cells := adaptiveShardCells()
	ad := Adaptive{TargetCI: 50, MaxSeeds: 6}
	wantRes, wantInfos, _ := runAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, infos, stats := runAdaptive(cells, Options{Store: st, Shard: fastShard("solo")}, ad)
	st.Close()
	sameAdaptiveRun(t, "solo", res, wantRes, infos, wantInfos)
	if stats.Executed != len(wantRes) {
		t.Fatalf("solo worker executed %d, want %d", stats.Executed, len(wantRes))
	}

	// The solo round loop resumes from the cooperative store untouched.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res2, infos2, stats2 := runAdaptive(cells, Options{Store: re}, ad)
	if stats2.Executed != 0 {
		t.Fatalf("solo adaptive resume executed %d replicas over a sharded store, want 0", stats2.Executed)
	}
	sameAdaptiveRun(t, "plain resume", res2, wantRes, infos2, wantInfos)
}

// TestRunAdaptiveShardedSurvivesAppendFailures pins the broken-disk
// degradation: when every checkpoint append fails (here: a closed store, so
// Lookup works but Append errors), the worker must still drive every group's
// trajectory to closure from its in-memory results — append failures mean
// re-runs on a later resume, never a stalled sweep — and report the failures
// in AppendErrs.
func TestRunAdaptiveShardedSurvivesAppendFailures(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := runAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // Lookup keeps working; every Append now fails

	res, infos, stats := runAdaptive(cells, Options{Store: st, Shard: fastShard("w")}, ad)
	if stats.AppendErrs != len(wantRes) {
		t.Fatalf("AppendErrs = %d, want %d (no replica could be checkpointed)", stats.AppendErrs, len(wantRes))
	}
	if stats.Executed != len(wantRes) {
		t.Fatalf("Executed = %d, want %d", stats.Executed, len(wantRes))
	}
	sameAdaptiveRun(t, "broken disk", res, wantRes, infos, wantInfos)
}

// TestRunShardedWaitsForFreshForeignLease pins the skip-then-merge path on
// a fixed grid; see waitsForFreshForeignLease.
func TestRunShardedWaitsForFreshForeignLease(t *testing.T) {
	waitsForFreshForeignLease(t, fixedMode)
}

// TestRunAdaptiveShardedWaitsForFreshForeignLease pins lease respect on the
// adaptive grid.
func TestRunAdaptiveShardedWaitsForFreshForeignLease(t *testing.T) {
	waitsForFreshForeignLease(t, adaptiveMode)
}

// waitsForFreshForeignLease: a group freshly leased by a live peer is not
// re-run; the worker polls, merges the peer's records once they land, and
// still returns the full trajectory.
func waitsForFreshForeignLease(t *testing.T, m sweepMode) {
	cells := m.cells()
	wantRes, wantInfos := m.reference()

	dir := t.TempDir()
	peerGroup := GroupKey(cells[0])
	peer := newReadOnlyFSBackend(dir)
	if st, err := peer.TryClaim(peerGroup, "peer", time.Minute); err != nil || st == LeaseHeld {
		t.Fatalf("peer claim failed: (%v, %v)", st, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond)
		st, err := OpenShared(dir)
		if err != nil {
			t.Errorf("peer: %v", err)
			return
		}
		defer st.Close()
		for _, r := range wantRes {
			if GroupKey(r.Cell) != peerGroup {
				continue
			}
			if err := st.Append(r.Cell.Key(), r); err != nil {
				t.Errorf("peer append: %v", err)
			}
		}
		if err := peer.ReleaseLease(peerGroup, "peer"); err != nil {
			t.Errorf("peer release: %v", err)
		}
	}()

	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, stats := Run(cells, Options{Store: st, Adaptive: m.ad, Shard: fastShard("waiter")})
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	peerReplicas := 0
	for _, r := range wantRes {
		if GroupKey(r.Cell) == peerGroup {
			peerReplicas++
		}
	}
	if stats.Restored != peerReplicas {
		t.Fatalf("Restored = %d, want %d (the peer's group)", stats.Restored, peerReplicas)
	}
	if stats.Executed != len(wantRes)-peerReplicas {
		t.Fatalf("Executed = %d, want %d (the peer ran its group)", stats.Executed, len(wantRes)-peerReplicas)
	}
	if stats.GroupsSkipped < 1 {
		t.Fatalf("GroupsSkipped = %d, want >= 1", stats.GroupsSkipped)
	}
	sameAdaptiveRun(t, "waiter", res, wantRes, stats.Groups, wantInfos)
}
