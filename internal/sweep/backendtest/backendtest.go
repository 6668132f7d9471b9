// Package backendtest is the conformance suite for sweep.Backend
// implementations: one exported harness (Run) that pins the coordination
// semantics the sharded runners rely on — append-then-reload round trips,
// claim/renew/expire/reclaim/release ordering, and byte-identical two-worker
// tables, fixed-grid and adaptive — so that the filesystem backend, the
// gatherd network backend, and any future transport (object-store CAS) all
// prove the same contract with the same tests.
//
// A backend under test is described by a Factory: called once per subtest, it
// returns a connector that opens one more worker's view onto the same fresh
// coordination medium (the same sweep directory, the same coordinator store).
// Two connector calls therefore model two cooperating workers.
package backendtest

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/workload"
)

// Factory prepares one fresh, isolated coordination medium per call and
// returns a connector for it. Each connector call opens a NEW backend view
// over that SAME medium; Run closes every view it opens.
type Factory func(t *testing.T) func() sweep.Backend

// Run exercises a backend implementation against the full conformance suite.
func Run(t *testing.T, factory Factory) {
	t.Run("RecordRoundTrip", func(t *testing.T) { testRecordRoundTrip(t, factory(t)) })
	t.Run("RecordReloadTail", func(t *testing.T) { testRecordReloadTail(t, factory(t)) })
	t.Run("LeaseOrdering", func(t *testing.T) { testLeaseOrdering(t, factory(t)) })
	t.Run("LeaseExpiry", func(t *testing.T) { testLeaseExpiry(t, factory(t)) })
	t.Run("LeaseReclaimContention", func(t *testing.T) { testLeaseReclaimContention(t, factory(t)) })
	t.Run("LeaseTTLValidation", func(t *testing.T) { testLeaseTTLValidation(t, factory(t)) })
	t.Run("TwoWorkerByteIdentical", func(t *testing.T) { testTwoWorkerByteIdentical(t, factory(t)) })
	t.Run("TwoWorkerAdaptiveByteIdentical", func(t *testing.T) { testTwoWorkerAdaptive(t, factory(t)) })
}

// Cells is the suite's small heterogeneous batch — four cell groups (two
// robot counts x two adversaries), seeds replicas each — exported so chaos
// tests outside the package can drive the same workload.
func Cells(seeds int) []engine.Cell {
	return engine.Batch{
		Workloads:   []workload.Kind{workload.KindClustered},
		Ns:          []int{3, 4},
		Adversaries: []string{"random-async", "stop-happy"},
		Seeds:       seeds,
		MaxEvents:   400,
	}.Cells()
}

// SameResult compares two cell results with the fidelity the resume contract
// promises: errors by message, results through their JSON encoding (which
// round-trips float64 exactly).
func SameResult(t *testing.T, label string, a, b engine.CellResult) {
	t.Helper()
	sameErr := func(what string, x, y error) {
		t.Helper()
		if (x == nil) != (y == nil) {
			t.Fatalf("%s: %s %v vs %v", label, what, x, y)
		}
		if x != nil && x.Error() != y.Error() {
			t.Fatalf("%s: %s %q vs %q", label, what, x, y)
		}
	}
	sameErr("err", a.Err, b.Err)
	sameErr("result err", a.Result.Err, b.Result.Err)
	ra, rb := a.Result, b.Result
	ra.Err, rb.Err = nil, nil
	ja, err := json.Marshal(ra)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	jb, err := json.Marshal(rb)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: results differ:\n%s\nvs\n%s", label, ja, jb)
	}
}

func openStore(t *testing.T, b sweep.Backend) *sweep.Store {
	t.Helper()
	st, err := sweep.OpenBackend(b)
	if err != nil {
		t.Fatalf("OpenBackend(%s): %v", b, err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// testRecordRoundTrip appends a sweep's records through one view and opens a
// second view cold: the restored set must be complete and identical.
func testRecordRoundTrip(t *testing.T, connect func() sweep.Backend) {
	cells := Cells(1)
	results := engine.Run(cells, engine.Options{})

	w := openStore(t, connect())
	for i, r := range results {
		if err := w.Append(cells[i].Key(), r); err != nil {
			t.Fatal(err)
		}
	}

	r := openStore(t, connect())
	if len(r.Warnings()) != 0 {
		t.Fatalf("clean medium produced warnings: %v", r.Warnings())
	}
	if r.Done() != len(cells) {
		t.Fatalf("restored %d cells, want %d", r.Done(), len(cells))
	}
	for i, c := range cells {
		st, ok := r.Lookup(c.Key())
		if !ok {
			t.Fatalf("cell %d missing after round trip", i)
		}
		got := engine.CellResult{Result: st.Result, Err: st.Err}
		want := engine.CellResult{Result: results[i].Result, Err: results[i].Err}
		SameResult(t, fmt.Sprintf("cell %d", i), got, want)
	}
}

// testRecordReloadTail pins the incremental Reload contract: a second view
// that already loaded the log must learn exactly the records appended since,
// through tail reads only.
func testRecordReloadTail(t *testing.T, connect func() sweep.Backend) {
	cells := Cells(1)
	results := engine.Run(cells, engine.Options{})

	w := openStore(t, connect())
	r := openStore(t, connect())
	if r.Done() != 0 {
		t.Fatalf("fresh medium restored %d cells", r.Done())
	}
	half := len(cells) / 2
	for i := 0; i < half; i++ {
		if err := w.Append(cells[i].Key(), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if fresh, err := r.Reload(); err != nil || fresh != half {
		t.Fatalf("first Reload = (%d, %v), want (%d, nil)", fresh, err, half)
	}
	for i := half; i < len(cells); i++ {
		if err := w.Append(cells[i].Key(), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if fresh, err := r.Reload(); err != nil || fresh != len(cells)-half {
		t.Fatalf("second Reload = (%d, %v), want (%d, nil)", fresh, err, len(cells)-half)
	}
	if fresh, err := r.Reload(); err != nil || fresh != 0 {
		t.Fatalf("idle Reload = (%d, %v), want (0, nil)", fresh, err)
	}
}

// testLeaseOrdering pins the claim/renew/release arbitration semantics.
func testLeaseOrdering(t *testing.T, connect func() sweep.Backend) {
	b1, b2 := connect(), connect()
	defer func() { _ = b1.Close() }()
	defer func() { _ = b2.Close() }()
	const g = "group-a"
	ttl := 30 * time.Second

	if st, err := b1.TryClaim(g, "w1", ttl); err != nil || st != sweep.LeaseWon {
		t.Fatalf("first claim = (%v, %v), want LeaseWon", st, err)
	}
	if st, err := b2.TryClaim(g, "w2", ttl); err != nil || st != sweep.LeaseHeld {
		t.Fatalf("contending claim = (%v, %v), want LeaseHeld", st, err)
	}
	// A restarted worker reclaims its own lease.
	if st, err := b1.TryClaim(g, "w1", ttl); err != nil || st != sweep.LeaseReclaimed {
		t.Fatalf("self re-claim = (%v, %v), want LeaseReclaimed", st, err)
	}
	if ok, err := b1.RenewLease(g, "w1", ttl); err != nil || !ok {
		t.Fatalf("own renew = (%v, %v), want (true, nil)", ok, err)
	}
	// A foreign renew backs off without error.
	if ok, err := b2.RenewLease(g, "w2", ttl); err != nil || ok {
		t.Fatalf("foreign renew = (%v, %v), want (false, nil)", ok, err)
	}
	// A foreign release is a no-op.
	if err := b2.ReleaseLease(g, "w2"); err != nil {
		t.Fatalf("foreign release: %v", err)
	}
	if st, err := b2.TryClaim(g, "w2", ttl); err != nil || st != sweep.LeaseHeld {
		t.Fatalf("claim after foreign release = (%v, %v), want LeaseHeld", st, err)
	}
	// The owner's release frees the group for the peer.
	if err := b1.ReleaseLease(g, "w1"); err != nil {
		t.Fatalf("own release: %v", err)
	}
	if st, err := b2.TryClaim(g, "w2", ttl); err != nil || st != sweep.LeaseWon {
		t.Fatalf("claim after release = (%v, %v), want LeaseWon", st, err)
	}
	// A renew of a missing lease recreates it for the caller.
	if err := b2.ReleaseLease(g, "w2"); err != nil {
		t.Fatalf("release: %v", err)
	}
	if ok, err := b2.RenewLease(g, "w2", ttl); err != nil || !ok {
		t.Fatalf("renew of missing lease = (%v, %v), want (true, nil)", ok, err)
	}
	if st, err := b1.TryClaim(g, "w1", ttl); err != nil || st != sweep.LeaseHeld {
		t.Fatalf("claim after recreating renew = (%v, %v), want LeaseHeld", st, err)
	}
}

// testLeaseExpiry pins that an expired lease is reclaimed, not respected.
func testLeaseExpiry(t *testing.T, connect func() sweep.Backend) {
	b1, b2 := connect(), connect()
	defer func() { _ = b1.Close() }()
	defer func() { _ = b2.Close() }()
	const g = "group-exp"
	if st, err := b1.TryClaim(g, "w1", 50*time.Millisecond); err != nil || st != sweep.LeaseWon {
		t.Fatalf("claim = (%v, %v), want LeaseWon", st, err)
	}
	time.Sleep(120 * time.Millisecond)
	if st, err := b2.TryClaim(g, "w2", 30*time.Second); err != nil || st != sweep.LeaseReclaimed {
		t.Fatalf("claim of expired lease = (%v, %v), want LeaseReclaimed", st, err)
	}
}

// testLeaseReclaimContention pins the take-over of an expired lease under
// contention: of several workers racing to reclaim it, exactly one wins
// (LeaseReclaimed) and every other one sees the winner's fresh lease
// (LeaseHeld). Each round races on its own group, planted through the API as
// a 1 ms lease that has expired by the time the race starts.
func testLeaseReclaimContention(t *testing.T, connect func() sweep.Backend) {
	const workers, rounds = 8, 20
	views := make([]sweep.Backend, workers)
	for w := range views {
		views[w] = connect()
		defer func(b sweep.Backend) { _ = b.Close() }(views[w])
	}
	group := func(round int) string { return fmt.Sprintf("group-race-%d", round) }
	for round := 0; round < rounds; round++ {
		if st, err := views[0].TryClaim(group(round), "dead", time.Millisecond); err != nil || st != sweep.LeaseWon {
			t.Fatalf("planting lease %d = (%v, %v), want LeaseWon", round, st, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for round := 0; round < rounds; round++ {
		statuses := make([]sweep.LeaseStatus, workers)
		var wg sync.WaitGroup
		for w := range views {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st, err := views[w].TryClaim(group(round), fmt.Sprintf("w%d", w), time.Minute)
				if err != nil {
					t.Errorf("round %d worker %d: %v", round, w, err)
				}
				statuses[w] = st
			}(w)
		}
		wg.Wait()
		reclaimed := 0
		for w, st := range statuses {
			switch st {
			case sweep.LeaseReclaimed:
				reclaimed++
			case sweep.LeaseHeld:
			default:
				t.Errorf("round %d worker %d: status %v, want LeaseReclaimed or LeaseHeld", round, w, st)
			}
		}
		if reclaimed != 1 {
			t.Fatalf("round %d: %d workers reclaimed the expired lease, want exactly 1", round, reclaimed)
		}
	}
}

// testLeaseTTLValidation pins that degenerate TTLs are rejected at the
// backend boundary on every transport.
func testLeaseTTLValidation(t *testing.T, connect func() sweep.Backend) {
	b := connect()
	defer func() { _ = b.Close() }()
	for _, ttl := range []time.Duration{0, -time.Second, sweep.MaxLeaseHorizon + time.Hour} {
		if _, err := b.TryClaim("group-ttl", "w1", ttl); err == nil {
			t.Fatalf("TryClaim accepted ttl %v", ttl)
		}
		if _, err := b.RenewLease("group-ttl", "w1", ttl); err == nil {
			t.Fatalf("RenewLease accepted ttl %v", ttl)
		}
	}
	// The rejected claims must not have left a lease behind.
	if st, err := b.TryClaim("group-ttl", "w2", time.Minute); err != nil || st != sweep.LeaseWon {
		t.Fatalf("claim after rejected TTLs = (%v, %v), want LeaseWon", st, err)
	}
}

// testTwoWorkerByteIdentical is the determinism acceptance test through the
// backend under test: two workers drain one shared medium concurrently and
// each must return the complete result set, bit-identical to a plain engine
// run, with every cell executed exactly once fleet-wide.
func testTwoWorkerByteIdentical(t *testing.T, connect func() sweep.Backend) {
	cells := Cells(2)
	ref := engine.Run(cells, engine.Options{})

	const workers = 2
	outs := make([][]engine.CellResult, workers)
	stats := make([]sweep.Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := sweep.OpenBackend(connect())
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer st.Close()
			sh := sweep.Shard{Owner: fmt.Sprintf("w%d", w), TTL: 5 * time.Second, Poll: 10 * time.Millisecond}
			outs[w], stats[w] = sweep.Run(cells, sweep.Options{Store: st, Shard: sh})
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	executed := 0
	for w := 0; w < workers; w++ {
		if len(outs[w]) != len(cells) {
			t.Fatalf("worker %d returned %d results, want %d", w, len(outs[w]), len(cells))
		}
		for i := range cells {
			SameResult(t, fmt.Sprintf("worker %d cell %d", w, i), outs[w][i], ref[i])
		}
		executed += stats[w].Executed
	}
	if executed != len(cells) {
		t.Fatalf("fleet executed %d cells, want exactly %d", executed, len(cells))
	}
}

// testTwoWorkerAdaptive runs the cooperative adaptive protocol through the
// backend under test: both workers must walk every group's trajectory from
// the shared record log alone and return tables and per-group seed counts
// byte-identical to a single-process adaptive run.
func testTwoWorkerAdaptive(t *testing.T, connect func() sweep.Backend) {
	cells := Cells(2)
	ad := sweep.Adaptive{TargetCI: 1e-9, MaxSeeds: 3}
	refRes, refStats := sweep.Run(cells, sweep.Options{Adaptive: ad})
	refSeeds := refStats.Groups

	const workers = 2
	outs := make([][]engine.CellResult, workers)
	seeds := make([][]sweep.GroupSeeds, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := sweep.OpenBackend(connect())
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer st.Close()
			sh := sweep.Shard{Owner: fmt.Sprintf("w%d", w), TTL: 5 * time.Second, Poll: 10 * time.Millisecond}
			var stats sweep.Stats
			outs[w], stats = sweep.Run(cells, sweep.Options{Store: st, Adaptive: ad, Shard: sh})
			seeds[w] = stats.Groups
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for w := 0; w < workers; w++ {
		if len(outs[w]) != len(refRes) {
			t.Fatalf("worker %d returned %d results, want %d", w, len(outs[w]), len(refRes))
		}
		for i := range refRes {
			SameResult(t, fmt.Sprintf("worker %d result %d", w, i), outs[w][i], refRes[i])
		}
		if len(seeds[w]) != len(refSeeds) {
			t.Fatalf("worker %d returned %d group seedings, want %d", w, len(seeds[w]), len(refSeeds))
		}
		for i, gs := range refSeeds {
			if seeds[w][i] != gs {
				t.Fatalf("worker %d group %d seeding %+v, want %+v", w, i, seeds[w][i], gs)
			}
		}
	}
}
