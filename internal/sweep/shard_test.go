package sweep

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
)

// fastShard is a Shard tuned for tests: long enough TTL that healthy workers
// never lose a lease, short enough poll that waiting is cheap.
func fastShard(owner string) Shard {
	return Shard{Owner: owner, TTL: 5 * time.Second, Poll: 10 * time.Millisecond}
}

// writeStaleLease plants an expired lease for a cell group, as a worker
// killed mid-group would leave behind.
func writeStaleLease(t *testing.T, dir string, cell engine.Cell, owner string) {
	t.Helper()
	b := newReadOnlyFSBackend(dir)
	b.now = func() time.Time { return time.Now().Add(-2 * time.Minute) }
	st, err := b.TryClaim(GroupKey(cell), owner, time.Minute)
	if err != nil || st == LeaseHeld {
		t.Fatalf("planting stale lease: (%v, %v)", st, err)
	}
	if st == LeaseReclaimed {
		t.Fatal("planting stale lease reclaimed an existing one")
	}
}

// writeNewestLease writes blob as a cell group's newest lease generation, as
// a torn, foreign or skewed writer would leave it.
func writeNewestLease(t *testing.T, b *FSBackend, group string, blob []byte) {
	t.Helper()
	dir := b.leaseDir(group)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(genPath(dir, 1), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// newestLease reads a cell group's newest lease generation.
func newestLease(b *FSBackend, group string) (leaseRecord, error) {
	dir := b.leaseDir(group)
	gens, err := generations(dir)
	if err != nil {
		return leaseRecord{}, err
	}
	if len(gens) == 0 {
		return leaseRecord{}, os.ErrNotExist
	}
	return readLease(genPath(dir, gens[len(gens)-1]))
}

// TestRunShardedReclaimsStaleLease simulates a worker killed mid-sweep: the
// store holds a prefix of the records and an expired lease guards one of the
// unfinished groups. A fresh worker must take the lease over, finish the
// sweep, and return results identical to an uninterrupted run.
func TestRunShardedReclaimsStaleLease(t *testing.T) {
	cells := smallCells(1)
	ref := engine.Run(cells, engine.Options{})

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The dead worker completed the first third of the cells...
	k := len(cells) / 3
	for i := 0; i < k; i++ {
		if err := st.Append(cells[i].Key(), ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// ...and died holding the lease on the last cell's group.
	writeStaleLease(t, dir, cells[len(cells)-1], "dead-worker")

	re, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, stats := Run(cells, Options{Store: re, Shard: fastShard("survivor")})
	if stats.LeasesReclaimed != 1 {
		t.Fatalf("LeasesReclaimed = %d, want 1", stats.LeasesReclaimed)
	}
	if stats.Executed != len(cells)-k {
		t.Fatalf("Executed = %d, want %d (the dead worker's unfinished cells)", stats.Executed, len(cells)-k)
	}
	if stats.Restored != k {
		t.Fatalf("Restored = %d, want %d", stats.Restored, k)
	}
	for i := range cells {
		sameResult(t, fmt.Sprintf("cell %d", i), res[i], ref[i])
	}
}

// TestLeaseContention pins the exclusive create: many workers racing for
// the same cell group yield exactly one holder.
func TestLeaseContention(t *testing.T) {
	dir := t.TempDir()
	const workers = 8
	var won int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := newReadOnlyFSBackend(dir)
			st, err := b.TryClaim("contested-group", fmt.Sprintf("w%d", w), time.Minute)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if st == LeaseReclaimed {
				t.Errorf("worker %d reclaimed a lease that was never stale", w)
			}
			if st != LeaseHeld {
				mu.Lock()
				won++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if won != 1 {
		t.Fatalf("%d workers won the contested lease, want exactly 1", won)
	}
}

// TestLeaseHeartbeatKeepsLeaseFresh exercises renewal under -race: while the
// heartbeat runs, a foreign worker cannot claim the group even long after the
// original TTL; once the heartbeat stops, the lease goes stale and is
// reclaimed.
func TestLeaseHeartbeatKeepsLeaseFresh(t *testing.T) {
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond
	holder := newReadOnlyFSBackend(dir)
	if st, err := holder.TryClaim("hb-group", "holder", ttl); err != nil || st == LeaseHeld {
		t.Fatalf("claim failed: (%v, %v)", st, err)
	}
	stop := heartbeatLoop(ttl/6, func() (bool, error) { return holder.RenewLease("hb-group", "holder", ttl) })

	rival := newReadOnlyFSBackend(dir)
	deadline := time.Now().Add(4 * ttl) // far beyond the unrenewed expiry
	for time.Now().Before(deadline) {
		st, err := rival.TryClaim("hb-group", "rival", ttl)
		if err != nil {
			t.Fatal(err)
		}
		if st != LeaseHeld {
			t.Fatalf("rival claimed a heartbeating lease (status %v)", st)
		}
		time.Sleep(ttl / 10)
	}
	stop()

	// Without renewals the lease expires and the rival takes it over.
	time.Sleep(ttl + ttl/2)
	st, err := rival.TryClaim("hb-group", "rival", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if st != LeaseReclaimed {
		t.Fatalf("rival did not reclaim the expired lease (status %v)", st)
	}
}

// TestLeaseCorruptFileIsReclaimed treats a torn lease file (a worker killed
// mid-write) as stale.
func TestLeaseCorruptFileIsReclaimed(t *testing.T) {
	b := newReadOnlyFSBackend(t.TempDir())
	writeNewestLease(t, b, "g", []byte(`{"owner":"dead","exp`))
	st, err := b.TryClaim("g", "w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st != LeaseReclaimed {
		t.Fatalf("corrupt lease not reclaimed (status %v)", st)
	}
}

// TestRunShardedStaticWithStoreMerges pins the migration path for a store
// that a static shard of earlier versions wrote: it holds the records of
// exactly the groups whose hash fell into the shard's share, and nothing
// else. A lease worker joining it restores those cells, runs only the rest,
// and returns the full result set.
func TestRunShardedStaticWithStoreMerges(t *testing.T) {
	cells := smallCells(1)
	ref := engine.Run(cells, engine.Options{})
	dir := t.TempDir()

	st0, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i, c := range cells {
		if shardHash(GroupKey(c))%2 == 0 { // shard 0 of a two-way split
			if err := st0.Append(c.Key(), ref[i]); err != nil {
				t.Fatal(err)
			}
			stored++
		}
	}
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}
	if stored == 0 || stored == len(cells) {
		t.Fatalf("shard 0 holds %d of %d cells, want a strict non-empty subset", stored, len(cells))
	}

	st1, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	res, stats := Run(cells, Options{Store: st1, Shard: fastShard("b")})
	if stats.Executed != len(cells)-stored || stats.Restored != stored {
		t.Fatalf("Executed = %d, Restored = %d, want %d and %d", stats.Executed, stats.Restored, len(cells)-stored, stored)
	}
	for i := range cells {
		sameResult(t, fmt.Sprintf("cell %d", i), res[i], ref[i])
	}
}

// TestLeaseReclaimContention pins the atomic take-over: many workers racing
// to reclaim the same stale lease yield exactly one new holder — every racer
// publishes the same next generation by exclusive create, so one wins.
func TestLeaseReclaimContention(t *testing.T) {
	group := GroupKey(engine.Cell{Workload: "clustered", N: 3})
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		writeStaleLease(t, dir, engine.Cell{Workload: "clustered", N: 3}, "dead")

		const workers = 4
		winners := make([]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				owner := fmt.Sprintf("w%d", w)
				st, err := newReadOnlyFSBackend(dir).TryClaim(group, owner, time.Minute)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if st != LeaseHeld {
					winners[w] = owner
				}
			}(w)
		}
		wg.Wait()
		var won []string
		for _, owner := range winners {
			if owner != "" {
				won = append(won, owner)
			}
		}
		if len(won) != 1 {
			t.Fatalf("round %d: %d workers hold the reclaimed lease, want exactly 1", round, len(won))
		}
		// The lease on disk belongs to the winner.
		rec, err := newestLease(newReadOnlyFSBackend(dir), group)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rec.Owner != won[0] {
			t.Fatalf("round %d: lease on disk owned by %q, winner is %q", round, rec.Owner, won[0])
		}
	}
}
