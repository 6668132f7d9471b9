package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/obs"
)

// Telemetry (internal/obs): write-only lease-layer counters, one-way
// contract — arbitration never consults them. The claim loop (runClaims)
// counts them at its Backend call sites, next to the obs.Sweep* write helpers
// that feed the live /progress view.
var (
	obsLeaseClaims   = obs.NewCounter("fatgather_sweep_lease_claims_total")
	obsLeaseRenewals = obs.NewCounter("fatgather_sweep_lease_renewals_total")
	obsLeaseReclaims = obs.NewCounter("fatgather_sweep_lease_reclaims_total")
)

// Default lease-layer timing knobs (see Shard).
const (
	// DefaultLeaseTTL is the lease expiry when Shard.TTL is unset. A worker
	// that misses heartbeats for this long is presumed dead and its cell
	// groups are reclaimed by peers.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultPoll is the store re-scan interval when Shard.Poll is unset.
	DefaultPoll = 200 * time.Millisecond
)

// leasesDir is the subdirectory of a sweep directory that holds lease files.
const leasesDir = "leases"

// Shard makes a run one worker of a cooperative fleet that drains one
// sweep through a shared store: cell groups are claimed at run time through
// leases in the store's backend, whichever worker gets to a group first runs
// it, and dead workers' leases expire and are reclaimed. It needs a Store
// (without one, Run ignores Owner). The zero value is a solo run.
type Shard struct {
	// Owner is this worker's unique id (hostname+pid works well). Non-empty
	// Owner enables cooperative lease-based claiming and makes the run drain
	// the whole sweep: cells completed by peers are merged from the shared
	// store, so every cooperating worker returns the complete result set.
	Owner string
	// TTL is how long a lease outlives its last heartbeat (default
	// DefaultLeaseTTL); the holder renews it every TTL/3. Shorter TTLs
	// reclaim dead workers' groups faster but tolerate less scheduling
	// jitter between heartbeats.
	TTL time.Duration
	// Poll is how often a waiting worker re-reads the shared store and
	// re-tries claims while peers hold the remaining groups (default
	// DefaultPoll).
	Poll time.Duration
}

func (sh Shard) withDefaults() Shard {
	if sh.TTL <= 0 {
		sh.TTL = DefaultLeaseTTL
	}
	if sh.Poll <= 0 {
		sh.Poll = DefaultPoll
	}
	return sh
}

// Validate checks a worker's shard settings up front, so every front end
// rejects the same combinations. RunBatch and experiments.Config expose
// these settings under one set of names (ShardOwner, LeaseTTL), and the
// messages use them.
func (sh Shard) Validate() error {
	if sh.TTL < 0 {
		return fmt.Errorf("sweep: LeaseTTL must be non-negative, got %v", sh.TTL)
	}
	if sh.TTL > 0 {
		if sh.Owner == "" {
			return fmt.Errorf("sweep: LeaseTTL requires ShardOwner (it only configures cooperative sharding)")
		}
		// Past MaxLeaseHorizon every claim would fail, and the fleet would
		// run every group leaseless, duplicating all of the work.
		if err := CheckLeaseTTL(sh.TTL); err != nil {
			return err
		}
	}
	return nil
}

// shardHash maps a group key to a stable 64-bit hash that names the group's
// lease directory. FNV-1a: stable across runs, builds and hosts, so every
// worker of a fleet derives the same name.
func shardHash(groupKey string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(groupKey))
	return h.Sum64()
}

// leaseRecord is the JSON body of a lease generation file.
type leaseRecord struct {
	// Owner is the worker id that holds the lease.
	Owner string `json:"owner"`
	// Group is the cell-group key the lease covers (informational: the
	// directory name already binds the lease to the group's hash).
	Group string `json:"group"`
	// Expires is the lease expiry as Unix nanoseconds; a lease whose expiry
	// is in the past is stale and may be reclaimed by any worker.
	Expires int64 `json:"expires_unix_ns"`
}

// fresh reports whether a lease record is live at now: not yet expired, with
// an expiry no further out than MaxLeaseHorizon. A farther expiry can only
// come from a peer's badly skewed clock or a corrupt record; honoring it would
// pin the group until that far-future instant passes — long after the writer
// died — so such a lease is treated as reclaimable instead.
func fresh(rec leaseRecord, now time.Time) bool {
	return now.UnixNano() < rec.Expires && rec.Expires <= now.Add(MaxLeaseHorizon).UnixNano()
}

// leaseDir returns the directory holding a cell group's lease: the newest of
// the numbered generation files in it (FORMAT.md). Claim and renew publish the
// next generation through advance; nothing is ever renamed over a lease.
func (b *FSBackend) leaseDir(group string) string {
	return filepath.Join(b.dir, leasesDir, fmt.Sprintf("%016x", shardHash(group)))
}

// genPath returns the path of one lease generation.
func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, strconv.FormatUint(gen, 10)+".json")
}

// generations lists the lease generations in dir, oldest first. A missing
// directory holds none; names that are not generations are skipped, and so
// are numbers of 2^63 and above, whose successor could overflow.
func generations(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: list leases: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if num, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			if gen, err := strconv.ParseUint(num, 10, 63); err == nil {
				gens = append(gens, gen)
			}
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// advance is the one lease step behind TryClaim and RenewLease. It reads the
// group's newest generation (gen 0 and os.ErrNotExist when there is none) and
// lets accept judge it. On acceptance it publishes generation gen+1 for owner
// by exclusive create, so of all workers acting on the same newest generation
// exactly one wins. The winner lists the directory once more: an even newer
// generation means it acted on a listing that a faster peer had already
// superseded and cleaned up, so it backs off; otherwise it removes the older
// generations. advance reports the generation it judged and whether it won.
func (b *FSBackend) advance(group, owner string, ttl time.Duration, accept func(rec leaseRecord, err error) bool) (uint64, bool, error) {
	if err := CheckLeaseTTL(ttl); err != nil {
		return 0, false, err
	}
	dir := b.leaseDir(group)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, false, fmt.Errorf("sweep: create lease dir: %w", err)
	}
	gens, err := generations(dir)
	if err != nil {
		return 0, false, err
	}
	gen, rec, rerr := uint64(0), leaseRecord{}, error(os.ErrNotExist)
	if len(gens) > 0 {
		gen = gens[len(gens)-1]
		rec, rerr = readLease(genPath(dir, gen))
	}
	if !accept(rec, rerr) {
		return gen, false, nil
	}
	next := genPath(dir, gen+1)
	won, err := b.create(next, leaseRecord{Owner: owner, Group: group, Expires: b.now().Add(ttl).UnixNano()})
	if !won || err != nil {
		return gen, false, err
	}
	if gens, err = generations(dir); err != nil {
		return gen, false, err
	}
	if len(gens) == 0 || gens[len(gens)-1] != gen+1 {
		_ = os.Remove(next)
		return gen, false, nil
	}
	for _, old := range gens[:len(gens)-1] {
		_ = os.Remove(genPath(dir, old))
	}
	return gen, true, nil
}

// create publishes a complete lease record at path by exclusive create: the
// body is written to a private temp file and hard-linked into place. Linking
// is atomic and fails when path exists, so exactly one contender creates a
// generation AND a visible generation is always complete — a
// create-then-write sequence would let a peer read the empty file mid-claim,
// judge it corrupt, and reclaim a lease that was being taken. create reports
// false when path exists or its directory is gone (a concurrent release).
func (b *FSBackend) create(path string, rec leaseRecord) (bool, error) {
	body, _ := json.Marshal(rec)
	f, err := os.CreateTemp(filepath.Join(b.dir, leasesDir), "tmp-*")
	if err != nil {
		return false, fmt.Errorf("sweep: write lease: %w", err)
	}
	defer os.Remove(f.Name())
	_, err = f.Write(append(body, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("sweep: write lease: %w", err)
	}
	err = os.Link(f.Name(), path)
	if errors.Is(err, os.ErrExist) || errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("sweep: publish lease: %w", err)
	}
	return true, nil
}

// heartbeatLoop runs renew every interval until it reports false (the lease
// was lost to a peer — stop renewing and let arbitration stand) or the
// returned stop function is called. Renewal errors are ignored: the lease
// then simply expires and the group becomes reclaimable.
func heartbeatLoop(every time.Duration, renew func() (bool, error)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if ok, _ := renew(); !ok {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func readLease(path string) (leaseRecord, error) {
	var rec leaseRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, err
	}
	if rec.Owner == "" {
		return rec, errors.New("sweep: lease without owner")
	}
	return rec, nil
}
