package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/obs"
)

// Telemetry (internal/obs): write-only lease-layer counters, one-way
// contract — arbitration never consults them. The live /progress view is fed
// through the obs.Sweep* write helpers at the claim/run sites below.
var (
	obsLeaseClaims   = obs.NewCounter("fatgather_sweep_lease_claims_total")
	obsLeaseRenewals = obs.NewCounter("fatgather_sweep_lease_renewals_total")
	obsLeaseReclaims = obs.NewCounter("fatgather_sweep_lease_reclaims_total")
	obsGroupSteals   = obs.NewCounter("fatgather_sweep_group_steals_total")
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

// Shard configures one worker of a multi-process sharded sweep. Two modes
// compose:
//
//   - Cooperative (lease-based): Owner names this worker uniquely, and cell
//     groups are claimed at run time through lease files in the shared sweep
//     directory — whichever worker gets to a group first runs it, dead
//     workers' leases expire and are reclaimed. Requires a Store (without
//     one, Run ignores Owner).
//   - Static: Shards/Index partition the cell groups up front by a stable
//     hash; this worker only ever runs groups with hash%Shards == Index.
//     Works without a shared store (each worker renders its own share).
//
// When both are set, the worker claims leases only inside its static share
// and waits for peers to fill in the rest. The zero value is a solo run.
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
	// Shards and Index configure static sharding: when Shards > 1, this
	// worker only runs cell groups whose stable hash maps to Index
	// (0 <= Index < Shards). Zero or one means no static partition.
	Shards int
	// Index is this worker's static shard index.
	Index int
	// Steal enables lease-aware work stealing in cooperative mode with a
	// static partition: once this worker's own share has no claimable group
	// left, it claims unclaimed or expired tail groups outside its share
	// instead of idling until peers finish. Fresh foreign leases are still
	// respected (the lease layer keeps arbitrating), so stolen groups run
	// exactly once fleet-wide and results stay byte-identical — stealing
	// changes who does the work, never what comes out. Requires Owner; a
	// no-op without a static partition (every group is already this
	// worker's).
	Steal bool
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
// these settings under one set of names (ShardOwner, LeaseTTL, Shards,
// ShardIndex, Steal), and the messages use them.
func (sh Shard) Validate() error {
	if sh.Shards < 0 {
		return fmt.Errorf("sweep: Shards must be non-negative, got %d", sh.Shards)
	}
	if sh.Shards > 1 && (sh.Index < 0 || sh.Index >= sh.Shards) {
		return fmt.Errorf("sweep: ShardIndex must be in [0, %d), got %d", sh.Shards, sh.Index)
	}
	if sh.Index != 0 && sh.Shards <= 1 {
		return fmt.Errorf("sweep: ShardIndex %d requires Shards > 1, got %d", sh.Index, sh.Shards)
	}
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
	if sh.Steal && sh.Owner == "" {
		return fmt.Errorf("sweep: Steal requires ShardOwner (stealing is arbitrated through leases)")
	}
	return nil
}

// mine reports whether a cell group falls in this worker's static share.
func (sh Shard) mine(groupKey string) bool {
	if sh.Shards <= 1 {
		return true
	}
	return int(shardHash(groupKey)%uint64(sh.Shards)) == sh.Index
}

// shardHash maps a group key to a stable 64-bit hash, used both for static
// shard assignment and for lease file names. FNV-1a: stable across runs,
// builds and hosts, which is what makes the static partition deterministic.
func shardHash(groupKey string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(groupKey))
	return h.Sum64()
}

// leaseRecord is the JSON body of a lease file.
type leaseRecord struct {
	// Owner is the worker id that holds the lease.
	Owner string `json:"owner"`
	// Group is the cell-group key the lease covers (informational: the file
	// name already binds the lease to the group's hash).
	Group string `json:"group"`
	// Expires is the lease expiry as Unix nanoseconds; a lease whose expiry
	// is in the past is stale and may be reclaimed by any worker.
	Expires int64 `json:"expires_unix_ns"`
}

// leaseManager claims, renews and releases lease files for one worker.
type leaseManager struct {
	dir   string // <sweep dir>/leases
	owner string
	ttl   time.Duration
	now   func() time.Time
}

// pathFor returns the lease file path for a cell group.
func (m *leaseManager) pathFor(groupKey string) string {
	return filepath.Join(m.dir, fmt.Sprintf("lease-%016x.json", shardHash(groupKey)))
}

// lease is one held lease.
type lease struct {
	m     *leaseManager
	path  string
	group string
}

// claim tries to take the lease for a cell group. It returns (nil, false)
// when another worker holds a fresh lease; otherwise the claimed lease and
// whether it was reclaimed from a stale/corrupt predecessor. A fresh claim
// is an atomic link into place, so exactly one contending worker wins; a
// stale lease is reclaimed by atomically renaming its inode aside (again,
// one winner), re-verifying that what was grabbed really is the stale lease
// — a plain remove+recreate could delete a lease that a faster reclaimer
// had already replaced — and only then claiming. Losing any of these races
// is reported as "not claimed".
func (m *leaseManager) claim(groupKey string) (*lease, bool, error) {
	if err := CheckLeaseTTL(m.ttl); err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("sweep: create lease dir: %w", err)
	}
	l := &lease{m: m, path: m.pathFor(groupKey), group: groupKey}
	err := l.create()
	if err == nil {
		return l, false, nil
	}
	if !errors.Is(err, os.ErrExist) {
		return nil, false, err
	}
	rec, rerr := readLease(l.path)
	if rerr == nil && rec.Owner != m.owner && m.fresh(rec) {
		return nil, false, nil // fresh foreign lease
	}
	// Stale, corrupt/torn, clock-skewed, or our own (a restarted worker
	// reclaims itself): take the inode by renaming it to a name private to
	// this owner.
	aside := fmt.Sprintf("%s.reclaim.%016x", l.path, shardHash(m.owner))
	if err := os.Rename(l.path, aside); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Released or reclaimed underneath us; try a fresh claim.
			if cerr := l.create(); cerr == nil {
				return l, false, nil
			} else if errors.Is(cerr, os.ErrExist) {
				return nil, false, nil
			} else {
				return nil, false, cerr
			}
		}
		return nil, false, fmt.Errorf("sweep: reclaim lease: %w", err)
	}
	if got, gerr := readLease(aside); gerr == nil && got.Owner != m.owner && m.fresh(got) {
		// Between our read and the rename, a faster reclaimer replaced the
		// stale lease with a fresh one of its own — we grabbed a live lease.
		// Put it back (atomically; if a third worker claimed the path in the
		// gap, leave their lease and just drop the grabbed one: its owner
		// backs off at the next renew, which at worst duplicates work).
		if lerr := os.Link(aside, l.path); lerr != nil && !errors.Is(lerr, os.ErrExist) {
			os.Remove(aside)
			return nil, false, fmt.Errorf("sweep: reclaim lease: %w", lerr)
		}
		os.Remove(aside)
		return nil, false, nil
	}
	os.Remove(aside)
	if err := l.create(); err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return l, true, nil
}

// fresh reports whether a lease record is live: not yet expired, with an
// expiry no further out than MaxLeaseHorizon. A farther expiry can only come
// from a peer's badly skewed clock or a corrupt record; honoring it would pin
// the group until that far-future instant passes — long after the writer died
// — so such a lease is treated as reclaimable instead.
func (m *leaseManager) fresh(rec leaseRecord) bool {
	now := m.now()
	return now.UnixNano() < rec.Expires && rec.Expires <= now.Add(MaxLeaseHorizon).UnixNano()
}

// create atomically publishes a fresh lease file: the body is written to a
// private temp file and hard-linked into place. Linking is atomic and fails
// with EEXIST when the lease exists, so exactly one contender wins AND a
// visible lease file is always complete — a create-then-write sequence would
// let a peer read the empty file mid-claim, judge it corrupt, and "reclaim"
// a lease that was being taken (observed as duplicated groups in two-process
// runs).
func (l *lease) create() error {
	tmp := fmt.Sprintf("%s.claim.%016x", l.path, shardHash(l.m.owner))
	if err := os.WriteFile(tmp, l.body(), 0o644); err != nil {
		return fmt.Errorf("sweep: write lease: %w", err)
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, l.path); err != nil {
		if errors.Is(err, os.ErrExist) {
			return os.ErrExist
		}
		return fmt.Errorf("sweep: claim lease: %w", err)
	}
	return nil
}

func (l *lease) body() []byte {
	rec := leaseRecord{
		Owner:   l.m.owner,
		Group:   l.group,
		Expires: l.m.now().Add(l.m.ttl).UnixNano(),
	}
	body, _ := json.Marshal(rec)
	return append(body, '\n')
}

// renew extends the lease expiry by atomically replacing the lease file
// (write-to-temp + rename, so readers never see a torn lease). If the file
// meanwhile belongs to another owner — this worker stalled past its TTL and a
// peer reclaimed the group — renew backs off and reports false; the worker
// keeps running, which at worst duplicates the group's cells with
// bit-identical records.
func (l *lease) renew() (bool, error) {
	if err := CheckLeaseTTL(l.m.ttl); err != nil {
		return false, err
	}
	if rec, err := readLease(l.path); err == nil && rec.Owner != l.m.owner {
		return false, nil
	}
	tmp := fmt.Sprintf("%s.renew.%016x", l.path, shardHash(l.m.owner))
	if err := os.WriteFile(tmp, l.body(), 0o644); err != nil {
		return false, fmt.Errorf("sweep: renew lease: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return false, fmt.Errorf("sweep: renew lease: %w", err)
	}
	return true, nil
}

// release removes the lease file (only if still ours).
func (l *lease) release() {
	if rec, err := readLease(l.path); err == nil && rec.Owner != l.m.owner {
		return
	}
	_ = os.Remove(l.path)
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

// claimer arbitrates cell-group claims for one worker through the store's
// coordination backend — lease files for FSBackend, gatherd's lease table for
// the network backend. It is the transport-independent face the claim loop
// uses, and the one place the worker-side lease telemetry counts.
type claimer struct {
	b     Backend
	owner string
	ttl   time.Duration
}

func newClaimer(b Backend, sh Shard) *claimer {
	return &claimer{b: b, owner: sh.Owner, ttl: sh.TTL}
}

// claim tries to take the lease on a cell group. It returns (nil, false)
// when another worker holds a fresh lease; otherwise the claimed lease and
// whether it was reclaimed from a stale/corrupt/abandoned predecessor.
func (c *claimer) claim(group string) (*claimed, bool, error) {
	status, err := c.b.TryClaim(group, c.owner, c.ttl)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case LeaseWon:
		obsLeaseClaims.Inc()
		return &claimed{c: c, group: group}, false, nil
	case LeaseReclaimed:
		obsLeaseClaims.Inc()
		obsLeaseReclaims.Inc()
		return &claimed{c: c, group: group}, true, nil
	default:
		return nil, false, nil
	}
}

// claimed is one lease held through a claimer.
type claimed struct {
	c     *claimer
	group string
}

// renew extends the lease, backing off (false) when a peer meanwhile
// reclaimed the group.
func (l *claimed) renew() (bool, error) {
	ok, err := l.c.b.RenewLease(l.group, l.c.owner, l.c.ttl)
	if err == nil && ok {
		obsLeaseRenewals.Inc()
	}
	return ok, err
}

// release drops the lease (only if still ours).
func (l *claimed) release() {
	_ = l.c.b.ReleaseLease(l.group, l.c.owner)
}
