package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// LeaseStatus is the outcome of a Backend.TryClaim attempt.
type LeaseStatus int

const (
	// LeaseHeld means another worker holds a fresh lease on the group; the
	// caller backs off and leaves the group to its current owner.
	LeaseHeld LeaseStatus = iota
	// LeaseWon means the claim succeeded on a previously unclaimed group.
	LeaseWon
	// LeaseReclaimed means the claim succeeded by taking over a stale,
	// corrupt or abandoned predecessor lease (a dead worker's group re-runs).
	LeaseReclaimed
)

// MaxLeaseHorizon bounds how far in the future a lease expiry may lie before
// readers treat the lease as corrupt and reclaimable. A lease written by a
// worker with a badly skewed clock would otherwise pin its group until that
// far-future expiry passes — long after the worker died — stalling the whole
// fleet on a single bad wall clock. No legitimate TTL approaches this bound
// (the default is 30s), so CheckLeaseTTL also rejects TTLs beyond it: a
// worker must never publish a lease its peers would judge corrupt.
const MaxLeaseHorizon = 24 * time.Hour

// CheckLeaseTTL validates a lease TTL for claim and renew operations: it must
// be positive (a zero or negative TTL would publish an already-expired lease,
// turning every claim into a reclaim race) and within MaxLeaseHorizon.
// Backend implementations call it so both sides of the wire enforce the same
// contract.
func CheckLeaseTTL(ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("sweep: lease ttl must be positive, got %v", ttl)
	}
	if ttl > MaxLeaseHorizon {
		return fmt.Errorf("sweep: lease ttl %v exceeds the %v lease horizon (peers would treat the lease as clock-skewed and reclaim it)", ttl, MaxLeaseHorizon)
	}
	return nil
}

// Backend is the coordination medium of a sweep: everything the resumable and
// sharded runners need from shared state — the append-only record log and
// the cell-group lease table — behind one transport-agnostic interface.
// FSBackend implements it over a shared filesystem (the original temp-file +
// hard-link protocol); netbackend.Client implements it over the gatherd HTTP
// coordinator. The conformance suite in internal/sweep/backendtest pins the
// semantics every implementation must share, so tables stay byte-identical
// across transports and fleet sizes.
//
// Record methods move opaque JSONL bytes: all parsing, schema gating and
// corruption handling stays in Store, above the transport. Lease methods
// likewise carry opaque group keys; arbitration semantics (one winner per
// group, stale/corrupt reclaim, foreign-owner backoff) are part of this
// contract.
type Backend interface {
	// ReadRecords returns the record-log bytes from offset off to the current
	// end, together with the offset the returned data actually starts at:
	// normally start == off, but a log that shrank underneath the reader (an
	// exclusive compaction, a reset, or a coordinator restart) is served from
	// the beginning with start == 0 so the caller rescans. A missing log
	// reads as empty.
	ReadRecords(off int64) (data []byte, start int64, err error)
	// AppendRecord appends one newline-terminated record line to the log.
	AppendRecord(line []byte) error
	// RewriteRecords atomically replaces the whole record log (compaction and
	// reset). Readers never observe a torn log: they see the old bytes or the
	// new ones.
	RewriteRecords(data []byte) error

	// TryClaim attempts to take the lease on a cell group for owner with the
	// given TTL. Exactly one contending worker wins; a fresh foreign lease
	// reports LeaseHeld, and a stale, corrupt or abandoned lease (including
	// one whose expiry lies beyond MaxLeaseHorizon — a skewed clock) is taken
	// over as LeaseReclaimed. Claiming a group this owner already holds also
	// reports LeaseReclaimed (a restarted worker reclaims itself).
	TryClaim(group, owner string, ttl time.Duration) (LeaseStatus, error)
	// RenewLease extends the owner's lease by ttl. It reports false without
	// error when the lease meanwhile belongs to another owner (the caller
	// stalled past its TTL and a peer reclaimed the group): the worker backs
	// off and keeps running, which at worst duplicates bit-identical records.
	// A missing lease is recreated (a release/renew race heals itself).
	RenewLease(group, owner string, ttl time.Duration) (bool, error)
	// ReleaseLease drops the owner's lease on the group; a lease now owned by
	// someone else is left untouched.
	ReleaseLease(group, owner string) error

	// String describes the backend's location (a file path, a coordinator
	// URL) for warnings and logs.
	String() string
	// Close releases the backend's resources. Append fails afterwards.
	Close() error
}

// FSBackend is the shared-filesystem Backend: the JSONL record file and lease
// files of one sweep directory, published with the temp-file +
// hard-link/rename discipline that gives every operation exactly one winner
// on a POSIX filesystem (including NFS). It is the default backend
// behind Open/OpenShared and the reference implementation the backendtest
// conformance suite measures other transports against.
type FSBackend struct {
	dir  string
	path string // <dir>/results.jsonl
	// now is the lease clock, injectable for tests (the determinism contract
	// keeps wall-clock reads out of result paths; lease arbitration only
	// affects who does work, never what comes out).
	now func() time.Time

	mu sync.Mutex
	f  *os.File // append handle; nil in read-only mode
}

// NewFSBackend creates (if needed) the sweep directory and opens the record
// log for appending.
func NewFSBackend(dir string) (*FSBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create dir: %w", err)
	}
	b := newReadOnlyFSBackend(dir)
	f, err := os.OpenFile(b.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	b.f = f
	return b, nil
}

// newReadOnlyFSBackend wires an FSBackend without an append handle (and
// without creating anything): AppendRecord and RewriteRecords fail, reads
// work. OpenReadOnly uses it so merge sources are never modified.
func newReadOnlyFSBackend(dir string) *FSBackend {
	return &FSBackend{
		dir:  dir,
		path: filepath.Join(dir, resultsFile),
		now:  time.Now,
	}
}

// errReadOnly guards the write paths of a backend opened without a handle.
var errReadOnly = errors.New("sweep: store is read-only")

// String returns the record file path.
func (b *FSBackend) String() string { return b.path }

// ReadRecords reads the record file from off to its current end. A file that
// shrank below off (compacted or reset underneath the reader) is served from
// the start; a missing file reads as empty.
func (b *FSBackend) ReadRecords(off int64) ([]byte, int64, error) {
	f, err := os.Open(b.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	//gatherlint:ignore errclose read-only scan handle; a close error cannot un-persist records
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if off < 0 || fi.Size() < off {
		off = 0 // compacted/reset underneath the reader: rescan
	}
	if fi.Size() == off {
		return nil, off, nil
	}
	data := make([]byte, fi.Size()-off)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, 0, err
	}
	return data, off, nil
}

// AppendRecord appends one record line through the O_APPEND handle: the line
// reaches the operating system before AppendRecord returns, so a killed
// process loses at most the line being written.
func (b *FSBackend) AppendRecord(line []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return errReadOnly
	}
	_, err := b.f.Write(line)
	return err
}

// RewriteRecords atomically replaces the record file.
func (b *FSBackend) RewriteRecords(data []byte) error { return b.rewrite(data) }

// rewrite publishes the replacement file via temp + rename, then reopens the
// append handle: the rename left the old handle pointing at the unlinked
// inode, so appends must move to the new file.
func (b *FSBackend) rewrite(data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return errReadOnly
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, b.path); err != nil {
		return err
	}
	if err := b.f.Close(); err != nil {
		b.f = nil
		return err
	}
	f, err := os.OpenFile(b.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.f = nil
		return err
	}
	b.f = f
	return nil
}

// TryClaim takes the lease when the group's newest generation is absent
// (LeaseWon) or expired, clock-skewed, unreadable or the owner's own
// (LeaseReclaimed); a fresh foreign generation reports LeaseHeld.
func (b *FSBackend) TryClaim(group, owner string, ttl time.Duration) (LeaseStatus, error) {
	gen, won, err := b.advance(group, owner, ttl, func(rec leaseRecord, err error) bool {
		return err != nil || rec.Owner == owner || !fresh(rec, b.now())
	})
	switch {
	case err != nil || !won:
		return LeaseHeld, err
	case gen == 0:
		return LeaseWon, nil
	default:
		return LeaseReclaimed, nil
	}
}

// RenewLease publishes the owner's next lease generation when the newest one
// is absent, unreadable or the owner's own, and backs off (false) when it
// belongs to another owner.
func (b *FSBackend) RenewLease(group, owner string, ttl time.Duration) (bool, error) {
	_, won, err := b.advance(group, owner, ttl, func(rec leaseRecord, err error) bool {
		return err != nil || rec.Owner == owner
	})
	return won, err
}

// ReleaseLease removes the group's lease directory when the newest generation
// is the owner's; a foreign, unreadable or missing lease is left untouched.
// Only the generations listed here are removed, so one a peer publishes
// meanwhile survives and keeps the directory.
func (b *FSBackend) ReleaseLease(group, owner string) error {
	dir := b.leaseDir(group)
	gens, err := generations(dir)
	if err != nil || len(gens) == 0 {
		return err
	}
	if rec, err := readLease(genPath(dir, gens[len(gens)-1])); err != nil || rec.Owner != owner {
		return nil
	}
	for _, gen := range gens {
		_ = os.Remove(genPath(dir, gen))
	}
	_ = os.Remove(dir)
	return nil
}

// Close releases the append handle. Reads keep working.
func (b *FSBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}
