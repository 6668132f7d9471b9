package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// AdaptiveStateVersion is the version of the adaptive-state record layout.
// Records with a different version are ignored (the reader recomputes the
// state from the result store instead), never rewritten by a reader.
const AdaptiveStateVersion = 1

// adaptiveDir is the subdirectory of a sweep directory that holds per-group
// adaptive-state records.
const adaptiveDir = "adaptive"

// adaptiveState is the JSON body of one per-group adaptive-state record: the
// published progress of adaptive seed scheduling on one cell group — seeds
// consumed, the running confidence interval, and whether the group is closed
// — so anything watching a fleet (operators, tests, the CI smoke job) can
// see the sweep's shape without replaying the CI evaluation against the
// whole result store.
//
// The record is a publication of state that is always recomputable from the
// result store (the store is the ground truth; the adaptive schedule is a
// deterministic function of the stored per-seed results), and the workers
// themselves always recompute rather than read records back — which is also
// what makes stores written before adaptive sharding existed (no adaptive/
// directory at all) resume cleanly, and why a missing, torn or
// version-mismatched record is never an error.
type adaptiveState struct {
	// Version is the record layout version (AdaptiveStateVersion).
	Version int `json:"version"`
	// Engine is the engine semantics version that produced the underlying
	// results; a mismatch invalidates the record like it invalidates records
	// in the result store.
	Engine string `json:"engine"`
	// Group is the cell-group key the record covers.
	Group string `json:"group"`
	// Seeds is the number of seed replicas executed so far (the group's
	// final consumption once Closed).
	Seeds int `json:"seeds"`
	// HalfWidth is the 95% CI half-width of the scheduling metric over the
	// group's successful runs after Seeds replicas. Serialized as a string
	// ("+Inf" for fewer than two successes) because JSON has no infinity.
	HalfWidth float64 `json:"-"`
	// Closed reports that the group stopped growing: it either converged to
	// the target or hit the seed cap. Open records are progress reports.
	Closed bool `json:"closed"`
	// Owner is the worker that published the record (informational).
	Owner string `json:"owner,omitempty"`
	// Updated is the publication time in Unix nanoseconds (informational;
	// the protocol never compares it against a clock).
	Updated int64 `json:"updated_unix_ns"`
}

// adaptiveStateJSON is the wire form of adaptiveState: HalfWidth crosses as a
// string so that +Inf (a group with fewer than two successful runs) survives
// the JSON round trip.
type adaptiveStateJSON struct {
	adaptiveState
	HalfWidthStr string `json:"half_width"`
}

func (a adaptiveState) marshal() []byte {
	body, _ := json.Marshal(adaptiveStateJSON{
		adaptiveState: a,
		HalfWidthStr:  fmt.Sprintf("%g", a.HalfWidth),
	})
	return append(body, '\n')
}

// fsStateDir publishes adaptive-state records into one adaptive/ directory.
// Like a lease generation, a record is materialized in a temp file first and
// enters the directory atomically (hard-link for the first
// publication, rename for updates), so a reader never observes a torn record
// — at worst a stale or missing one, both of which degrade to recomputation
// from the result store.
type fsStateDir struct {
	dir string // <sweep dir>/adaptive
}

// pathFor returns the state file path for a cell group (same hash scheme as
// the lease directories, so the two line up for debugging).
func (d fsStateDir) pathFor(groupKey string) string {
	return filepath.Join(d.dir, fmt.Sprintf("state-%016x.json", shardHash(groupKey)))
}

// LoadState reads a group's raw state record; a missing or unreadable file
// reports ok == false, never an error.
func (d fsStateDir) LoadState(group string) ([]byte, bool, error) {
	data, err := os.ReadFile(d.pathFor(group))
	if err != nil {
		return nil, false, nil
	}
	return data, true, nil
}

// publish atomically replaces a group's state record; the owner keys the
// temp file so concurrent publishers never collide before the atomic step.
func (d fsStateDir) publish(group, owner string, body []byte) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return fmt.Errorf("sweep: create adaptive dir: %w", err)
	}
	path := d.pathFor(group)
	tmp := fmt.Sprintf("%s.pub.%016x", path, shardHash(owner))
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return fmt.Errorf("sweep: write adaptive state: %w", err)
	}
	// First publication: link into place so a concurrent first publisher
	// cannot be half-overwritten; afterwards, atomic replace.
	if err := os.Link(tmp, path); err == nil {
		os.Remove(tmp)
		return nil
	} else if !errors.Is(err, os.ErrExist) {
		os.Remove(tmp)
		return fmt.Errorf("sweep: publish adaptive state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: publish adaptive state: %w", err)
	}
	return nil
}

// adaptivePublisher atomically publishes adaptive-state records
// through the backend the sweep coordinates over, the same medium that
// carries its records and leases.
type adaptivePublisher struct {
	sink  Backend
	owner string
}

// publish writes a group's state record atomically, replacing any previous
// record. Publication failures are reported but never fatal: the record is an
// accelerator and an observability artifact, the result store alone carries
// correctness.
func (p *adaptivePublisher) publish(st adaptiveState) error {
	st.Owner = p.owner
	//gatherlint:ignore nondetsource Updated is observability metadata on an accelerator record; results never read it
	st.Updated = time.Now().UnixNano()
	return p.sink.PublishState(st.Group, p.owner, st.marshal())
}
