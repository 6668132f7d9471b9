package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/trace"
)

// Telemetry (internal/obs): write-only handles, one-way contract. Store
// warnings additionally go through the obs logger at load time, so corrupt-
// line skips are visible on every path that opens a store (resume, merge,
// read-only scans) — not only where a caller remembers to print Warnings().
var (
	obsCorruptLines   = obs.NewCounter("fatgather_sweep_store_corrupt_lines_total")
	obsSchemaMismatch = obs.NewCounter("fatgather_sweep_store_schema_mismatch_total")
	obsStoreLoads     = obs.NewHistogram("fatgather_sweep_store_load_seconds")
	obsStoreAppends   = obs.NewHistogram("fatgather_sweep_store_append_seconds")
	obsRecordsAdded   = obs.NewCounter("fatgather_sweep_store_records_appended_total")
)

// SchemaVersion is the version of the JSONL record layout. Records written
// with a different schema (or by a different engine.Version) force a clean
// re-run: stale results must never leak into a resumed sweep. Version 2
// added the survivor-relative crash metrics (crashed_count,
// survivors_gathered) to the result record; version-1 records lack them, so
// restoring them would render different robustness tables than a fresh run.
// Version 3 added livelock certification: the livelock_trace snippet field,
// and — together with the engine bump to fatgather-engine/3 — the fact that
// zero-progress runs now end OutcomeLivelocked well before the budget, so
// v2 records of such runs describe executions the current engine no longer
// produces. v2 stores are discarded on open and re-run cleanly.
const SchemaVersion = 3

// resultsFile is the name of the record file inside a sweep directory.
const resultsFile = "results.jsonl"

// record is one JSONL line: a completed cell keyed by its engine cell key,
// stamped with the schema and engine versions that produced it.
type record struct {
	Schema  int           `json:"schema"`
	Engine  string        `json:"engine"`
	Key     string        `json:"key"`
	Elapsed int64         `json:"elapsed_ns"`
	Err     string        `json:"err,omitempty"`
	Result  *resultRecord `json:"result,omitempty"`
}

// resultRecord mirrors sim.Result field-for-field with JSON-able types
// (the error becomes a string). encoding/json round-trips float64 exactly
// (shortest representation that parses back to the same bits), so a restored
// result renders byte-identical tables.
type resultRecord struct {
	Outcome           int                   `json:"outcome"`
	Algorithm         string                `json:"algorithm"`
	Adversary         string                `json:"adversary"`
	N                 int                   `json:"n"`
	Events            int                   `json:"events"`
	Cycles            int                   `json:"cycles"`
	TerminatedCount   int                   `json:"terminated_count"`
	Collisions        int                   `json:"collisions"`
	Stops             int                   `json:"stops"`
	Arrivals          int                   `json:"arrivals"`
	TotalDistance     float64               `json:"total_distance"`
	Final             config.Geometric      `json:"final,omitempty"`
	Milestones        sim.Milestones        `json:"milestones"`
	StateVisits       map[core.AlgState]int `json:"state_visits,omitempty"`
	HullAreaSeries    []float64             `json:"hull_area_series,omitempty"`
	SpreadSeries      []float64             `json:"spread_series,omitempty"`
	ConnectedAtEnd    bool                  `json:"connected_at_end"`
	FullyVisibleAtEnd bool                  `json:"fully_visible_at_end"`
	CrashedCount      int                   `json:"crashed_count,omitempty"`
	SurvivorsGathered bool                  `json:"survivors_gathered"`
	LivelockTrace     *trace.Trace          `json:"livelock_trace,omitempty"`
	Err               string                `json:"err,omitempty"`
}

func toResultRecord(r sim.Result) *resultRecord {
	out := &resultRecord{
		Outcome:           int(r.Outcome),
		Algorithm:         r.Algorithm,
		Adversary:         r.Adversary,
		N:                 r.N,
		Events:            r.Events,
		Cycles:            r.Cycles,
		TerminatedCount:   r.TerminatedCount,
		Collisions:        r.Collisions,
		Stops:             r.Stops,
		Arrivals:          r.Arrivals,
		TotalDistance:     r.TotalDistance,
		Final:             r.Final,
		Milestones:        r.Milestones,
		StateVisits:       r.StateVisits,
		HullAreaSeries:    r.HullAreaSeries,
		SpreadSeries:      r.SpreadSeries,
		ConnectedAtEnd:    r.ConnectedAtEnd,
		FullyVisibleAtEnd: r.FullyVisibleAtEnd,
		CrashedCount:      r.CrashedCount,
		SurvivorsGathered: r.SurvivorsGathered,
		LivelockTrace:     r.LivelockTrace,
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

func (r *resultRecord) simResult() sim.Result {
	out := sim.Result{
		Outcome:           sim.Outcome(r.Outcome),
		Algorithm:         r.Algorithm,
		Adversary:         r.Adversary,
		N:                 r.N,
		Events:            r.Events,
		Cycles:            r.Cycles,
		TerminatedCount:   r.TerminatedCount,
		Collisions:        r.Collisions,
		Stops:             r.Stops,
		Arrivals:          r.Arrivals,
		TotalDistance:     r.TotalDistance,
		Final:             r.Final,
		Milestones:        r.Milestones,
		StateVisits:       r.StateVisits,
		HullAreaSeries:    r.HullAreaSeries,
		SpreadSeries:      r.SpreadSeries,
		ConnectedAtEnd:    r.ConnectedAtEnd,
		FullyVisibleAtEnd: r.FullyVisibleAtEnd,
		CrashedCount:      r.CrashedCount,
		SurvivorsGathered: r.SurvivorsGathered,
		LivelockTrace:     r.LivelockTrace,
	}
	if r.Err != "" {
		out.Err = errors.New(r.Err)
	}
	return out
}

// Stored is a completed cell loaded from (or just written to) the store.
type Stored struct {
	Result  sim.Result
	Err     error
	Elapsed time.Duration
}

// result is the stored cell as the engine would report it at index i.
func (st Stored) result(i int, c engine.Cell) engine.CellResult {
	return engine.CellResult{Index: i, Cell: c, Result: st.Result, Err: st.Err, Elapsed: st.Elapsed}
}

// Store is an append-only JSONL checkpoint of completed sweep cells over a
// coordination Backend (a sweep directory by default, the gatherd coordinator
// over HTTP). Opening a store loads every readable record; corrupt or
// truncated lines (a sweep killed mid-write) are skipped with a warning and
// the log is compacted, so the cells they described simply re-run. Records
// written under a different schema or engine version discard the whole log:
// a version mismatch forces a clean re-run.
//
// Store is safe for concurrent use, although the engine's in-order streaming
// collector only ever appends from one goroutine.
type Store struct {
	mu       sync.Mutex
	b        Backend
	path     string
	done     map[string]Stored
	warnings []string
	// appendable is false for read-only stores; Append and Reset then fail
	// with the same error a closed store reports.
	appendable bool
	closed     bool
	// reloadOff is the byte offset up to which Reload has already parsed the
	// record log: under shared semantics the log is strictly append-only, so
	// each Reload only reads the tail the fleet appended since the last one.
	reloadOff int64
}

// Open creates (if needed) the sweep directory and loads the completed-cell
// set from its record file. The returned store is ready for Lookup and
// Append; Close releases the file handle.
//
// Open assumes this process is the only writer: corrupt or truncated lines
// are compacted away by atomically rewriting the record file. When several
// processes share one sweep directory (lease-based sharding), use OpenShared
// instead.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenReadOnly loads the completed-cell set of an existing sweep directory
// without creating, compacting, truncating or appending anything: corrupt
// lines are skipped with a warning, and a schema/engine version mismatch
// discards the loaded set (with a warning) but leaves the file untouched.
// Append and Reset fail on the returned store; Lookup, Keys, Done and
// Warnings work. The merge tool reads its sources this way so that a
// version-mismatched source is rejected, never rewritten.
func OpenReadOnly(dir string) (*Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("sweep: open store: %s is not a directory", dir)
	}
	// Read-only + shared: never compact, never append.
	return newStore(newReadOnlyFSBackend(dir), true, false)
}

// OpenShared is Open for sweep directories that other live processes may be
// appending to concurrently. It never compacts the record file on load —
// rewriting it would race a peer's in-flight appends — so corrupt lines are
// merely skipped (their cells re-run) and stay in the file until a later
// exclusive Open compacts them. A schema or engine version mismatch still
// discards the file: mixed-version records must never cohabit a store.
func OpenShared(dir string) (*Store, error) { return open(dir, true) }

// OpenBackend opens a store over an explicit coordination backend (the
// gatherd client, a conformance-suite medium). Backend stores always use
// shared semantics: peers may be appending through the same coordinator, so
// corrupt lines are skipped rather than compacted away.
func OpenBackend(b Backend) (*Store, error) { return newStore(b, true, true) }

func open(dir string, shared bool) (*Store, error) {
	b, err := NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	s, err := newStore(b, shared, true)
	if err != nil {
		_ = b.Close()
		return nil, err
	}
	return s, nil
}

// newStore loads the completed-cell set over an open backend. shared suppresses
// corrupt-line compaction (peers may be appending); appendable false makes
// Append and Reset fail (read-only scans).
func newStore(b Backend, shared, appendable bool) (*Store, error) {
	s := &Store{
		b:          b,
		path:       b.String(),
		done:       make(map[string]Stored),
		appendable: appendable,
	}
	good, corrupt, mismatch, consumed, err := s.load()
	if err != nil {
		return nil, err
	}
	if appendable && (mismatch || (corrupt && !shared)) {
		// Compact: rewrite only the good records, atomically, so a partial
		// trailing line never corrupts the records appended after it. (On a
		// version mismatch "good" is empty: the whole log is discarded.)
		if err := s.rewrite(good); err != nil {
			return nil, err
		}
		consumed = 0
		for _, line := range good {
			consumed += int64(len(line)) + 1
		}
	}
	// Reload starts scanning where the initial load stopped.
	s.reloadOff = consumed
	return s, nil
}

// load reads the record log (if any) into s.done. It returns the raw good
// lines (for compaction), what went wrong — corrupt reports skipped lines,
// mismatch reports a record from another schema/engine version (which
// additionally discards everything loaded so far — clean re-run) — and the
// byte offset after the last complete line, so Reload can resume scanning
// there instead of re-parsing the whole log.
func (s *Store) load() (good []string, corrupt, mismatch bool, consumed int64, err error) {
	//gatherlint:ignore nondetsource store-load latency is wall-clock telemetry only, never folded into results
	loadStart := time.Now()
	//gatherlint:ignore nondetsource wall-clock telemetry only (see loadStart above)
	defer func() { obsStoreLoads.Observe(time.Since(loadStart).Seconds()) }()
	data, _, err := s.b.ReadRecords(0)
	if err != nil {
		return nil, false, false, 0, fmt.Errorf("sweep: read store: %w", err)
	}
	consumed = int64(strings.LastIndexByte(string(data), '\n') + 1)
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if uerr := json.Unmarshal([]byte(line), &rec); uerr != nil || rec.Key == "" {
			w := fmt.Sprintf("%s:%d: skipping corrupt record (cell will re-run)", s.path, i+1)
			s.warnings = append(s.warnings, w)
			obsCorruptLines.Inc()
			obs.Warnf("sweep", "%s", w)
			corrupt = true
			continue
		}
		if rec.Schema != SchemaVersion || rec.Engine != engine.Version {
			w := fmt.Sprintf(
				"%s: schema/engine mismatch (have schema %d engine %q, want schema %d engine %q): discarding store, clean re-run",
				s.path, rec.Schema, rec.Engine, SchemaVersion, engine.Version)
			s.warnings = append(s.warnings, w)
			obsSchemaMismatch.Inc()
			obs.Warnf("sweep", "%s", w)
			s.done = make(map[string]Stored)
			return nil, corrupt, true, 0, nil
		}
		s.done[rec.Key] = rec.stored()
		good = append(good, line)
	}
	return good, corrupt, false, consumed, nil
}

// Reload reads the record-log tail appended by other processes since the
// last Reload (the sharded coordinator calls it between claim passes, often
// on a sub-second poll, so it must not re-parse the whole log every time).
// Only complete, newline-terminated lines are consumed — a torn trailing
// line is a peer's append in flight and is left for the next Reload — and
// corrupt lines or records from another schema/engine version are skipped
// silently; records already in memory are kept as-is. If the log shrank (an
// exclusive opener compacted or reset it, or a memory-only coordinator
// restarted empty), the next Reload rescans from the start. It returns the
// number of newly learned cells.
func (s *Store) Reload() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, start, err := s.b.ReadRecords(s.reloadOff)
	if err != nil {
		return 0, fmt.Errorf("sweep: reload store: %w", err)
	}
	end := strings.LastIndexByte(string(data), '\n')
	if end < 0 {
		// Nothing complete beyond start: either fully caught up, or only a
		// torn line so far (a peer's append in flight) — retry next poll. A
		// shrunken log (start rewound to 0) rescans from the top then.
		s.reloadOff = start
		return 0, nil
	}
	chunk := string(data[:end+1])
	s.reloadOff = start + int64(end+1)
	fresh := 0
	for _, line := range strings.Split(chunk, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if uerr := json.Unmarshal([]byte(line), &rec); uerr != nil || rec.Key == "" {
			continue
		}
		if rec.Schema != SchemaVersion || rec.Engine != engine.Version {
			continue
		}
		if _, ok := s.done[rec.Key]; !ok {
			s.done[rec.Key] = rec.stored()
			fresh++
		}
	}
	return fresh, nil
}

func (rec record) stored() Stored {
	st := Stored{Elapsed: time.Duration(rec.Elapsed)}
	if rec.Err != "" {
		st.Err = errors.New(rec.Err)
	}
	if rec.Result != nil {
		st.Result = rec.Result.simResult()
	}
	return st
}

// rewrite atomically replaces the record log with the given lines.
func (s *Store) rewrite(lines []string) error {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if err := s.b.RewriteRecords([]byte(b.String())); err != nil {
		return fmt.Errorf("sweep: compact store: %w", err)
	}
	return nil
}

// Lookup returns the stored result for a cell key.
func (s *Store) Lookup(key string) (Stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.done[key]
	return st, ok
}

// Append streams one completed cell to disk and to the in-memory
// completed-cell set. The record reaches the operating system before Append
// returns, so a killed process loses at most the line being written.
func (s *Store) Append(key string, r engine.CellResult) error {
	rec := record{
		Schema:  SchemaVersion,
		Engine:  engine.Version,
		Key:     key,
		Elapsed: int64(r.Elapsed),
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	} else {
		rec.Result = toResultRecord(r.Result)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encode record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.appendable {
		return errors.New("sweep: store is closed")
	}
	//gatherlint:ignore nondetsource append latency is wall-clock telemetry only, never folded into results
	appendStart := time.Now()
	if err := s.b.AppendRecord(line); err != nil {
		return fmt.Errorf("sweep: append record: %w", err)
	}
	//gatherlint:ignore nondetsource wall-clock telemetry only (see appendStart above)
	obsStoreAppends.Observe(time.Since(appendStart).Seconds())
	obsRecordsAdded.Inc()
	s.done[key] = rec.stored()
	return nil
}

// Keys returns the stored cell keys in sorted order (a stable iteration
// order for tools that copy stores, like the merge tool).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.done))
	for k := range s.done {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Done returns the number of completed cells the store knows about.
func (s *Store) Done() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Warnings returns the problems encountered while loading the store
// (corrupt lines skipped, version mismatches).
func (s *Store) Warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.warnings...)
}

// Path returns the record location — the record file path for filesystem
// stores, the coordinator store URL for network ones (useful in logs and
// tests).
func (s *Store) Path() string { return s.path }

// Backend returns the coordination backend the store was opened over; the
// sharded runners claim cell-group leases through it, so leases always
// travel the same medium as the records they guard.
func (s *Store) Backend() Backend { return s.b }

// Reset discards every stored record: the next run is a clean sweep.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.appendable {
		return errors.New("sweep: store is closed")
	}
	if err := s.b.RewriteRecords(nil); err != nil {
		return fmt.Errorf("sweep: reset store: %w", err)
	}
	s.done = make(map[string]Stored)
	s.reloadOff = 0
	return nil
}

// Close releases the store's backend resources. Lookup keeps working; Append
// and Reset fail after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.b.Close()
}
