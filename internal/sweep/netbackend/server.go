package netbackend

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sweep"
)

// ProtoVersion is the version of the gatherd wire protocol (the /v1 path
// prefix). It is deliberately independent of sweep.SchemaVersion: record
// lines cross the wire as opaque bytes, so bumping the record schema never
// forces a transport bump, and vice versa. GET /v1/proto reports it so
// mixed-version fleets fail fast instead of mis-parsing.
const ProtoVersion = 1

// Telemetry (internal/obs): coordinator-side counters, served on gatherd's
// own /metrics endpoint. The worker-side sweep counters keep counting in each
// worker process; these count what the fleet did as a whole.
var (
	obsClaims   = obs.NewCounter("fatgather_gatherd_lease_claims_total")
	obsReclaims = obs.NewCounter("fatgather_gatherd_lease_reclaims_total")
	obsHeld     = obs.NewCounter("fatgather_gatherd_lease_conflicts_total")
	obsRenewals = obs.NewCounter("fatgather_gatherd_lease_renewals_total")
	obsAppends  = obs.NewCounter("fatgather_gatherd_records_appended_total")
	obsLeases   = obs.NewGauge("fatgather_gatherd_active_leases")
	obsStores   = obs.NewGauge("fatgather_gatherd_stores")
)

// Request body limits. Bodies past them are answered 413 before anything is
// buffered beyond the limit. The record limits are sized from a full
// gatherbench suite with every adaptive group grown to the default 32-seed
// cap: its largest record (an E9/E13 cell with a livelock trace) was 112 KB,
// and its largest store (E13) was 6.2 MB.
const (
	// MaxRecordBytes bounds one appended record line (POST .../records).
	MaxRecordBytes = 4 << 20
	// MaxLogBytes bounds a replacement record log (PUT .../records). The
	// workers of this module only ever replace a log with an empty one (a
	// version-mismatch discard or a reset), so this limit is for other
	// clients.
	MaxLogBytes = 64 << 20
	// MaxLeaseBytes bounds a claim, renew or release request body. A
	// worker's names a cell group and an owner in well under 1 KB.
	MaxLeaseBytes = 64 << 10
)

// storeNameRE bounds store names to one safe path component: they name
// directories under -dir and appear in URLs, so no separators, no "..".
var storeNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// CheckStoreName validates a coordinator store name (one path-safe
// component). Client and Server both enforce it, so a bad name fails at
// construction rather than as a 404 mid-sweep.
func CheckStoreName(name string) error {
	if !storeNameRE.MatchString(name) || name == "." || name == ".." {
		return fmt.Errorf("gatherd: invalid store name %q (want a single path-safe component)", name)
	}
	return nil
}

// leaseEntry is one live lease in a store's lease table.
type leaseEntry struct {
	owner   string
	expires time.Time
}

// storeState is one named store: the append-only record log and the
// cell-group lease table. The log is the ground truth and is the only part
// persisted under -dir; leases expire by design, so losing them on a
// coordinator restart only costs duplicated (bit-identical) work.
type storeState struct {
	log    []byte
	leases map[string]leaseEntry
	f      *os.File // append-through handle when persisted; nil in memory mode
}

// Server is the gatherd coordination core: named stores, each an append-only
// record log plus a TTL lease table, behind the /v1 HTTP API. All state lives
// behind one mutex — coordination traffic is tiny (one claim per cell group,
// one append per cell) compared to the simulation work it arbitrates.
type Server struct {
	mu     sync.Mutex
	stores map[string]*storeState
	dir    string // persistence root; "" keeps everything in memory
	now    func() time.Time
	// maxRecord and maxLog are the body limits, MaxRecordBytes and
	// MaxLogBytes.
	maxRecord, maxLog int64
}

// NewServer creates a coordination server. A non-empty dir persists each
// store's record log under dir/<store>/results.jsonl — the layout a
// filesystem resume already understands — and reloads it on restart; leases
// are kept in memory only (see storeState).
func NewServer(dir string) (*Server, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("gatherd: create dir: %w", err)
		}
	}
	return &Server{
		stores:    make(map[string]*storeState),
		dir:       dir,
		now:       time.Now,
		maxRecord: MaxRecordBytes,
		maxLog:    MaxLogBytes,
	}, nil
}

// Close releases the persisted stores' file handles.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, st := range s.stores {
		if st.f != nil {
			if err := st.f.Close(); err != nil && first == nil {
				first = err
			}
			st.f = nil
		}
	}
	return first
}

// storeFor returns a named store, loading a persisted one on first use.
// Without create, a store that exists neither in memory nor under dir is
// answered with nil and nothing is created: only writes make a store.
// Callers hold s.mu.
func (s *Server) storeFor(name string, create bool) (*storeState, error) {
	if err := CheckStoreName(name); err != nil {
		return nil, err
	}
	if st, ok := s.stores[name]; ok {
		return st, nil
	}
	if !create {
		if s.dir == "" {
			return nil, nil
		}
		if _, err := os.Stat(s.persistedPath(name)); os.IsNotExist(err) {
			return nil, nil
		}
	}
	st := &storeState{leases: make(map[string]leaseEntry)}
	if s.dir != "" {
		storeDir := filepath.Join(s.dir, name)
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, fmt.Errorf("gatherd: create store dir: %w", err)
		}
		path := filepath.Join(storeDir, "results.jsonl")
		log, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("gatherd: load store: %w", err)
		}
		st.log = log
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("gatherd: open store: %w", err)
		}
		st.f = f
	}
	s.stores[name] = st
	obsStores.Set(float64(len(s.stores)))
	return st, nil
}

// persistedPath returns the record-log path of a persisted store.
func (s *Server) persistedPath(name string) string {
	return filepath.Join(s.dir, name, "results.jsonl")
}

// activeLeases recounts the live-lease gauge. Callers hold s.mu.
func (s *Server) activeLeases() {
	n := 0
	t := s.now()
	for _, st := range s.stores {
		for _, e := range st.leases {
			if t.Before(e.expires) {
				n++
			}
		}
	}
	obsLeases.Set(float64(n))
}

// Handler returns the /v1 coordination API (plus /healthz and /v1/proto).
// cmd/gatherd mounts it next to the internal/obs handler, so one listener
// serves coordination, /metrics and /progress together.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/proto", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"proto\":%d}\n", ProtoVersion)
	})
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/stores/{store}/records", s.handleReadRecords)
	mux.HandleFunc("POST /v1/stores/{store}/records", s.handleAppendRecord)
	mux.HandleFunc("PUT /v1/stores/{store}/records", s.handleReplaceRecords)
	mux.HandleFunc("POST /v1/stores/{store}/claim", s.handleClaim)
	mux.HandleFunc("POST /v1/stores/{store}/renew", s.handleRenew)
	mux.HandleFunc("POST /v1/stores/{store}/release", s.handleRelease)
	return mux
}

// handleStatus reports the coordinator's stores with record-log sizes and
// live lease counts, as JSON (a human- and test-friendly complement to
// /metrics).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	type storeStatus struct {
		Name     string `json:"name"`
		LogBytes int    `json:"log_bytes"`
		Leases   int    `json:"leases"`
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.stores))
	for name := range s.stores {
		names = append(names, name)
	}
	sort.Strings(names)
	out := struct {
		Proto  int           `json:"proto"`
		Stores []storeStatus `json:"stores"`
	}{Proto: ProtoVersion, Stores: []storeStatus{}}
	t := s.now()
	for _, name := range names {
		st := s.stores[name]
		live := 0
		for _, e := range st.leases {
			if t.Before(e.expires) {
				live++
			}
		}
		out.Stores = append(out.Stores, storeStatus{
			Name: name, LogBytes: len(st.log), Leases: live,
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// withStore resolves the {store} path value and runs fn under the server
// mutex, translating name errors to 400. Writers pass create; for the others
// fn receives nil when the store does not exist.
func (s *Server) withStore(w http.ResponseWriter, r *http.Request, create bool, fn func(st *storeState) error) {
	s.mu.Lock()
	st, err := s.storeFor(r.PathValue("store"), create)
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	err = fn(st)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleReadRecords serves the record log from ?off=N onward. Like
// FSBackend.ReadRecords, an offset beyond the current log (a worker that
// outlived a coordinator restart, or a replaced log) rewinds to 0; the
// X-Gatherd-Start header tells the worker where the returned bytes actually
// begin so it can rescan. An unknown store reads as an empty log.
func (s *Server) handleReadRecords(w http.ResponseWriter, r *http.Request) {
	var off int64
	if q := r.URL.Query().Get("off"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "gatherd: bad off parameter", http.StatusBadRequest)
			return
		}
		off = v
	}
	s.withStore(w, r, false, func(st *storeState) error {
		var log []byte
		if st != nil {
			log = st.log
		}
		if off > int64(len(log)) {
			off = 0
		}
		w.Header().Set("X-Gatherd-Start", strconv.FormatInt(off, 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(log[off:])
		return nil
	})
}

// readBody reads a request body of at most limit bytes. A larger body is
// answered 413 and any other read error 400; either way ok is false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("gatherd: body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		return nil, false
	case err != nil:
		http.Error(w, "gatherd: read body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return data, true
}

// handleAppendRecord appends one newline-terminated record line to the log
// (and through to disk for persisted stores).
func (s *Server) handleAppendRecord(w http.ResponseWriter, r *http.Request) {
	line, ok := readBody(w, r, s.maxRecord)
	if !ok {
		return
	}
	if len(line) == 0 || line[len(line)-1] != '\n' {
		// A non-terminated line would fuse with the next worker's append into
		// one corrupt record; reject it at the door.
		http.Error(w, "gatherd: record must be newline-terminated", http.StatusBadRequest)
		return
	}
	s.withStore(w, r, true, func(st *storeState) error {
		if st.f != nil {
			if _, err := st.f.Write(line); err != nil {
				return fmt.Errorf("gatherd: persist record: %w", err)
			}
		}
		st.log = append(st.log, line...)
		obsAppends.Inc()
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// handleReplaceRecords replaces the whole record log (compaction / reset).
func (s *Server) handleReplaceRecords(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, s.maxLog)
	if !ok {
		return
	}
	name := r.PathValue("store")
	s.withStore(w, r, true, func(st *storeState) error {
		if st.f != nil {
			// Same discipline as FSBackend.rewrite: temp + rename, then move
			// the append handle to the new inode.
			path := s.persistedPath(name)
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return fmt.Errorf("gatherd: replace store: %w", err)
			}
			if err := os.Rename(tmp, path); err != nil {
				return fmt.Errorf("gatherd: replace store: %w", err)
			}
			if err := st.f.Close(); err != nil {
				st.f = nil
				return fmt.Errorf("gatherd: replace store: %w", err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				st.f = nil
				return fmt.Errorf("gatherd: replace store: %w", err)
			}
			st.f = f
		}
		st.log = bytes.Clone(data)
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// leaseReq is the JSON body of claim, renew and release requests.
type leaseReq struct {
	Group string `json:"group"`
	Owner string `json:"owner"`
	// TTLNanos is the lease TTL in nanoseconds (claim and renew only).
	TTLNanos int64 `json:"ttl_ns"`
}

// decodeLeaseReq reads a lease request body of at most MaxLeaseBytes (see
// readBody) and decodes it. A body that does not decode, or lacks a group or
// an owner, is answered 400.
func decodeLeaseReq(w http.ResponseWriter, r *http.Request) (leaseReq, bool) {
	var req leaseReq
	data, ok := readBody(w, r, MaxLeaseBytes)
	if !ok {
		return req, false
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		http.Error(w, "gatherd: bad lease request: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	if req.Group == "" || req.Owner == "" {
		http.Error(w, "gatherd: lease request needs group and owner", http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// handleClaim arbitrates a cell-group claim, mirroring the filesystem lease
// semantics exactly: an absent lease is won, a fresh foreign lease (expiry in
// the future but within sweep.MaxLeaseHorizon) is respected, and anything
// else — expired, clock-skewed beyond the horizon, or this owner's own lease
// — is reclaimed.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeLeaseReq(w, r)
	if !ok {
		return
	}
	ttl := time.Duration(req.TTLNanos)
	if err := sweep.CheckLeaseTTL(ttl); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.withStore(w, r, true, func(st *storeState) error {
		t := s.now()
		status := "won"
		if e, held := st.leases[req.Group]; held {
			fresh := t.Before(e.expires) && e.expires.Sub(t) <= sweep.MaxLeaseHorizon
			if e.owner != req.Owner && fresh {
				obsHeld.Inc()
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintln(w, `{"status":"held"}`)
				return nil
			}
			status = "reclaimed"
		}
		st.leases[req.Group] = leaseEntry{owner: req.Owner, expires: t.Add(ttl)}
		obsClaims.Inc()
		if status == "reclaimed" {
			obsReclaims.Inc()
		}
		s.activeLeases()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":%q}\n", status)
		return nil
	})
}

// handleRenew extends a lease, mirroring the filesystem renew: a foreign
// lease backs the caller off (renewed=false), a missing lease is recreated
// for the caller (a release/renew race heals itself).
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeLeaseReq(w, r)
	if !ok {
		return
	}
	ttl := time.Duration(req.TTLNanos)
	if err := sweep.CheckLeaseTTL(ttl); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.withStore(w, r, true, func(st *storeState) error {
		w.Header().Set("Content-Type", "application/json")
		if e, held := st.leases[req.Group]; held && e.owner != req.Owner {
			fmt.Fprintln(w, `{"renewed":false}`)
			return nil
		}
		st.leases[req.Group] = leaseEntry{owner: req.Owner, expires: s.now().Add(ttl)}
		obsRenewals.Inc()
		s.activeLeases()
		fmt.Fprintln(w, `{"renewed":true}`)
		return nil
	})
}

// handleRelease drops a lease if (and only if) the caller still owns it.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeLeaseReq(w, r)
	if !ok {
		return
	}
	s.withStore(w, r, false, func(st *storeState) error {
		if st != nil {
			if e, held := st.leases[req.Group]; held && e.owner == req.Owner {
				delete(st.leases, req.Group)
				s.activeLeases()
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}
