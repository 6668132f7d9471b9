package netbackend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/sweep"
)

// leaseKey names one lease across all stores.
type leaseKey struct{ store, group string }

// leaseTables copies every store's leases into one table, so a test can
// check that a request left the arbitration state alone.
func (s *Server) leaseTables() map[leaseKey]leaseEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[leaseKey]leaseEntry)
	for name, st := range s.stores {
		for g, e := range st.leases {
			out[leaseKey{name, g}] = e
		}
	}
	return out
}

// serve sends one request straight through the server's handler, with the
// query taken verbatim.
func serve(t *testing.T, h http.Handler, method, target, query string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req, err := http.NewRequest(method, "http://gatherd"+target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestLegacyStatePublishRejected: a worker of an older version still PUTs
// adaptive-state records to .../state (and discards the outcome). The
// coordinator no longer has that route, so the request must fail with a 4xx
// and change neither the record log nor the lease table.
func TestLegacyStatePublishRejected(t *testing.T) {
	srv, err := NewServer("")
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	line := []byte(`{"key":"c1"}` + "\n")
	claim := []byte(`{"group":"g","owner":"w1","ttl_ns":60000000000}`)
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/records", "", line); rec.Code != http.StatusNoContent {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/claim", "", claim); rec.Code != http.StatusOK {
		t.Fatalf("claim: %d %s", rec.Code, rec.Body)
	}
	leases := srv.leaseTables()

	for _, method := range []string{http.MethodPut, http.MethodGet} {
		rec := serve(t, h, method, "/v1/stores/s/state", "group=g", []byte(`{"version":1,"group":"g","seeds":2}`+"\n"))
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s .../state = %d, want a 4xx", method, rec.Code)
		}
	}
	if rec := serve(t, h, http.MethodGet, "/v1/stores/s/records", "", nil); rec.Body.String() != string(line) {
		t.Fatalf("record log changed: %q", rec.Body)
	}
	if got := srv.leaseTables(); !reflect.DeepEqual(got, leases) {
		t.Fatalf("lease table changed: %+v, want %+v", got, leases)
	}
}

// fuzzRoute is one method and path pair of the coordinator API; store routes
// carry a {store} placeholder.
type fuzzRoute struct {
	method, path string
	// wellFormed is a valid body for the route, sent when the script asks
	// for a well-formed request instead of the fuzzed body.
	wellFormed string
}

var fuzzRoutes = []fuzzRoute{
	{method: http.MethodGet, path: "/healthz"},
	{method: http.MethodGet, path: "/v1/proto"},
	{method: http.MethodGet, path: "/v1/status"},
	{method: http.MethodGet, path: "/v1/stores/{store}/records"},
	{http.MethodPost, "/v1/stores/{store}/records", `{"key":"c1"}` + "\n"},
	{http.MethodPut, "/v1/stores/{store}/records", `{"key":"c0"}` + "\n"},
	{http.MethodPost, "/v1/stores/{store}/claim", `{"group":"g","owner":"w1","ttl_ns":60000000000}`},
	{http.MethodPost, "/v1/stores/{store}/renew", `{"group":"g","owner":"w2","ttl_ns":60000000000}`},
	{http.MethodPost, "/v1/stores/{store}/release", `{"group":"g","owner":"w1"}`},
}

// maxFuzzRequests bounds the requests one fuzz input sends.
const maxFuzzRequests = 16

// leaseMalformed reports whether a lease request body must be refused: it
// is longer than MaxLeaseBytes, does not decode, lacks a group or an owner,
// or (claim and renew) carries a TTL the backend contract rejects.
func leaseMalformed(path string, body []byte) bool {
	if len(body) > MaxLeaseBytes {
		return true
	}
	var req leaseReq
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return true
	}
	if req.Group == "" || req.Owner == "" {
		return true
	}
	return !strings.HasSuffix(path, "/release") && sweep.CheckLeaseTTL(time.Duration(req.TTLNanos)) != nil
}

// FuzzServerHandlers drives the coordinator's HTTP handlers, gatherd's trust
// boundary, with short request sequences. Each script byte picks a route and
// four switches: the fuzzed store name or a fixed valid one; the fuzzed query
// or none; the fuzzed body or the route's well-formed one; and a structured
// request instead, whose query is "off=n" and whose body is a lease request
// built from the fuzzed group, owner and TTL n. Whatever arrives, no handler
// panics or answers 5xx; a malformed lease request gets 400 and leaves the
// lease table unchanged; /v1/status lists exactly the stores that an
// accepted write (append, replace, claim or renew) named, so reads and
// releases never create one; and every store's record log reads back
// exactly as a model built from the accepted (204) appends and replaces.
func FuzzServerHandlers(f *testing.F) {
	minute := int64(time.Minute)
	f.Add([]byte{4, 3, 6, 7, 8}, "s", "", []byte(`{"key":"x"}`+"\n"), "g", "w1", minute)
	f.Add([]byte{4 + 36, 5 + 36, 3 + 9, 3 + 18, 3 + 72}, "E13", "off=3", []byte("line\n"), "g", "w1", int64(1))
	f.Add([]byte{6 + 36, 7 + 36, 8 + 36, 6 + 36}, "s", "", []byte(`{"group":"g","owner":"w9","ttl_ns":0}`), "g", "", minute)
	f.Add([]byte{6 + 72, 7 + 72, 8 + 72, 6 + 81}, "a/b", "", []byte(`{"group":"","owner":"w"}`), "g", "w2", minute)
	f.Add([]byte{2, 0, 1, 3 + 9, 3 + 72}, "..", "off=-1", []byte(nil), "", "w", int64(-1))
	f.Add([]byte{7 + 36, 8 + 36, 6 + 72}, "s", "", []byte(`{"group":"g","owner":"w","ttl_ns":1e30}trailing`), "g", "w", int64(sweep.MaxLeaseHorizon)+1)

	f.Fuzz(func(t *testing.T, script []byte, store, query string, body []byte, group, owner string, n int64) {
		srv, err := NewServer("")
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		model := make(map[string][]byte)
		created := []string{}
		structured, err := json.Marshal(leaseReq{Group: group, Owner: owner, TTLNanos: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(script) > maxFuzzRequests {
			script = script[:maxFuzzRequests]
		}
		for i, op := range script {
			rt := fuzzRoutes[int(op)%len(fuzzRoutes)]
			sw := int(op) / len(fuzzRoutes)
			name, q, b := "s", "", []byte(rt.wellFormed)
			if sw&1 != 0 {
				name = store
			}
			if sw&2 != 0 {
				q = query
			}
			if sw&4 != 0 {
				b = body
			}
			if sw&8 != 0 {
				q, b = "off="+strconv.FormatInt(n, 10), structured
			}
			perStore := strings.Contains(rt.path, "{store}")
			target := strings.Replace(rt.path, "{store}", url.PathEscape(name), 1)
			leases := srv.leaseTables()

			rec := serve(t, h, rt.method, target, q, b)
			label := rt.method + " " + target + "?" + q
			if rec.Code >= 500 {
				t.Fatalf("request %d %s: status %d: %s", i, label, rec.Code, rec.Body)
			}
			accepted := rec.Code == http.StatusOK || rec.Code == http.StatusNoContent
			if perStore && CheckStoreName(name) != nil {
				if accepted {
					t.Fatalf("request %d %s: invalid store name accepted with %d", i, label, rec.Code)
				}
			} else if perStore {
				switch {
				case strings.HasSuffix(rt.path, "/records") && rt.method == http.MethodPost:
					if want := len(b) > 0 && b[len(b)-1] == '\n'; accepted != want {
						t.Fatalf("request %d %s: append of %q answered %d", i, label, b, rec.Code)
					}
					if accepted {
						model[name] = append(model[name], b...)
					}
				case strings.HasSuffix(rt.path, "/records") && rt.method == http.MethodPut:
					if !accepted {
						t.Fatalf("request %d %s: replace answered %d", i, label, rec.Code)
					}
					model[name] = bytes.Clone(b)
				case strings.HasSuffix(rt.path, "/records"):
					checkRecords(t, label, rec, q, model[name])
				case leaseMalformed(rt.path, b):
					want := http.StatusBadRequest
					if len(b) > MaxLeaseBytes {
						want = http.StatusRequestEntityTooLarge
					}
					if rec.Code != want {
						t.Fatalf("request %d %s: malformed lease request %q answered %d", i, label, b, rec.Code)
					}
				case !accepted:
					t.Fatalf("request %d %s: well-formed lease request %q answered %d", i, label, b, rec.Code)
				}
			} else if rec.Code != http.StatusOK {
				t.Fatalf("request %d %s: status %d", i, label, rec.Code)
			}
			if !accepted || !perStore || strings.HasSuffix(rt.path, "/records") {
				if got := srv.leaseTables(); !reflect.DeepEqual(got, leases) {
					t.Fatalf("request %d %s (status %d) changed the lease table: %+v, was %+v", i, label, rec.Code, got, leases)
				}
			}
			write := rt.method != http.MethodGet && !strings.HasSuffix(rt.path, "/release")
			if accepted && perStore && write && !slices.Contains(created, name) {
				created = append(created, name)
				slices.Sort(created)
			}
			if got := statusStores(t, h); !reflect.DeepEqual(got, created) {
				t.Fatalf("request %d %s (status %d): /v1/status lists %q, want %q", i, label, rec.Code, got, created)
			}
		}
		for name, want := range model {
			rec := serve(t, h, http.MethodGet, "/v1/stores/"+name+"/records", "", nil)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("store %q reads back %d %q, want %q", name, rec.Code, rec.Body, want)
			}
		}
	})
}

// statusStores returns the store names /v1/status lists.
func statusStores(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := serve(t, h, http.MethodGet, "/v1/status", "", nil)
	var status struct {
		Stores []struct {
			Name string `json:"name"`
		} `json:"stores"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("/v1/status: %v: %q", err, rec.Body)
	}
	names := []string{}
	for _, st := range status.Stores {
		names = append(names, st.Name)
	}
	return names
}

// TestReadsCreateNoStore: reading the record log of a store nobody wrote
// answers an empty log from offset 0 and creates nothing — no directory
// under the persistence root, no /v1/status entry — while an append does
// create its store.
func TestReadsCreateNoStore(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, name := range []string{"a1", "a2", "a3"} {
		rec := serve(t, h, http.MethodGet, "/v1/stores/"+name+"/records", "off=5", nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Gatherd-Start") != "0" || rec.Body.Len() != 0 {
			t.Fatalf("read of unknown store %s = %d from %q: %q, want an empty log from 0",
				name, rec.Code, rec.Header().Get("X-Gatherd-Start"), rec.Body)
		}
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/a4/release", "", []byte(`{"group":"g","owner":"w1"}`)); rec.Code != http.StatusNoContent {
		t.Fatalf("release on unknown store = %d", rec.Code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("reads created %d entries under the store root", len(entries))
	}
	if got := statusStores(t, h); len(got) != 0 {
		t.Fatalf("/v1/status lists %q after reads only", got)
	}

	if rec := serve(t, h, http.MethodPost, "/v1/stores/a1/records", "", []byte("line\n")); rec.Code != http.StatusNoContent {
		t.Fatalf("append = %d", rec.Code)
	}
	if got := statusStores(t, h); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("/v1/status lists %q after one append, want [a1]", got)
	}
}

// TestReadLoadsPersistedStore: after a coordinator restart, a read of a store
// that exists only on disk serves its log.
func TestReadLoadsPersistedStore(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"key":"c1"}` + "\n")
	if rec := serve(t, srv.Handler(), http.MethodPost, "/v1/stores/s/records", "", line); rec.Code != http.StatusNoContent {
		t.Fatalf("append = %d", rec.Code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if rec := serve(t, restarted.Handler(), http.MethodGet, "/v1/stores/s/records", "", nil); rec.Body.String() != string(line) {
		t.Fatalf("restarted read = %d %q, want %q", rec.Code, rec.Body, line)
	}
}

// TestOversizedBodiesRejected: an append past the record limit and a
// replace past the log limit are answered 413 and change nothing, while a
// body of exactly the limit is accepted. The limits are shrunk so the test
// stays small; the routes read them the same way at MaxRecordBytes and
// MaxLogBytes.
func TestOversizedBodiesRejected(t *testing.T) {
	srv, err := NewServer("")
	if err != nil {
		t.Fatal(err)
	}
	if srv.maxRecord != MaxRecordBytes || srv.maxLog != MaxLogBytes {
		t.Fatalf("server limits %d/%d, want %d/%d", srv.maxRecord, srv.maxLog, MaxRecordBytes, MaxLogBytes)
	}
	srv.maxRecord, srv.maxLog = 64, 256
	h := srv.Handler()
	line := []byte(`{"key":"c1"}` + "\n")
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/records", "", line); rec.Code != http.StatusNoContent {
		t.Fatalf("append = %d", rec.Code)
	}
	body := func(n int64) []byte {
		b := bytes.Repeat([]byte("x"), int(n))
		b[n-1] = '\n'
		return b
	}
	for _, tc := range []struct {
		method string
		limit  int64
	}{
		{http.MethodPost, srv.maxRecord},
		{http.MethodPut, srv.maxLog},
	} {
		if rec := serve(t, h, tc.method, "/v1/stores/s/records", "", body(tc.limit+1)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s of %d bytes = %d, want 413", tc.method, tc.limit+1, rec.Code)
		}
		if rec := serve(t, h, http.MethodGet, "/v1/stores/s/records", "", nil); rec.Body.String() != string(line) {
			t.Fatalf("after an oversized %s the log reads %q, want %q", tc.method, rec.Body, line)
		}
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/records", "", body(srv.maxRecord)); rec.Code != http.StatusNoContent {
		t.Fatalf("append at the limit = %d, want 204", rec.Code)
	}
	if rec := serve(t, h, http.MethodPut, "/v1/stores/s/records", "", body(srv.maxLog)); rec.Code != http.StatusNoContent {
		t.Fatalf("replace at the limit = %d, want 204", rec.Code)
	}
}

// TestOversizedLeaseRequestRejected: a claim whose owner string takes the
// body one byte past MaxLeaseBytes is answered 413 and leaves the lease table
// unchanged, while a claim at exactly the limit is decoded and arbitrated
// (held: w1 owns the group).
func TestOversizedLeaseRequestRejected(t *testing.T) {
	srv, err := NewServer("")
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	claim := func(owner string) []byte {
		return []byte(fmt.Sprintf(`{"group":"g","owner":%q,"ttl_ns":%d}`, owner, int64(time.Minute)))
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/claim", "", claim("w1")); rec.Code != http.StatusOK {
		t.Fatalf("claim = %d", rec.Code)
	}
	before := srv.leaseTables()
	owner := strings.Repeat("w", MaxLeaseBytes+1-len(claim("")))
	if body := claim(owner); len(body) != MaxLeaseBytes+1 {
		t.Fatalf("oversized body is %d bytes, want %d", len(body), MaxLeaseBytes+1)
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/claim", "", claim(owner)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("claim of %d bytes = %d, want 413", MaxLeaseBytes+1, rec.Code)
	}
	if got := srv.leaseTables(); !reflect.DeepEqual(got, before) {
		t.Fatalf("an oversized claim changed the lease table: %+v, was %+v", got, before)
	}
	if rec := serve(t, h, http.MethodPost, "/v1/stores/s/claim", "", claim(owner[1:])); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "held") {
		t.Fatalf("claim at the limit = %d %q, want 200 held", rec.Code, rec.Body)
	}
}

// checkRecords verifies one GET .../records response against the model log:
// an offset within the log serves the log from there, an offset past its end
// rewinds to 0, and only an offset that is not a non-negative integer is
// refused.
func checkRecords(t *testing.T, label string, rec *httptest.ResponseRecorder, query string, log []byte) {
	t.Helper()
	q, _ := url.ParseQuery(query)
	off, err := int64(0), error(nil)
	if s := q.Get("off"); s != "" {
		off, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil || off < 0 {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: bad offset answered %d", label, rec.Code)
		}
		return
	}
	if off > int64(len(log)) {
		off = 0
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Gatherd-Start") != strconv.FormatInt(off, 10) || !bytes.Equal(rec.Body.Bytes(), log[off:]) {
		t.Fatalf("%s: served %d from %s %q, want the log from %d: %q",
			label, rec.Code, rec.Header().Get("X-Gatherd-Start"), rec.Body, off, log[off:])
	}
}
