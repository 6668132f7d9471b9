package netbackend_test

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/backendtest"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
)

func newTestClient(t *testing.T, base, store string) *netbackend.Client {
	t.Helper()
	c, err := netbackend.NewClient(base, store)
	if err != nil {
		t.Fatalf("NewClient(%s, %s): %v", base, store, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestWorkerDiesMidClaimAgainstGatherd is the network mirror of the FS
// stale-lease reclaim test: a worker claims a cell group from gatherd,
// streams a prefix of the sweep's records, and is SIGKILLed — which over HTTP
// means its lease simply stops being renewed and its connection vanishes. A
// surviving worker must wait out the TTL, reclaim the group through the
// coordinator, finish the sweep, and produce results byte-identical to an
// uninterrupted run.
func TestWorkerDiesMidClaimAgainstGatherd(t *testing.T) {
	cells := backendtest.Cells(2)
	ref := engine.Run(cells, engine.Options{})

	srv, err := netbackend.NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})

	// The doomed worker: finishes the first quarter of the cells, claims the
	// last cell's group with a short lease, then dies without releasing or
	// renewing — exactly the state a SIGKILL leaves on the coordinator.
	doomed := newTestClient(t, ts.URL, "chaos")
	dst, err := sweep.OpenBackend(doomed)
	if err != nil {
		t.Fatal(err)
	}
	k := len(cells) / 4
	for i := 0; i < k; i++ {
		if err := dst.Append(cells[i].Key(), ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	staleGroup := sweep.GroupKey(cells[len(cells)-1])
	if st, err := doomed.TryClaim(staleGroup, "doomed", 300*time.Millisecond); err != nil || st != sweep.LeaseWon {
		t.Fatalf("doomed claim = (%v, %v), want LeaseWon", st, err)
	}

	// The survivor: a second client on the same store must restore the dead
	// worker's records, poll the leased group until the TTL runs out, and
	// reclaim it from the coordinator.
	survivor := newTestClient(t, ts.URL, "chaos")
	st, err := sweep.OpenBackend(survivor)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, stats := runSurvivor(cells, st)
	if stats.LeasesReclaimed < 1 {
		t.Fatalf("LeasesReclaimed = %d, want >= 1 (the doomed worker's lease)", stats.LeasesReclaimed)
	}
	if stats.Executed != len(cells)-k {
		t.Fatalf("Executed = %d, want %d (the doomed worker's unfinished cells)", stats.Executed, len(cells)-k)
	}
	if stats.Restored != k {
		t.Fatalf("Restored = %d, want %d", stats.Restored, k)
	}
	for i := range cells {
		backendtest.SameResult(t, fmt.Sprintf("cell %d", i), res[i], ref[i])
	}
}

// runSurvivor runs one cooperative worker over a store with the test-tuned
// shard (short poll so lease expiry is noticed quickly, honest TTL for its
// own leases).
func runSurvivor(cells []engine.Cell, st *sweep.Store) ([]engine.CellResult, sweep.Stats) {
	return sweep.Run(cells, sweep.Options{Store: st, Shard: sweep.Shard{
		Owner: "survivor",
		TTL:   5 * time.Second,
		Poll:  10 * time.Millisecond,
	}})
}

// TestGatherdRestartMidSweep kills the coordinator itself mid-sweep and
// brings an EMPTY replacement up on the same address: the worker's in-flight
// requests fail, its retry loop backs off until the new listener answers, its
// heartbeat recreates the lease the restart lost, and its next reload rescans
// from offset zero. The sweep must complete with tables byte-identical to an
// undisturbed run — a coordinator crash costs a pause, never divergence.
func TestGatherdRestartMidSweep(t *testing.T) {
	cells := backendtest.Cells(2)
	ref := engine.Run(cells, engine.Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// First incarnation: counts successful record appends and signals the
	// test to pull the plug after the second one lands.
	srv1, err := netbackend.NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv1.Close()
	var (
		mu       sync.Mutex
		appends  int
		restartc = make(chan struct{})
		once     sync.Once
	)
	h1 := srv1.Handler()
	hs1 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h1.ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/records") {
			mu.Lock()
			appends++
			n := appends
			mu.Unlock()
			if n == 2 {
				once.Do(func() { close(restartc) })
			}
		}
	})}
	go hs1.Serve(ln) //nolint:errcheck // closed deliberately mid-test

	worker := newTestClient(t, "http://"+addr, "chaos")
	st, err := sweep.OpenBackend(worker)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type outcome struct {
		res   []engine.CellResult
		stats sweep.Stats
	}
	donec := make(chan outcome, 1)
	go func() {
		res, stats := runSurvivor(cells, st)
		donec <- outcome{res, stats}
	}()

	// Pull the plug after the second append, then resurrect gatherd on the
	// same address with a brand-new, empty server: every record and lease
	// accumulated so far is gone (the in-memory deployment).
	select {
	case <-restartc:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never reached the second record append")
	}
	_ = hs1.Close()
	var ln2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2, err := netbackend.NewServer("")
	if err != nil {
		t.Fatalf("NewServer (second incarnation): %v", err)
	}
	defer srv2.Close()
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2) //nolint:errcheck
	defer hs2.Close() //nolint:errcheck

	var got outcome
	select {
	case got = <-donec:
	case <-time.After(60 * time.Second):
		t.Fatal("worker did not finish after the coordinator restart")
	}
	if got.stats.Executed != len(cells) {
		t.Fatalf("Executed = %d, want %d (sole worker runs everything)", got.stats.Executed, len(cells))
	}
	for i := range cells {
		backendtest.SameResult(t, fmt.Sprintf("cell %d", i), got.res[i], ref[i])
	}
	mu.Lock()
	n := appends
	mu.Unlock()
	if n < 2 {
		t.Fatalf("first incarnation saw %d appends, want >= 2 (restart must interrupt a live sweep)", n)
	}
}
