package netbackend_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestOpenStoreRejectsBadMedia pins the medium rules every front end shares.
func TestOpenStoreRejectsBadMedia(t *testing.T) {
	cases := []struct {
		name             string
		dir, coordinator string
		sh               sweep.Shard
		want             string
	}{
		{"both media", t.TempDir(), "http://127.0.0.1:1", sweep.Shard{}, "mutually exclusive"},
		{"malformed URL", "", "localhost:9340", sweep.Shard{}, "coordinator URL must be http(s)"},
		{"owner without medium", "", "", sweep.Shard{Owner: "w1"}, "ShardOwner requires SweepDir or Coordinator"},
	}
	for _, tc := range cases {
		st, _, err := netbackend.OpenStore(tc.dir, tc.coordinator, "s", false, tc.sh)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: OpenStore = (%v, %v), want an error containing %q", tc.name, st, err, tc.want)
		}
	}
	if st, warnings, err := netbackend.OpenStore("", "", "s", true, sweep.Shard{}); st != nil || warnings != nil || err != nil {
		t.Fatalf("no medium: OpenStore = (%v, %v, %v), want an in-memory run", st, warnings, err)
	}
}

// TestOpenStoreResetsOnlyExclusiveFreshRuns: a sweep directory keeps its
// records when resuming or when opened by a fleet worker, and is reset
// otherwise; load warnings come back either way.
func TestOpenStoreResetsOnlyExclusiveFreshRuns(t *testing.T) {
	cells := engine.Batch{Workloads: []workload.Kind{workload.KindClustered}, Ns: []int{3}, Seeds: 1, MaxEvents: 200}.Cells()
	res := engine.Run(cells, engine.Options{})
	cases := []struct {
		name   string
		resume bool
		sh     sweep.Shard
		kept   bool
	}{
		{"fresh", false, sweep.Shard{}, false},
		{"resume", true, sweep.Shard{}, true},
		{"cooperative worker", false, sweep.Shard{Owner: "w1"}, true},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		seed, err := sweep.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.Append(cells[0].Key(), res[0]); err != nil {
			t.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("{torn\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		st, warnings, err := netbackend.OpenStore(dir, "", "s", tc.resume, tc.sh)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := st.Lookup(cells[0].Key()); ok != tc.kept {
			t.Fatalf("%s: record kept = %v, want %v", tc.name, ok, tc.kept)
		}
		if len(warnings) != 1 || !strings.Contains(warnings[0], "corrupt") {
			t.Fatalf("%s: warnings %q, want the corrupt line", tc.name, warnings)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenStoreCoordinator: a coordinator store opens over the network
// backend under its name, and a fresh (non-resume) open never resets it —
// the coordinator's record log is fleet state.
func TestOpenStoreCoordinator(t *testing.T) {
	srv, err := netbackend.NewServer("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cells := engine.Batch{Workloads: []workload.Kind{workload.KindClustered}, Ns: []int{3}, Seeds: 1, MaxEvents: 200}.Cells()
	res := engine.Run(cells, engine.Options{})
	for i := 0; i < 2; i++ {
		st, _, err := netbackend.OpenStore("", ts.URL, "E1", false, sweep.Shard{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(st.Path(), "/v1/stores/E1") {
			t.Fatalf("coordinator store at %s, want the E1 store", st.Path())
		}
		_, ok := st.Lookup(cells[0].Key())
		if ok != (i > 0) {
			t.Fatalf("open %d: record present = %v", i, ok)
		}
		if err := st.Append(cells[0].Key(), res[0]); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
