package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsEndpoint(t *testing.T) {
	NewCounter("fatgather_httptest_total").Inc()
	h := Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "fatgather_httptest_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", rec.Body.String())
	}

	// Counter monotonicity across scrapes.
	NewCounter("fatgather_httptest_total").Add(2)
	rec2 := get("/metrics")
	if !strings.Contains(rec2.Body.String(), "fatgather_httptest_total 3") {
		t.Fatalf("second scrape not monotone:\n%s", rec2.Body.String())
	}
}

func TestProgressEndpointIdle(t *testing.T) {
	// Graceful while no sweep is active: 200, valid JSON, active=false.
	SweepEnd()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	if rec.Code != 200 {
		t.Fatalf("/progress status = %d, want 200 while idle", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/progress content-type = %q", ct)
	}
	var st ProgressState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, rec.Body.String())
	}
	if st.Active {
		t.Fatal("idle /progress reports an active sweep")
	}
}

func TestProgressEndpointLiveSweep(t *testing.T) {
	SweepBegin("E13", "w1")
	defer SweepEnd()
	SweepGroups(4)
	SweepGroupClaimed()
	SweepGroupClaimed()
	SweepGroupDone()
	SweepLeaseReclaimed()
	SweepCells(10, 3)
	SweepAdaptive("g-open", 6, 0.08, false)
	SweepAdaptive("g-closed", 9, 0.04, true)
	// Fewer than two successful replicas: the half-width is infinite.
	SweepAdaptive("g-inf", 1, math.Inf(1), false)

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	var st ProgressState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/progress not JSON: %v (status %d, body %q)", err, rec.Code, rec.Body.String())
	}
	if !st.Active || st.Sweep == nil {
		t.Fatalf("expected active sweep, got %+v", st)
	}
	s := st.Sweep
	if s.Experiment != "E13" || s.Owner != "w1" {
		t.Fatalf("sweep identity = %q/%q", s.Experiment, s.Owner)
	}
	if s.TotalGroups != 4 || s.GroupsClaimed != 2 || s.GroupsDone != 1 || s.LeasesReclaimed != 1 {
		t.Fatalf("group counters wrong: %+v", s)
	}
	if s.CellsExecuted != 10 || s.CellsRestored != 3 {
		t.Fatalf("cell counters wrong: %+v", s)
	}
	want := []AdaptiveGroupState{
		{Group: "g-inf", Seeds: 1, HalfWidth: math.Inf(1)},
		{Group: "g-open", Seeds: 6, HalfWidth: 0.08},
	}
	if len(s.OpenGroups) != len(want) {
		t.Fatalf("open groups wrong: %+v", s.OpenGroups)
	}
	for i, g := range s.OpenGroups {
		if g.Group != want[i].Group || g.Seeds != want[i].Seeds || g.HalfWidth != want[i].HalfWidth {
			t.Fatalf("open group %d = %+v, want %+v", i, g, want[i])
		}
	}
	for _, hw := range []string{`"half_width": "+Inf"`, `"half_width": "0.08"`} {
		if !strings.Contains(rec.Body.String(), hw) {
			t.Fatalf("/progress lacks %s:\n%s", hw, rec.Body.String())
		}
	}
}

func TestPprofMounted(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ status=%d body=%q", rec.Code, rec.Body.String())
	}
}
