package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/experiments"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/trace"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-workload", "nope"},
		{"-adversary", "nope"},
		{"-algorithm", "nope"},
		{"-n", "0"},
		{"-n", "3", "-max-events", "100", "extra"},
	}
	for _, args := range cases {
		if err := run(args, os.Stderr); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
}

// TestAdversaryHelpNamesEveryStrategy pins the -adversary help to the
// registry: every adversary.Names entry is listed, and the spec form is
// mentioned.
func TestAdversaryHelpNamesEveryStrategy(t *testing.T) {
	help := adversaryUsage()
	for _, name := range adversary.Names() {
		if !strings.Contains(help, name) {
			t.Errorf("-adversary help misses %q: %s", name, help)
		}
	}
	for _, want := range []string{"crash(k)", "+noise="} {
		if !strings.Contains(help, want) {
			t.Errorf("-adversary help misses the spec form %q: %s", want, help)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-n", "3", "-workload", "clustered", "-seed", "1", "-max-events", "30000", "-ascii"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"outcome:", "gathered:", "events:", "algorithm:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary misses %q:\n%s", want, out)
		}
	}
}

func TestRunWritesSVG(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "final.svg")
	var b strings.Builder
	if err := run([]string{"-n", "3", "-max-events", "20000", "-svg", svg}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("svg output misses <svg element")
	}
}

// TestRunRecordsLivelockTrace drives the known round-robin-lag livelock end
// to end through the CLI: the summary reports the livelocked outcome and the
// -livelock-trace file holds a valid replayable snippet.
func TestRunRecordsLivelockTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "livelock.json")
	var b strings.Builder
	err := run([]string{
		"-n", "6", "-workload", "nested-hulls", "-adversary", "round-robin-lag",
		"-seed", "1", "-max-events", "150000", "-livelock-trace", path,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "outcome:              livelocked") {
		t.Fatalf("summary does not report the livelocked outcome:\n%s", b.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded snippet invalid: %v", err)
	}
	if tr.N != 6 || tr.Len() == 0 {
		t.Fatalf("snippet n=%d frames=%d", tr.N, tr.Len())
	}
}

func TestRunReportsMissingLivelockTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.json")
	var b strings.Builder
	if err := run([]string{"-n", "3", "-max-events", "30000", "-livelock-trace", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no livelock trace recorded") {
		t.Fatalf("expected a no-trace notice:\n%s", b.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("no trace file should be written for a healthy run")
	}
}

// TestMaxEventsDefaultsPinned documents the intentional difference between
// the interactive single-run budget (this command, sim.DefaultMaxEvents) and
// the sweep budget (gatherbench, experiments.DefaultMaxEvents): drifting
// either is a conscious decision, not an accident.
func TestMaxEventsDefaultsPinned(t *testing.T) {
	// defaultMaxEvents is declared as sim.DefaultMaxEvents; pinning the value
	// here means changing either side is a conscious decision.
	if defaultMaxEvents != 200000 {
		t.Fatalf("gathersim default budget = %d, want sim.DefaultMaxEvents (200000)", defaultMaxEvents)
	}
	if sim.DefaultMaxEvents != 200000 {
		t.Fatalf("sim.DefaultMaxEvents = %d, want 200000", sim.DefaultMaxEvents)
	}
	if experiments.DefaultMaxEvents != 150000 {
		t.Fatalf("experiments.DefaultMaxEvents = %d, want 150000", experiments.DefaultMaxEvents)
	}
}
