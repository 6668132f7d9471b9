package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/workload"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-figure", "fig99"},
		{"-workload", "nope"},
		{"-trace", filepath.Join(t.TempDir(), "missing.json")},
		{"-trace", "x.json", "-figure", "fig1"},
		{"-n", "3", "extra"},
	}
	for _, args := range cases {
		if err := run(args, os.Stderr); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
}

func TestRunRendersFiguresAndWorkloads(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "fig1"},
		{"-figure", "fig2"},
		{"-workload", "ring", "-n", "6", "-seed", "2"},
	} {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if !strings.Contains(b.String(), "<svg") {
			t.Fatalf("args %v: no <svg in output", args)
		}
	}
}

// recordedLivelockSnippet runs the known round-robin-lag livelock and writes
// its certified cycle snippet to a file, exactly like gathersim
// -livelock-trace does.
func recordedLivelockSnippet(t *testing.T) string {
	t.Helper()
	cfg, err := workload.Generate(workload.KindNestedHulls, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, sim.Options{
		Strategy:  adversary.NewRoundRobinLag(),
		MaxEvents: 150000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sim.OutcomeLivelocked || res.LivelockTrace == nil {
		t.Fatalf("outcome %v (trace %v): test needs a certified livelock", res.Outcome, res.LivelockTrace != nil)
	}
	path := filepath.Join(t.TempDir(), "livelock.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := res.LivelockTrace.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayLivelockSnippet is the replay smoke over a recorded livelock
// trace snippet: metadata, per-robot state lines, and an SVG of the frozen
// cycle configuration.
func TestReplayLivelockSnippet(t *testing.T) {
	path := recordedLivelockSnippet(t)
	var b strings.Builder
	if err := run([]string{"-trace", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"adversary round-robin-lag", "frames:", "rendering: frame", "robot 0:", "<svg"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output misses %q:\n%s", want, out)
		}
	}
}

func TestReplayFrameSelection(t *testing.T) {
	path := recordedLivelockSnippet(t)
	outFile := filepath.Join(t.TempDir(), "frame0.svg")
	var b strings.Builder
	if err := run([]string{"-trace", path, "-frame", "0", "-out", outFile}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rendering: frame 0") {
		t.Fatalf("frame selection ignored:\n%s", b.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("svg file misses <svg element")
	}
	// Out-of-range frames fail loudly.
	if err := run([]string{"-trace", path, "-frame", "9999"}, os.Stderr); err == nil {
		t.Fatal("expected an out-of-range frame error")
	}
}
