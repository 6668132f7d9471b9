package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/sweep"
)

// quickRobustCfg keeps the robustness drivers fast: gathering rarely
// completes at this budget, which is fine — the tables only need rows.
var quickRobustCfg = Config{Seeds: 1, MaxEvents: 1500}

func TestE13SmallScale(t *testing.T) {
	tbl := E13StrategyCross(quickRobustCfg, 4)
	checkTable(t, tbl, "E13")
	// 8 strategies x 3 workloads.
	if len(tbl.Rows) != 24 {
		t.Fatalf("expected 24 strategy-workload rows, got %d", len(tbl.Rows))
	}
	s := tbl.String()
	for _, want := range []string{"fair", "greedy-stall", "round-robin-lag", "crash(1)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("E13 misses strategy %q:\n%s", want, s)
		}
	}
}

// TestE13LivelockCertification is the end-to-end regression for the
// livelock-misreporting bug: at a budget large enough for certification
// (the 1500-event quick config is below the detection window on purpose),
// every round-robin-lag cell must be reported livelocked in the E13 table,
// with a median event count far below the budget those runs used to burn.
func TestE13LivelockCertification(t *testing.T) {
	const budget = 30000
	tbl := E13StrategyCross(Config{Seeds: 2, MaxEvents: budget}, 6)
	liveCol, eventsCol := -1, -1
	for i, c := range tbl.Columns {
		switch c {
		case "livelocked":
			liveCol = i
		case "median events":
			eventsCol = i
		}
	}
	if liveCol < 0 || eventsCol < 0 {
		t.Fatalf("E13 columns missing livelocked/median events: %v", tbl.Columns)
	}
	checked := 0
	for _, row := range tbl.Rows {
		if row[0] != "round-robin-lag" {
			continue
		}
		checked++
		if row[liveCol] != "1.00" {
			t.Fatalf("round-robin-lag/%s: livelocked rate %s, want 1.00\n%s", row[1], row[liveCol], tbl.String())
		}
		var events float64
		if _, err := fmt.Sscanf(row[eventsCol], "%f", &events); err != nil {
			t.Fatalf("bad median events %q: %v", row[eventsCol], err)
		}
		if events >= budget/2 {
			t.Fatalf("round-robin-lag/%s: median events %.0f not well under the %d budget", row[1], events, budget)
		}
	}
	if checked != 3 {
		t.Fatalf("expected 3 round-robin-lag rows, checked %d", checked)
	}
}

func TestE14SmallScale(t *testing.T) {
	tbl := E14CrashTolerance(quickRobustCfg, 4)
	checkTable(t, tbl, "E14")
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected rows for k=0..3, got %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "0" || tbl.Rows[3][0] != "3" {
		t.Fatalf("crash counts out of order: %v", tbl.Rows)
	}
	// The survivor-relative column evaluates the goal on the non-crashed
	// robots alone. It is NOT ordered against the full-goal column in
	// general (a crashed body can bridge — or stand clear of — the
	// survivors), but for the fault-free k=0 row the two metrics are the
	// same predicate and must coincide.
	if tbl.Columns[3] != "survivors-gathered" {
		t.Fatalf("survivors-gathered column missing: %v", tbl.Columns)
	}
	for _, row := range tbl.Rows {
		var gathered, survivors float64
		if _, err := fmt.Sscanf(row[2], "%g", &gathered); err != nil {
			t.Fatalf("bad gathered cell %q: %v", row[2], err)
		}
		if _, err := fmt.Sscanf(row[3], "%g", &survivors); err != nil {
			t.Fatalf("bad survivors-gathered cell %q: %v", row[3], err)
		}
		if survivors < 0 || survivors > 1 {
			t.Fatalf("k=%s: survivors-gathered %.2f outside [0, 1]", row[0], survivors)
		}
		if row[0] == "0" && survivors != gathered {
			t.Fatalf("k=0: survivors-gathered %.2f != gathered %.2f (no crashes, the metrics must coincide)", survivors, gathered)
		}
	}
}

func TestE15SmallScale(t *testing.T) {
	tbl := E15NoiseThreshold(quickRobustCfg, 4)
	checkTable(t, tbl, "E15")
	s := tbl.String()
	for _, want := range []string{"fair+noise=0.5", "fair+trunc=0.9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("E15 misses fault row %q:\n%s", want, s)
		}
	}
}

// TestFairPathByteIdenticalToPrePR pins the central acceptance criterion of
// the adversary subsystem: routing every legacy adversary through
// adversary.Strategy must leave the E5/E9/E10 tables byte-identical to the
// pre-subsystem code. The hash below was computed from gatherbench output
// (-only E5,E9,E10 -seeds 2 -max-events 1200) BEFORE internal/adversary
// existed; if it ever changes, simulation semantics changed.
func TestFairPathByteIdenticalToPrePR(t *testing.T) {
	const prePRHash = "c65f177ba1b5aae360aa409efc0b3b0a6a3bb8188fd93527748b164a0f916081"
	cfg := Config{Seeds: 2, MaxEvents: 1200}
	var b strings.Builder
	fmt.Fprintln(&b, E5GatheringVsN(cfg, nil).String())
	fmt.Fprintln(&b, E9Adversaries(cfg, 6).String())
	fmt.Fprintln(&b, E10Baselines(cfg, nil).String())
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != prePRHash {
		t.Fatalf("E5/E9/E10 tables diverged from the pre-adversary-subsystem output:\nhash %s, want %s\n%s",
			got, prePRHash, b.String())
	}
}

// TestE13ResumeByteIdentical: the robustness experiments must flow through
// the sweep store like every other multi-run experiment — strategy-aware
// cell keys included — so a resumed E13 re-renders byte-identically without
// executing anything.
func TestE13ResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := quickRobustCfg
	cfg.SweepDir = dir

	first := E13StrategyCross(cfg, 4).String()
	store := filepath.Join(dir, "E13", "results.jsonl")
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("E13 store not written: %v", err)
	}
	// Every strategy must appear in the persisted keys (strategy-aware keys).
	for _, frag := range []string{"adv=crash", "adv=greedy-stall", "adv=round-robin-lag", "crash=1"} {
		if !strings.Contains(string(before), frag) {
			t.Fatalf("store keys miss %q", frag)
		}
	}

	cfg.Resume = true
	second := E13StrategyCross(cfg, 4).String()
	if first != second {
		t.Fatalf("resumed E13 differs:\n%s\nvs\n%s", first, second)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("resume re-ran cells: store grew %d -> %d bytes", len(before), len(after))
	}
}

// TestE14ShardedByteIdentical: the crash sweep composes with cooperative
// sharding — a late worker over a drained store restores everything and
// renders the same bytes.
func TestE14ShardedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := quickRobustCfg
	cfg.SweepDir = dir

	want := E14CrashTolerance(cfg, 4).String()

	shard := quickRobustCfg
	shard.SweepDir = dir
	shard.ShardOwner = "late-worker"
	got := E14CrashTolerance(shard, 4).String()
	if got != want {
		t.Fatalf("sharded E14 differs:\n%s\nvs\n%s", got, want)
	}
}

// TestConfigValidate covers the up-front validation of every knob a front
// end can set.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Seeds: 3, MaxEvents: 100},
		{SweepDir: "x", ShardOwner: "w1", LeaseTTL: time.Minute},
		{Adversary: "crash(2)"},
		{Coordinator: "http://localhost:9340", ShardOwner: "w1", Resume: true},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		cfg  Config
		want string
	}{
		{Config{ShardOwner: "w"}, "ShardOwner requires SweepDir"},
		{Config{LeaseTTL: -1}, "LeaseTTL must be non-negative"},
		{Config{LeaseTTL: time.Minute}, "LeaseTTL requires ShardOwner"},
		{Config{Resume: true}, "Resume requires SweepDir"},
		{Config{SweepDir: "x", Coordinator: "http://localhost:9340"}, "mutually exclusive"},
		{Config{Coordinator: "localhost:9340"}, "coordinator URL must be http(s)"},
		{Config{Adversary: "bogus"}, "unknown adversary strategy"},
		{Config{AdaptiveCI: -1}, "AdaptiveCI must be non-negative"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want substring %q", tc.cfg, err, tc.want)
		}
	}
}

// TestConfigValidateRejectsLeaseTTLBeyondHorizon pins the shard validator at
// the experiments entry point: a LeaseTTL past sweep.MaxLeaseHorizon would
// fail every lease claim and run the whole fleet leaseless.
func TestConfigValidateRejectsLeaseTTLBeyondHorizon(t *testing.T) {
	cfg := Config{SweepDir: t.TempDir(), ShardOwner: "w1", LeaseTTL: 25 * time.Hour}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "lease horizon") {
		t.Fatalf("Validate(LeaseTTL 25h) = %v, want an error naming the lease horizon", err)
	}
	cfg.LeaseTTL = sweep.MaxLeaseHorizon
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(LeaseTTL = MaxLeaseHorizon) = %v, want nil", err)
	}
}

// TestRunCellsDegradesOnInvalidShardConfig: a driver handed an invalid shard
// config (a lease TTL past the horizon, which would fail every claim) must
// still render its table — it warns and runs unsharded.
func TestRunCellsDegradesOnInvalidShardConfig(t *testing.T) {
	cfg := quickRobustCfg
	cfg.SweepDir, cfg.ShardOwner = t.TempDir(), "w1"
	cfg.LeaseTTL = sweep.MaxLeaseHorizon + time.Hour
	var warnings []string
	cfg.Warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	tbl := E14CrashTolerance(cfg, 4)
	if len(tbl.Rows) == 0 {
		t.Fatal("invalid shard config rendered an empty table")
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "lease horizon") && strings.Contains(w, "running unsharded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no clear warning about the invalid shard config: %v", warnings)
	}
}

// TestAdversaryOverrideChangesE5: the Config.Adversary spec must reroute the
// single-adversary experiments; an invalid spec warns and falls back.
func TestAdversaryOverrideChangesE5(t *testing.T) {
	plain := E5GatheringVsN(quickRobustCfg, []int{3}).String()

	over := quickRobustCfg
	over.Adversary = "greedy-stall"
	changed := E5GatheringVsN(over, []int{3}).String()
	if changed == plain {
		t.Fatal("adversary override left E5 unchanged")
	}

	var warnings []string
	invalid := quickRobustCfg
	invalid.Adversary = "bogus"
	invalid.Warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	fallback := E5GatheringVsN(invalid, []int{3}).String()
	if fallback != plain {
		t.Fatal("invalid adversary spec did not fall back to the driver default")
	}
	if len(warnings) == 0 {
		t.Fatal("invalid adversary spec produced no warning")
	}
}

// TestAdaptiveShardedMatchesUnshardedAdaptive: Config composing AdaptiveCI
// with ShardOwner runs the cross-worker adaptive protocol; a solo cooperative
// worker must render bytes identical to the plain adaptive run — the
// library-level counterpart of the CLI test, and a second run over the same
// store must restore the full trajectory instead of re-running it.
func TestAdaptiveShardedMatchesUnshardedAdaptive(t *testing.T) {
	plainCfg := quickRobustCfg
	plainCfg.AdaptiveCI = 0.000001
	plainCfg.AdaptiveMaxSeeds = 2
	plain := E14CrashTolerance(plainCfg, 4).String()

	shardCfg := plainCfg
	shardCfg.SweepDir = t.TempDir()
	shardCfg.ShardOwner = "w1"
	shardCfg.Warnf = func(format string, args ...any) {
		// The per-worker accounting line is expected; anything else (a
		// composition or degradation warning) is a regression.
		if msg := fmt.Sprintf(format, args...); !strings.Contains(msg, "worker w") {
			t.Errorf("unexpected warning: %s", msg)
		}
	}
	got := E14CrashTolerance(shardCfg, 4).String()
	if got != plain {
		t.Fatalf("adaptive+sharded differs from plain adaptive:\n%s\nvs\n%s", got, plain)
	}

	// A late joiner over the drained store recomputes the trajectory from
	// the records without running cells.
	path := filepath.Join(shardCfg.SweepDir, "E14", "results.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shardCfg.ShardOwner = "w2"
	if again := E14CrashTolerance(shardCfg, 4).String(); again != plain {
		t.Fatalf("late joiner rendered different tables:\n%s\nvs\n%s", again, plain)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("late joiner re-ran (or duplicated) stored replicas")
	}
}
