package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/experiments"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/trace"
	"github.com/fatgather/fatgather/internal/workload"
)

// TestRunRejectsDegenerateFlags covers the error paths of run(): flag values
// that would silently render empty or degenerate tables must be rejected with
// a usage error before any experiment runs.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero seeds", []string{"-seeds", "0"}, "-seeds must be positive"},
		{"negative seeds", []string{"-seeds", "-2"}, "-seeds must be positive"},
		{"zero max-events", []string{"-max-events", "0"}, "-max-events must be positive"},
		{"negative max-events", []string{"-max-events", "-1"}, "-max-events must be positive"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be non-negative"},
		{"resume without out", []string{"-resume"}, "-resume requires -out"},
		{"coordinator with out", []string{"-coordinator", "http://localhost:9340", "-out", "sweep"}, "-coordinator and -out are mutually exclusive"},
		{"malformed coordinator URL", []string{"-coordinator", "localhost:9340"}, "coordinator URL must be http(s)"},
		{"negative adaptive-ci", []string{"-adaptive-ci", "-1"}, "-adaptive-ci must be non-negative"},
		{"negative adaptive cap", []string{"-adaptive-max-seeds", "-1"}, "-adaptive-max-seeds must be non-negative"},
		{"adaptive cap without target", []string{"-adaptive-max-seeds", "8"}, "-adaptive-max-seeds requires -adaptive-ci"},
		{"steal without owner", []string{"-steal"}, "flag provided but not defined: -steal"},
		{"unknown experiment", []string{"-only", "E99"}, "unknown experiment id"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"stray argument", []string{"-only", "E1", "-seeds", "1", "-max-events", "200", "extra"}, "unexpected arguments: [extra]"},
		{"unknown adversary", []string{"-adversary", "bogus"}, "unknown adversary strategy"},
		{"malformed adversary spec", []string{"-adversary", "fair+noise=abc"}, "bad noise bound"},
		{"negative crash", []string{"-crash", "-1"}, "-crash must be non-negative"},
		{"negative noise", []string{"-noise", "-0.1"}, "-noise must be non-negative"},
		{"full truncation", []string{"-trunc", "1"}, "-trunc must be in [0, 1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not contain %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("run(%v) printed tables despite the error:\n%s", tc.args, out.String())
			}
		})
	}
}

func TestRunPrintsSelectedExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "e2,E3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "== E2:") || !strings.Contains(got, "== E3:") {
		t.Fatalf("selected experiments missing from output:\n%s", got)
	}
	if strings.Contains(got, "== E1:") {
		t.Fatalf("unselected experiment printed:\n%s", got)
	}
}

// TestRunSweepOutAndResume drives the new flags end to end: -out checkpoints
// the cells, -resume re-renders byte-identical output without re-running.
func TestRunSweepOutAndResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-only", "E5", "-seeds", "2", "-max-events", "1200", "-out", dir}

	var first strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "E5", "results.jsonl")
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("store not written: %v", err)
	}

	var second strings.Builder
	if err := run(append(args, "-resume"), &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed output differs:\n%s\nvs\n%s", first.String(), second.String())
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("resume re-ran cells: store grew from %d to %d bytes", len(before), len(after))
	}
}

func TestRunAdaptiveFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-only", "E5", "-seeds", "2", "-max-events", "1200",
		"-adaptive-ci", "0.000001", "-adaptive-max-seeds", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "consumed 3 seeds") {
		t.Fatalf("adaptive notes missing:\n%s", out.String())
	}
}

// TestRunRejectsBadShardFlags covers the sharding flag validation. The
// static-split flags -shards and -shard-id are gone; their old invocations
// must fail loudly rather than run the whole suite unsharded.
func TestRunRejectsBadShardFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"shard-owner without out", []string{"-shard-owner", "w"}, "-shard-owner requires -out"},
		{"lease-ttl without owner", []string{"-lease-ttl", "10s"}, "-lease-ttl requires -shard-owner"},
		{"negative lease-ttl", []string{"-shard-owner", "w", "-out", t.TempDir(), "-lease-ttl", "-1s"}, "-lease-ttl must be non-negative"},
		{"negative shards", []string{"-shards", "-1"}, "flag provided but not defined: -shards"},
		{"shard-id equal to shards", []string{"-shards", "2", "-shard-id", "2"}, "flag provided but not defined: -shards"},
		{"shard-id above shards", []string{"-shards", "2", "-shard-id", "5"}, "flag provided but not defined: -shards"},
		{"negative shard-id", []string{"-shards", "2", "-shard-id", "-1"}, "flag provided but not defined: -shards"},
		{"bare shard-id", []string{"-shard-id", "1"}, "flag provided but not defined: -shard-id"},
		{"shard-id with shards=1", []string{"-shards", "1", "-shard-id", "1"}, "flag provided but not defined: -shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not contain %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunShardOwnerFlag drives cooperative sharding end to end through the
// CLI: a first worker drains the sweep, a second worker over the same
// directory restores everything from the shared store (sharded mode implies
// -resume) and prints byte-identical tables.
func TestRunShardOwnerFlag(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-only", "E5", "-seeds", "2", "-max-events", "1200", "-out", dir}

	var plain strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "E5", "results.jsonl")
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}

	var second strings.Builder
	if err := run(append(base, "-shard-owner", "late-worker"), &second); err != nil {
		t.Fatal(err)
	}
	if plain.String() != second.String() {
		t.Fatalf("sharded worker output differs:\n%s\nvs\n%s", plain.String(), second.String())
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("sharded worker re-ran completed cells: store grew from %d to %d bytes", len(before), len(after))
	}
}

// readStoreKeys parses a results.jsonl and returns every record's cell key
// (in file order, duplicates preserved).
func readStoreKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt store line %q: %v", line, err)
		}
		keys = append(keys, rec.Key)
	}
	return keys
}

// TestRunAdaptiveComposesWithShardOwner drives -adaptive-ci and -shard-owner
// in one run: a solo cooperative worker walks the cross-worker adaptive
// protocol end to end (leases, shared store) and must print byte-identical
// tables to a plain single-process adaptive run, with no seed replica
// executed (checkpointed) twice.
func TestRunAdaptiveComposesWithShardOwner(t *testing.T) {
	adaptive := []string{"-only", "E5", "-seeds", "2", "-max-events", "1200",
		"-adaptive-ci", "0.000001", "-adaptive-max-seeds", "3"}

	var plain strings.Builder
	plainDir := t.TempDir()
	if err := run(append(adaptive, "-out", plainDir), &plain); err != nil {
		t.Fatal(err)
	}

	var sharded strings.Builder
	shardDir := t.TempDir()
	if err := run(append(adaptive, "-out", shardDir, "-shard-owner", "w1"), &sharded); err != nil {
		t.Fatal(err)
	}
	if plain.String() != sharded.String() {
		t.Fatalf("adaptive tables differ with -shard-owner:\n%s\nvs\n%s", plain.String(), sharded.String())
	}

	keys := readStoreKeys(t, filepath.Join(shardDir, "E5", "results.jsonl"))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("seed replica %q checkpointed twice (duplicated work)", k)
		}
		seen[k] = true
	}
	plainKeys := readStoreKeys(t, filepath.Join(plainDir, "E5", "results.jsonl"))
	if len(keys) != len(plainKeys) {
		t.Fatalf("sharded adaptive run executed %d cells, plain adaptive %d", len(keys), len(plainKeys))
	}
}

// TestMergeRejectsBadUsage: the merge subcommand is gone (gatherd serves
// fleets without a shared filesystem). Every old invocation form must be
// rejected as stray arguments before anything runs — in particular a full
// old command line must not run the entire suite.
func TestMergeRejectsBadUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"missing out", []string{"merge", "sweepA"}},
		{"no sources", []string{"merge", "-out", "merged"}},
		{"source without store", []string{"merge", "-out", "merged", "sweepA", "sweepB"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if want := fmt.Sprintf("unexpected arguments: %v", tc.args); err == nil || err.Error() != want {
				t.Fatalf("run(%v) = %v, want %q", tc.args, err, want)
			}
			if out.Len() != 0 {
				t.Fatalf("run(%v) printed tables:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestSweepDefaultsPinned documents the intentional difference between the
// sweep budget (this command, experiments.DefaultMaxEvents) and the
// interactive single-run budget (gathersim, sim.DefaultMaxEvents): drifting
// either is a conscious decision, not an accident.
func TestSweepDefaultsPinned(t *testing.T) {
	// defaultMaxEvents is declared as experiments.DefaultMaxEvents; pinning
	// the value here makes changing either side a conscious decision.
	if defaultMaxEvents != 150000 {
		t.Fatalf("gatherbench default budget = %d, want experiments.DefaultMaxEvents (150000)", defaultMaxEvents)
	}
	if experiments.DefaultMaxEvents != 150000 {
		t.Fatalf("experiments.DefaultMaxEvents = %d, want 150000", experiments.DefaultMaxEvents)
	}
	if sim.DefaultMaxEvents != 200000 {
		t.Fatalf("sim.DefaultMaxEvents = %d, want 200000", sim.DefaultMaxEvents)
	}
}

// livelockStore builds a sweep store holding one certified livelocked cell
// (the known round-robin-lag cycle) and one healthy cell, and returns the
// store directory and the livelocked cell's key.
func livelockStore(t *testing.T) (string, string) {
	t.Helper()
	ll := engine.Cell{
		Workload:      workload.KindNestedHulls,
		N:             6,
		WorkloadSeed:  1,
		Adversary:     adversary.NameRoundRobinLag,
		AdversarySeed: 1,
		MaxEvents:     30000,
	}
	healthy := engine.Cell{
		Workload:     workload.KindClustered,
		N:            3,
		WorkloadSeed: 1,
		MaxEvents:    30000,
	}
	cells := []engine.Cell{ll, healthy}
	results := engine.Run(cells, engine.Options{})
	if results[0].Err != nil || results[0].Result.LivelockTrace == nil {
		t.Fatalf("setup needs a certified livelock: err=%v trace=%v",
			results[0].Err, results[0].Result.LivelockTrace != nil)
	}
	dir := t.TempDir()
	st, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if err := st.Append(cell.Key(), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	return dir, ll.Key()
}

// TestLivelocksSubcommand drives the extraction path end to end: the
// subcommand lists the certified cell (and only it), writes its snippet, and
// the snippet decodes into a valid replayable trace.
func TestLivelocksSubcommand(t *testing.T) {
	dir, key := livelockStore(t)
	traces := t.TempDir()

	var out strings.Builder
	if err := run([]string{"livelocks", "-out", traces, dir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, key) {
		t.Fatalf("listing misses the livelocked key %q:\n%s", key, got)
	}
	if !strings.Contains(got, "1 livelocked cell(s)") {
		t.Fatalf("expected exactly one livelocked cell:\n%s", got)
	}
	path := filepath.Join(traces, "livelock-000.json")
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
		t.Fatalf("extracted snippet invalid: %v", err)
	}
	if tr.N != 6 || tr.Len() == 0 {
		t.Fatalf("snippet n=%d frames=%d", tr.N, tr.Len())
	}

	// The source store must survive untouched (read-only scan), and the
	// subcommand must also discover stores one directory below (the shape a
	// gatherbench -out directory has).
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Fatalf("source store was disturbed: %v", err)
	}
	parent := t.TempDir()
	sub := filepath.Join(parent, "E13")
	if err := os.Rename(dir, sub); err != nil {
		t.Fatal(err)
	}
	var nested strings.Builder
	if err := run([]string{"livelocks", parent}, &nested); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nested.String(), "1 livelocked cell(s)") {
		t.Fatalf("nested discovery failed:\n%s", nested.String())
	}
}

// TestLivelocksRejectsBadUsage covers the livelocks subcommand's own errors.
func TestLivelocksRejectsBadUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no sources", []string{"livelocks"}, "no sweep directories"},
		{"source without store", []string{"livelocks", t.TempDir()}, "holds no sweep store"},
		{"missing source", []string{"livelocks", filepath.Join(t.TempDir(), "nope")}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %v does not contain %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunAdversaryAndFaultFlags drives the robustness flags end to end: the
// adversary override and each fault knob must change the E5 table (and the
// run must succeed), while an explicit fair override matches the fair spec.
func TestRunAdversaryAndFaultFlags(t *testing.T) {
	base := []string{"-only", "E5", "-seeds", "1", "-max-events", "800"}
	outputs := make(map[string]string)
	for name, extra := range map[string][]string{
		"default":      nil,
		"greedy-stall": {"-adversary", "greedy-stall"},
		"crash":        {"-crash", "2"},
		"noise":        {"-adversary", "fair", "-noise", "0.3"},
		"trunc":        {"-adversary", "fair+trunc=0.5"},
	} {
		var out strings.Builder
		if err := run(append(append([]string{}, base...), extra...), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "== E5:") {
			t.Fatalf("%s: table missing:\n%s", name, out.String())
		}
		outputs[name] = out.String()
	}
	for name, got := range outputs {
		if name == "default" {
			continue
		}
		if got == outputs["default"] {
			t.Fatalf("%s: override did not change the E5 table", name)
		}
	}
}

// elapsedNsRe matches the wall-clock elapsed_ns field of a store record, the
// only byte sequence legitimately differing between two otherwise identical
// runs.
var elapsedNsRe = regexp.MustCompile(`"elapsed_ns":\d+`)

// TestTelemetryDoesNotPerturbResults pins the one-way telemetry contract end
// to end: a run with telemetry fully enabled (-telemetry-out snapshot and a
// live -http server scraping its own registry) renders byte-identical tables
// and a byte-identical sweep store — modulo the wall-clock elapsed_ns field —
// compared to a telemetry-off run of the same cells. E13 at this budget also
// crosses the livelock-certification path, so the certified-outcome counters
// are exercised, not just the happy path.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plainDir, telDir := t.TempDir(), t.TempDir()
	telFile := filepath.Join(t.TempDir(), "telemetry.json")
	base := []string{"-only", "E13", "-seeds", "1", "-max-events", "2500"}

	var plain strings.Builder
	if err := run(append(append([]string{}, base...), "-out", plainDir), &plain); err != nil {
		t.Fatal(err)
	}

	var tel strings.Builder
	telArgs := append(append([]string{}, base...),
		"-out", telDir, "-telemetry-out", telFile, "-http", "127.0.0.1:0")
	if err := run(telArgs, &tel); err != nil {
		t.Fatal(err)
	}

	if plain.String() != tel.String() {
		t.Fatalf("tables differ under telemetry:\n%s\nvs\n%s", plain.String(), tel.String())
	}

	normalize := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("store not written: %v", err)
		}
		return elapsedNsRe.ReplaceAllString(string(data), `"elapsed_ns":0`)
	}
	a := normalize(filepath.Join(plainDir, "E13", "results.jsonl"))
	b := normalize(filepath.Join(telDir, "E13", "results.jsonl"))
	if a != b {
		t.Fatalf("store bytes differ under telemetry (beyond elapsed_ns)")
	}

	// The snapshot itself must be a real observation of the run, not an empty
	// shell: the simulator counts events, and E13 certifies livelocks.
	snap, err := os.ReadFile(telFile)
	if err != nil {
		t.Fatalf("-telemetry-out not written: %v", err)
	}
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(snap, &decoded); err != nil {
		t.Fatalf("telemetry snapshot is not valid JSON: %v", err)
	}
	for _, name := range []string{
		"fatgather_sim_events_total",
		"fatgather_sweep_cells_executed_total",
	} {
		if decoded.Counters[name] == 0 {
			t.Fatalf("telemetry snapshot counter %s is zero or missing:\n%s", name, snap)
		}
	}
}

// TestTelemetryFlagValidation covers the telemetry flag error paths.
func TestTelemetryFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-http-linger", "5s"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-http-linger requires -http") {
		t.Fatalf("lone -http-linger not rejected: %v", err)
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-http-linger", "-1s"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-http-linger must be non-negative") {
		t.Fatalf("negative -http-linger not rejected: %v", err)
	}
}
