package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// smallCells is a fast heterogeneous batch for store tests.
func smallCells(seeds int) []engine.Cell {
	return engine.Batch{
		Workloads:   []workload.Kind{workload.KindClustered, workload.KindRing},
		Ns:          []int{3, 4},
		Adversaries: []string{"random-async", "stop-happy"},
		Seeds:       seeds,
		MaxEvents:   400,
	}.Cells()
}

// sameResult compares two cell results through the store's own JSON encoding,
// which is exactly the fidelity the resume contract promises (errors compare
// by message).
func sameResult(t *testing.T, label string, a, b engine.CellResult) {
	t.Helper()
	if (a.Err == nil) != (b.Err == nil) {
		t.Fatalf("%s: err %v vs %v", label, a.Err, b.Err)
	}
	if a.Err != nil && a.Err.Error() != b.Err.Error() {
		t.Fatalf("%s: err %q vs %q", label, a.Err, b.Err)
	}
	ja, err := json.Marshal(toResultRecord(a.Result))
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	jb, err := json.Marshal(toResultRecord(b.Result))
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: results differ:\n%s\nvs\n%s", label, ja, jb)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells, engine.Options{})

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := st.Append(cells[i].Key(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st.Done() != len(cells) {
		t.Fatalf("Done = %d, want %d", st.Done(), len(cells))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Warnings()) != 0 {
		t.Fatalf("clean store produced warnings: %v", re.Warnings())
	}
	if re.Done() != len(cells) {
		t.Fatalf("reloaded Done = %d, want %d", re.Done(), len(cells))
	}
	for i, c := range cells {
		got, ok := re.Lookup(c.Key())
		if !ok {
			t.Fatalf("cell %d [%s] missing after reload", i, c.Key())
		}
		sameResult(t, c.Key(),
			engine.CellResult{Result: got.Result, Err: got.Err}, results[i])
		if got.Elapsed != results[i].Elapsed {
			t.Fatalf("cell %d elapsed %v vs %v", i, got.Elapsed, results[i].Elapsed)
		}
	}
}

func TestStoreSkipsCorruptLines(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:3], engine.Options{})
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := st.Append(cells[i].Key(), r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Corrupt the middle line.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{\"schema\":1,\"key\":garbage\n"
	if err := os.WriteFile(st.Path(), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Done() != 2 {
		t.Fatalf("Done = %d after corruption, want 2", re.Done())
	}
	warns := re.Warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "corrupt") {
		t.Fatalf("expected one corrupt-line warning, got %v", warns)
	}
	// The skipped cell is simply missing, so a resume re-runs it.
	if _, ok := re.Lookup(cells[1].Key()); ok {
		t.Fatal("corrupt record should not resolve")
	}
	// The file was compacted: reopening is clean.
	re.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if len(again.Warnings()) != 0 || again.Done() != 2 {
		t.Fatalf("compacted store not clean: %d done, warnings %v", again.Done(), again.Warnings())
	}
}

func TestStoreTruncatedTrailingLine(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:2], engine.Options{})
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := st.Append(cells[i].Key(), r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Simulate a kill mid-write: cut the file in the middle of the last line.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(), data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Done() != 1 {
		t.Fatalf("Done = %d after truncation, want 1", re.Done())
	}
	if len(re.Warnings()) == 0 {
		t.Fatal("expected a warning for the truncated line")
	}
	// Appending after compaction must yield a well-formed file.
	if err := re.Append(cells[1].Key(), results[1]); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if len(again.Warnings()) != 0 || again.Done() != 2 {
		t.Fatalf("store not clean after truncate+append: %d done, warnings %v", again.Done(), again.Warnings())
	}
}

func TestStoreSchemaMismatchForcesCleanRerun(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:2], engine.Options{})
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := st.Append(cells[i].Key(), r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Rewrite the first record as if produced by an older engine.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), engine.Version, "fatgather-engine/0", 1)
	if mutated == string(data) {
		t.Fatal("test setup: engine version not found in store file")
	}
	if err := os.WriteFile(st.Path(), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Done() != 0 {
		t.Fatalf("Done = %d after version mismatch, want 0 (clean re-run)", re.Done())
	}
	warns := re.Warnings()
	if len(warns) == 0 || !strings.Contains(warns[0], "mismatch") {
		t.Fatalf("expected mismatch warning, got %v", warns)
	}
	// The stale file was discarded on disk too.
	data, err = os.ReadFile(re.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("stale store file not discarded: %d bytes remain", len(data))
	}
}

func TestStoreReset(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:1], engine.Options{})
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(cells[0].Key(), results[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if st.Done() != 0 {
		t.Fatalf("Done = %d after Reset, want 0", st.Done())
	}
	if _, ok := st.Lookup(cells[0].Key()); ok {
		t.Fatal("Lookup succeeded after Reset")
	}
	if err := st.Append(cells[0].Key(), results[0]); err != nil {
		t.Fatal(err)
	}
	if st.Done() != 1 {
		t.Fatalf("Done = %d after re-append, want 1", st.Done())
	}
}

func TestStoreErroredCellRoundTrip(t *testing.T) {
	bad := engine.Cell{Workload: "bogus", N: 3, MaxEvents: 10}
	res := engine.Run([]engine.Cell{bad}, engine.Options{})
	if res[0].Err == nil {
		t.Fatal("expected an error result")
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(bad.Key(), res[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Lookup(bad.Key())
	if !ok {
		t.Fatal("errored cell not stored")
	}
	if got.Err == nil || got.Err.Error() != res[0].Err.Error() {
		t.Fatalf("error round-trip: %v vs %v", got.Err, res[0].Err)
	}
}

// TestStoreReloadIncremental pins Reload's tail-reading contract: records a
// peer appends are merged without re-parsing the whole file, a torn trailing
// line is left for the next Reload (and consumed once completed), and a
// compaction underneath resets the scan.
func TestStoreReloadIncremental(t *testing.T) {
	cells := smallCells(1)
	results := engine.Run(cells[:4], engine.Options{})
	dir := t.TempDir()

	mine, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Close()
	peer, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	if err := peer.Append(cells[0].Key(), results[0]); err != nil {
		t.Fatal(err)
	}
	if fresh, err := mine.Reload(); err != nil || fresh != 1 {
		t.Fatalf("first Reload: fresh=%d err=%v, want 1", fresh, err)
	}
	if fresh, err := mine.Reload(); err != nil || fresh != 0 {
		t.Fatalf("idempotent Reload: fresh=%d err=%v, want 0", fresh, err)
	}

	// A peer's append in flight: write only half of the next record's line.
	full, err := os.ReadFile(mine.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Append(cells[1].Key(), results[1]); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(mine.Path())
	if err != nil {
		t.Fatal(err)
	}
	line := grown[len(full):]
	if err := os.WriteFile(mine.Path(), append(full, line[:len(line)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh, err := mine.Reload(); err != nil || fresh != 0 {
		t.Fatalf("torn-tail Reload: fresh=%d err=%v, want 0 (line incomplete)", fresh, err)
	}
	// The append completes: the record is consumed exactly once.
	if err := os.WriteFile(mine.Path(), grown, 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh, err := mine.Reload(); err != nil || fresh != 1 {
		t.Fatalf("completed-tail Reload: fresh=%d err=%v, want 1", fresh, err)
	}
	if _, ok := mine.Lookup(cells[1].Key()); !ok {
		t.Fatal("completed record not merged")
	}

	// A shrink (exclusive compaction/reset underneath) triggers a rescan.
	if err := os.WriteFile(mine.Path(), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh, err := mine.Reload(); err != nil || fresh != 0 {
		t.Fatalf("post-shrink Reload: fresh=%d err=%v, want 0 (all known)", fresh, err)
	}
}

// readOnlyCells is a small grid for the read-only opener tests.
func readOnlyCells(t *testing.T) []engine.Cell {
	t.Helper()
	var cells []engine.Cell
	for seed := int64(1); seed <= 4; seed++ {
		cells = append(cells, engine.Cell{
			Workload: workload.KindClustered, N: 3, WorkloadSeed: seed,
			Adversary: "fair", AdversarySeed: seed, MaxEvents: 500,
		})
	}
	return cells
}

// runInto runs cells solo into a fresh store at dir.
func runInto(t *testing.T, dir string, cells []engine.Cell) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, stats := Run(cells, Options{Store: st}); stats.AppendErrs > 0 {
		t.Fatalf("%d append errors", stats.AppendErrs)
	}
}

func TestOpenReadOnlyDoesNotCompactOrAppend(t *testing.T) {
	dir := t.TempDir()
	runInto(t, dir, readOnlyCells(t)[:1])
	// Corrupt trailing line: an exclusive Open would compact it away.
	path := filepath.Join(dir, resultsFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() != 1 {
		t.Fatalf("read-only store loaded %d cells, want 1", st.Done())
	}
	if err := st.Append("x", engine.CellResult{}); err == nil {
		t.Fatal("read-only store accepted an append")
	}
	warned := false
	for _, w := range st.Warnings() {
		if strings.Contains(w, "corrupt") {
			warned = true
		}
	}
	if !warned {
		t.Fatal("corrupt line produced no warning")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("OpenReadOnly modified the store file")
	}
}

func TestStoreKeysSortedAndComplete(t *testing.T) {
	dir := t.TempDir()
	cells := readOnlyCells(t)
	runInto(t, dir, cells)
	st, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := st.Keys()
	if len(keys) != len(cells) {
		t.Fatalf("%d keys, want %d", len(keys), len(cells))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %q before %q", keys[i-1], keys[i])
		}
	}
	for _, c := range cells {
		if _, ok := st.Lookup(c.Key()); !ok {
			t.Fatalf("key %q missing", c.Key())
		}
	}
}
