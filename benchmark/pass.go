package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// runResult is what one run phase did: it simulated every cell of the
// workload.
type runResult struct {
	cells  int
	events int64
	failed int64
	// digest hashes the key, outcome, event count and final positions of
	// every cell.
	digest uint64

	wall           time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	// cellElapsed is each cell's time inside its engine worker.
	cellElapsed            []time.Duration
	cacheHits, cacheMisses int64
}

// runPhase simulates every cell of the workload, checkpointing each result
// into a fresh store in dir when the workload asks for it, and removes dir.
// A non-nil tracer runs the phase under the timing decorators.
func runPhase(w *workloadSpec, dir string, workers int, tr *tracer) (p runResult, results []engine.CellResult, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, nil, fmt.Errorf("create run dir: %w", err)
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("remove run dir: %w", rerr)
		}
	}()
	p.cells = len(w.cells)

	cells := w.cells
	cache := workload.NewCache()
	gen := engine.WorkloadFunc(cache.Generate)
	if tr != nil {
		cells = tr.timedCells(cells)
		gen = tr.timedWorkloads(gen)
	}
	eopts := engine.Options{Workers: workers, Workloads: gen}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if w.checkpoint {
		if results, err = checkpointedRun(cells, eopts, filepath.Join(dir, "checkpoint")); err != nil {
			return p, nil, err
		}
	} else {
		results = engine.Run(cells, eopts)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.cacheHits, p.cacheMisses = cache.Stats()
	if tr != nil {
		tr.enginePass.add(p.wall)
	}

	h := fnv.New64a()
	for i, r := range results {
		if cellFailed(r) {
			p.failed++
		}
		p.events += int64(r.Result.Events)
		p.cellElapsed = append(p.cellElapsed, r.Elapsed)
		hashResult(h, w.keys[i], r.Result)
	}
	p.digest = h.Sum64()
	return p, results, nil
}

// storeResult is what one store phase did: it appended one record per store
// key into a fresh store, reopened the store and restored every cell.
type storeResult struct {
	records                int
	appendWall, resumeWall time.Duration
	mallocs                uint64
	failed                 int64
	// digest hashes the key, outcome, event count and final positions of
	// every restored record.
	digest uint64
}

// storeInput is what a store phase writes: the run phase's results and, for
// each, the canonical hash its restored records must have.
type storeInput struct {
	results []engine.CellResult
	want    []uint64
}

func newStoreInput(results []engine.CellResult) storeInput {
	want := make([]uint64, len(results))
	for j, r := range results {
		want[j] = canonical(r.Result, r.Err, 0)
	}
	return storeInput{results: results, want: want}
}

// checkpointedRun runs the cells through sweep.Run with a fresh filesystem
// store that checkpoints every result as its worker finishes, the path of
// gatherbench -out.
func checkpointedRun(cells []engine.Cell, eopts engine.Options, dir string) ([]engine.CellResult, error) {
	store, err := sweep.Open(dir)
	if err != nil {
		return nil, err
	}
	results, stats := sweep.Run(cells, sweep.Options{Engine: eopts, Store: store})
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close checkpoint store: %w", err)
	}
	if stats.AppendErrs > 0 {
		return nil, fmt.Errorf("%d checkpoint appends failed", stats.AppendErrs)
	}
	return results, nil
}

// storePhase appends one record per store key into a fresh store in dir,
// reopens the store and restores every cell through sweep.Run, checks each
// restored record against the result it was written from, and removes dir.
func storePhase(w *workloadSpec, in storeInput, dir string, workers int, tr *tracer) (s storeResult, err error) {
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = fmt.Errorf("remove store dir: %w", rerr)
		}
	}()
	s.records = len(w.storeCells)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := appendRecords(w, in.results, dir, tr); err != nil {
		return s, err
	}
	s.appendWall = time.Since(start)
	start = time.Now()
	restored, err := restoreRecords(w, dir, workers, tr)
	if err != nil {
		return s, err
	}
	s.resumeWall = time.Since(start)
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs

	h := fnv.New64a()
	for i, r := range restored {
		if canonical(r.Result, r.Err, r.Elapsed) != in.want[i%len(in.want)] {
			s.failed++
		}
		hashResult(h, w.storeKeys[i], r.Result)
	}
	s.digest = h.Sum64()
	return s, nil
}

// appendRecords writes record i, the result of run cell i % len(results),
// under store key i into a fresh store. Records carry a zero elapsed time,
// so their bytes depend on the seed alone.
func appendRecords(w *workloadSpec, results []engine.CellResult, dir string, tr *tracer) error {
	store, err := openStore(dir, tr.appendBackend())
	if err != nil {
		return err
	}
	for i, key := range w.storeKeys {
		src := results[i%len(results)]
		rec := engine.CellResult{Index: i, Cell: w.storeCells[i], Result: src.Result, Err: src.Err}
		start := time.Now()
		if err := store.Append(key, rec); err != nil {
			_ = store.Close()
			return err
		}
		tr.appended(time.Since(start))
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("close appended store: %w", err)
	}
	return nil
}

// restoreRecords reopens the store and restores every store cell through
// sweep.Run; every cell must come from the store, none may be simulated.
func restoreRecords(w *workloadSpec, dir string, workers int, tr *tracer) ([]engine.CellResult, error) {
	start := time.Now()
	store, err := openStore(dir, tr.readBackend())
	if err != nil {
		return nil, err
	}
	tr.opened(time.Since(start))
	restored, stats := sweep.Run(w.storeCells, sweep.Options{Engine: engine.Options{Workers: workers}, Store: store})
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close restored store: %w", err)
	}
	if stats.Executed != 0 {
		return nil, fmt.Errorf("%d of %d records were not restored", stats.Executed, len(w.storeCells))
	}
	return restored, nil
}

// openStore opens the sweep store in dir: through sweep.Open, or through
// sweep.OpenBackend over a decorated FSBackend when wrap is non-nil.
func openStore(dir string, wrap func(sweep.Backend) sweep.Backend) (*sweep.Store, error) {
	if wrap == nil {
		return sweep.Open(dir)
	}
	b, err := sweep.NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	s, err := sweep.OpenBackend(wrap(b))
	if err != nil {
		_ = b.Close()
		return nil, err
	}
	return s, nil
}

// cellFailed reports a cell that errored, ended with a final configuration
// that is not a valid one of its robots, or claims a gathering its final
// configuration does not satisfy.
func cellFailed(r engine.CellResult) bool {
	res := r.Result
	if r.Err != nil || res.Err != nil || res.Outcome == sim.OutcomeError || len(res.Final) != r.Cell.N {
		return true
	}
	if res.Final.Validate() != nil {
		return true
	}
	m := r.Cell.Vision
	if m == nil {
		m = vision.Default
	}
	return res.Gathered() && !res.Final.Gathered(m)
}

// hashResult folds a cell into a digest: its key, outcome, event count and
// the exact bits of every final position.
func hashResult(h hash.Hash64, key string, r sim.Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(key))
	put(uint64(r.Outcome))
	put(uint64(r.Events))
	for _, c := range r.Final {
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
	}
}

// canonical hashes the JSON encoding of a result with its error texts and
// elapsed time: a restored record equals the result it was written from
// exactly when the hashes are equal. An empty state-visit map counts as
// absent, since the store's encoding omits it.
func canonical(r sim.Result, err error, elapsed time.Duration) uint64 {
	rec := struct {
		Result    sim.Result
		ResultErr string
		Err       string
		Elapsed   time.Duration
	}{r, errText(r.Err), errText(err), elapsed}
	rec.Result.Err = nil
	if len(rec.Result.StateVisits) == 0 {
		rec.Result.StateVisits = nil
	}
	data, jerr := json.Marshal(rec)
	if jerr != nil {
		// Store.Append fails on the same value first, so no written record
		// reaches this comparison.
		return 0
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameVec reports whether two points are equal bit for bit.
func sameVec(a, b geom.Vec) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// sameCenters reports whether two configurations are equal bit for bit.
func sameCenters(a, b []geom.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVec(a[i], b[i]) {
			return false
		}
	}
	return true
}
