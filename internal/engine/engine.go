package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// Telemetry (internal/obs): write-only handles, one-way contract — the
// engine records pool activity but never reads telemetry back, so batch
// results stay bit-identical with telemetry on or off. Per-cell granularity
// (one histogram observation and a few atomic adds per cell) is far off the
// per-event hot path.
var (
	obsCellsStarted   = obs.NewCounter("fatgather_engine_cells_started_total")
	obsCellsCompleted = obs.NewCounter("fatgather_engine_cells_completed_total")
	obsCellErrors     = obs.NewCounter("fatgather_engine_cell_errors_total")
	obsCellSeconds    = obs.NewHistogram("fatgather_engine_cell_seconds")
	obsCellsInflight  = obs.NewGauge("fatgather_engine_cells_inflight")
	obsQueueDepth     = obs.NewGauge("fatgather_engine_queue_depth")
	obsWorkers        = obs.NewGauge("fatgather_engine_workers")
)

// DefaultAdversary is the adversary used when a Cell does not name one.
const DefaultAdversary = "random-async"

// Version identifies the simulation semantics of this engine build. Persistent
// result stores (internal/sweep) record it with every checkpointed cell and
// force a clean re-run on mismatch; bump it whenever a change makes previously
// stored results non-reproducible (algorithm, adversary, geometry or seed
// derivation changes).
// /3: livelock certification (sim/livelock.go) ends zero-progress runs
// early with OutcomeLivelocked, so any stored run longer than the detection
// window is no longer reproduced event-for-event by the current engine.
const Version = "fatgather-engine/3"

// Cell is one independent simulation: a fully self-contained specification
// whose result depends only on its own fields, never on the surrounding
// batch or on scheduling.
type Cell struct {
	// Workload and N select the generated initial placement; ignored when
	// Initial is non-nil.
	Workload workload.Kind
	N        int
	// WorkloadSeed drives the placement generator.
	WorkloadSeed int64
	// Initial, when non-nil, is used verbatim as the initial configuration.
	Initial config.Geometric
	// Algorithm is the local algorithm; nil means the paper's algorithm.
	// Algorithm implementations must be stateless (all built-ins are), since
	// a single value may be shared by many concurrent cells.
	Algorithm sim.Algorithm
	// Adversary names a base adversary strategy (adversary.Names); "" means
	// DefaultAdversary. The strategy instance is constructed per cell from
	// AdversarySeed.
	Adversary     string
	AdversarySeed int64
	// Crash, Noise and Trunc are the cell's fault-injection knobs (see
	// adversary.Spec): crash-stopped robot count, sensor noise radius and
	// movement truncation fraction. All zero means the fault-free adversary,
	// whose cell key — and therefore stored sweep identity — is unchanged
	// from pre-fault builds.
	Crash int
	Noise float64
	Trunc float64
	// Delta, MaxEvents, SnapshotEvery and StopWhenGathered are forwarded to
	// sim.Options.
	Delta            float64
	MaxEvents        int
	SnapshotEvery    int
	StopWhenGathered bool
	// Vision overrides the visibility model; nil means vision.Default.
	Vision *vision.Model
}

// AlgorithmName returns the report name of the cell's algorithm.
func (c Cell) AlgorithmName() string {
	if c.Algorithm == nil {
		return sim.PaperAlgorithm{}.Name()
	}
	return c.Algorithm.Name()
}

// AdversaryName returns the effective base adversary strategy name (without
// fault decorations; see AdversaryLabel for the full spec string).
func (c Cell) AdversaryName() string {
	if c.Adversary == "" {
		return DefaultAdversary
	}
	return c.Adversary
}

// AdversarySpec returns the cell's full adversary description — base
// strategy plus fault knobs — in normalized form (the "crash" strategy's
// implicit Crash=1 made explicit), so equal adversaries always produce equal
// specs, labels and keys regardless of how the cell was built.
func (c Cell) AdversarySpec() adversary.Spec {
	spec := adversary.Spec{Strategy: c.AdversaryName(), Crash: c.Crash, Noise: c.Noise, Trunc: c.Trunc}
	return spec.Normalized()
}

// AdversaryLabel returns the canonical spec string of the cell's adversary
// ("crash(2)", "fair+noise=0.1"); equal to AdversaryName for fault-free
// cells. Reports use it to label robustness rows.
func (c Cell) AdversaryLabel() string { return c.AdversarySpec().String() }

// Key returns the canonical identity string of the cell: every field that
// influences the cell's result is folded in (explicit initial configurations
// and custom vision models contribute a stable fingerprint). Two cells with
// equal keys produce bit-identical results, which is what makes the key usable
// as the resume identity in persistent sweep stores.
func (c Cell) Key() string {
	var b strings.Builder
	if c.Initial != nil {
		fmt.Fprintf(&b, "init=%s|n=%d", initialFingerprint(c.Initial), len(c.Initial))
	} else {
		fmt.Fprintf(&b, "wk=%s|n=%d|ws=%d", c.Workload, c.N, c.WorkloadSeed)
	}
	fmt.Fprintf(&b, "|alg=%s|adv=%s|as=%d|delta=%g|me=%d|snap=%d|stop=%t",
		c.AlgorithmName(), c.AdversaryName(), c.AdversarySeed,
		c.Delta, c.MaxEvents, c.SnapshotEvery, c.StopWhenGathered)
	// Fault knobs are appended only when set, so fault-free cells keep their
	// historic keys and stored sweeps stay resumable across this addition.
	// The normalized spec supplies the values, so Cell{Adversary: "crash"}
	// (implicit Crash=1) and its explicit Crash=1 twin share one identity.
	spec := c.AdversarySpec()
	if spec.Crash != 0 {
		fmt.Fprintf(&b, "|crash=%d", spec.Crash)
	}
	if spec.Noise != 0 {
		fmt.Fprintf(&b, "|noise=%g", spec.Noise)
	}
	if spec.Trunc != 0 {
		fmt.Fprintf(&b, "|trunc=%g", spec.Trunc)
	}
	if c.Vision != nil {
		fmt.Fprintf(&b, "|vis=%s", c.Vision.Fingerprint())
	}
	return b.String()
}

// initialFingerprint hashes an explicit initial configuration (exact float
// bits, order-sensitive) into a short stable identifier for cell keys.
func initialFingerprint(cfg config.Geometric) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range cfg {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.X))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Y))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Validate checks the cell specification without running it: the workload
// kind must be known and N positive (unless an explicit Initial is given),
// the adversary must exist, and the numeric knobs must be non-negative.
// Run reports the same conditions, but only from inside a worker; Validate
// lets a batch be rejected up front with errors that name the bad cell.
func (c Cell) Validate() error {
	if c.Initial == nil {
		known := false
		for _, k := range workload.Kinds() {
			if c.Workload == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown workload kind %q", c.Workload)
		}
		if c.N < 1 {
			return fmt.Errorf("N must be at least 1, got %d", c.N)
		}
	} else if len(c.Initial) == 0 {
		return fmt.Errorf("empty initial configuration")
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("MaxEvents must be non-negative, got %d", c.MaxEvents)
	}
	if c.Delta < 0 {
		return fmt.Errorf("Delta must be non-negative, got %g", c.Delta)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("SnapshotEvery must be non-negative, got %d", c.SnapshotEvery)
	}
	if err := c.AdversarySpec().Validate(); err != nil {
		return err
	}
	return nil
}

// ValidateCells validates an expanded batch up front and returns a single
// error naming every offending cell by index and key (nil when all cells are
// valid).
func ValidateCells(cells []Cell) error {
	var bad []string
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("cell %d [%s]: %v", i, c.Key(), err))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("engine: invalid cells:\n  %s", strings.Join(bad, "\n  "))
}

// WorkloadFunc generates the initial placement for a (kind, n, seed) triple.
// It must be deterministic in its arguments and safe for concurrent use;
// workload.Generate is the reference implementation, and workload.Cache
// provides a memoizing one.
type WorkloadFunc func(kind workload.Kind, n int, seed int64) (config.Geometric, error)

// Run executes the cell sequentially in the calling goroutine. This is the
// reference (sequential) semantics that the parallel engine must reproduce
// bit-identically.
func (c Cell) Run() (sim.Result, error) {
	return c.runWith(workload.Generate)
}

// runWith is Run with a pluggable workload generator (the engine wires
// Options.Workloads through here).
func (c Cell) runWith(gen WorkloadFunc) (sim.Result, error) {
	initial := c.Initial
	if initial == nil {
		var err error
		initial, err = gen(c.Workload, c.N, c.WorkloadSeed)
		if err != nil {
			return sim.Result{}, fmt.Errorf("engine: cell workload: %w", err)
		}
	}
	strat, err := adversary.New(c.AdversarySpec(), c.AdversarySeed)
	if err != nil {
		return sim.Result{}, fmt.Errorf("engine: %w", err)
	}
	return sim.Run(initial, sim.Options{
		Algorithm:        c.Algorithm,
		Strategy:         strat,
		Vision:           c.Vision,
		Delta:            c.Delta,
		MaxEvents:        c.MaxEvents,
		SnapshotEvery:    c.SnapshotEvery,
		StopWhenGathered: c.StopWhenGathered,
	})
}

// CellResult pairs a cell with its simulation result.
type CellResult struct {
	// Index is the cell's position in the batch (results are always reported
	// in index order).
	Index int
	Cell  Cell
	// Result is the simulation outcome (zero when Err is non-nil).
	Result sim.Result
	// Err reports a cell that could not run (bad workload or adversary).
	Err error
	// Elapsed is the wall-clock time this cell took inside its worker.
	Elapsed time.Duration
}

// Options configures a batch execution.
type Options struct {
	// Workers is the size of the worker pool; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnResult, when non-nil, is invoked once per cell in strictly increasing
	// Index order as results become available (a streaming collector). It runs
	// on the goroutine that called Run, so it needs no locking.
	OnResult func(CellResult)
	// Workloads, when non-nil, replaces workload.Generate as the initial
	// placement generator for cells without an explicit Initial. It must be
	// deterministic and concurrency-safe (see WorkloadFunc); a memoizing
	// workload.Cache avoids regenerating identical placements across the
	// adversary and algorithm axes of a batch.
	Workloads WorkloadFunc
}

func (o Options) workers(ncells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > ncells {
		w = ncells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every cell on a worker pool and returns the results in cell
// order. Results are bit-identical for any worker count, because each cell's
// randomness is self-contained.
//
// The expanded batch is validated up front: invalid cells (unknown workload
// kind or adversary, N < 1, negative MaxEvents/Delta) never reach a worker
// and instead report a CellResult.Err naming the offending cell's key.
func Run(cells []Cell, opts Options) []CellResult {
	n := len(cells)
	results := make([]CellResult, n)
	if n == 0 {
		return results
	}
	gen := opts.Workloads
	if gen == nil {
		gen = workload.Generate
	}
	valid := make([]int, 0, n)
	invalid := make([]int, 0)
	for i := range cells {
		if err := cells[i].Validate(); err != nil {
			results[i] = CellResult{
				Index: i,
				Cell:  cells[i],
				Err:   fmt.Errorf("engine: invalid cell [%s]: %w", cells[i].Key(), err),
			}
			obsCellErrors.Inc()
			invalid = append(invalid, i)
			continue
		}
		valid = append(valid, i)
	}
	workers := opts.workers(n)
	// Pool-shape gauges: utilization is cells_inflight / workers; queue depth
	// drains as workers pick cells up. Set, not Add, so the gauges describe
	// the most recent batch (concurrent batches are telemetry-racy but
	// result-safe).
	obsWorkers.Set(float64(workers))
	obsQueueDepth.Set(float64(len(valid)))

	jobs := make(chan int)
	done := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				obsQueueDepth.Add(-1)
				obsCellsStarted.Inc()
				obsCellsInflight.Add(1)
				//gatherlint:ignore nondetsource Elapsed is wall-clock telemetry; it never feeds a cell key, pinned table or stored result identity
				start := time.Now()
				res, err := cells[i].runWith(gen)
				results[i] = CellResult{
					Index:  i,
					Cell:   cells[i],
					Result: res,
					Err:    err,
					//gatherlint:ignore nondetsource wall-clock telemetry only (see start above)
					Elapsed: time.Since(start),
				}
				obsCellsInflight.Add(-1)
				obsCellSeconds.Observe(results[i].Elapsed.Seconds())
				if err != nil {
					obsCellErrors.Inc()
				} else {
					obsCellsCompleted.Inc()
				}
				done <- i
			}
		}()
	}
	go func() {
		for _, i := range invalid {
			done <- i // pre-filled above; the done buffer holds all n indices
		}
		for _, i := range valid {
			jobs <- i
		}
		close(jobs)
	}()

	// Deliver results to the collector in cell order as they complete; the
	// done channel gives the happens-before edge for reading results[i].
	ready := make([]bool, n)
	next := 0
	for received := 0; received < n; received++ {
		i := <-done
		ready[i] = true
		for next < n && ready[next] {
			if opts.OnResult != nil {
				opts.OnResult(results[next])
			}
			next++
		}
	}
	wg.Wait()
	return results
}

// Batch is a declarative specification of a cell grid: the cross product of
// algorithms, workloads, robot counts, adversaries and a seed range.
type Batch struct {
	// Workloads defaults to {clustered}.
	Workloads []workload.Kind
	// Ns defaults to {8}.
	Ns []int
	// Adversaries defaults to {DefaultAdversary}. Entries are adversary spec
	// strings (adversary.ParseSpec), so fault decorations ride along in the
	// grid: "fair", "crash(2)", "random-async+noise=0.1".
	Adversaries []string
	// Algorithms defaults to {nil} (the paper's algorithm).
	Algorithms []sim.Algorithm
	// Seeds is the number of seeds per (algorithm, workload, n, adversary)
	// point; default 5. Workload seeds are SeedStart, SeedStart+1, ...
	Seeds int
	// SeedStart defaults to 1.
	SeedStart int64
	// Per-run knobs forwarded to every cell.
	Delta            float64
	MaxEvents        int
	SnapshotEvery    int
	StopWhenGathered bool
	Vision           *vision.Model
}

func (b Batch) withDefaults() Batch {
	if len(b.Workloads) == 0 {
		b.Workloads = []workload.Kind{workload.KindClustered}
	}
	if len(b.Ns) == 0 {
		b.Ns = []int{8}
	}
	if len(b.Adversaries) == 0 {
		b.Adversaries = []string{DefaultAdversary}
	}
	if len(b.Algorithms) == 0 {
		b.Algorithms = []sim.Algorithm{nil}
	}
	if b.Seeds <= 0 {
		b.Seeds = 5
	}
	if b.SeedStart == 0 {
		b.SeedStart = 1
	}
	return b
}

// Cells expands the batch into its cell grid in deterministic order:
// algorithm (outermost), then workload, n, adversary, seed (innermost).
// Each cell's adversary seed is derived from its own coordinates with
// DeriveSeed, so cells are decorrelated yet reproducible.
func (b Batch) Cells() []Cell {
	b = b.withDefaults()
	cells := make([]Cell, 0, len(b.Algorithms)*len(b.Workloads)*len(b.Ns)*len(b.Adversaries)*b.Seeds)
	for _, alg := range b.Algorithms {
		for _, wk := range b.Workloads {
			for _, n := range b.Ns {
				for _, adv := range b.Adversaries {
					for s := 0; s < b.Seeds; s++ {
						seed := b.SeedStart + int64(s)
						cell := Cell{
							Workload:         wk,
							N:                n,
							WorkloadSeed:     seed,
							Algorithm:        alg,
							Adversary:        adv,
							Delta:            b.Delta,
							MaxEvents:        b.MaxEvents,
							SnapshotEvery:    b.SnapshotEvery,
							StopWhenGathered: b.StopWhenGathered,
							Vision:           b.Vision,
						}
						// An adversary entry may be a full spec string; split
						// it into the cell's structured fields. An unparseable
						// entry is kept verbatim so Validate reports it by
						// cell.
						if spec, err := adversary.ParseSpec(cell.AdversaryName()); err == nil {
							cell.Adversary = spec.Strategy
							cell.Crash = spec.Crash
							cell.Noise = spec.Noise
							cell.Trunc = spec.Trunc
						}
						// The label (not the bare name) feeds the seed stream,
						// so fault variants of one strategy draw decorrelated
						// schedules; for fault-free cells label == name and
						// historic seeds are preserved.
						cell.AdversarySeed = DeriveSeed(seed,
							StreamOf(string(wk), cell.AdversaryLabel(), cell.AlgorithmName()),
							int64(n))
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix with good statistical independence between nearby inputs.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives an independent RNG seed from a base
// seed and a sequence of stream coordinates. Nearby bases and streams yield
// decorrelated outputs (SplitMix64 mixing), and the result is always
// positive so downstream math/rand sources behave uniformly.
func DeriveSeed(base int64, streams ...int64) int64 {
	const gamma = 0x9e3779b97f4a7c15
	z := splitmix64(uint64(base) + gamma)
	for _, s := range streams {
		z = splitmix64(z + uint64(s)*gamma + gamma)
	}
	out := int64(z &^ (1 << 63))
	if out == 0 {
		out = 1
	}
	return out
}

// StreamOf hashes string labels (workload kind, adversary name, ...) into a
// stream coordinate for DeriveSeed. FNV-1a, stable across runs and builds.
func StreamOf(labels ...string) int64 {
	h := fnv.New64a()
	for _, l := range labels {
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{0})
	}
	return int64(h.Sum64() &^ (1 << 63))
}

// Group is an aggregated summary over the cells that share a collector key.
type Group struct {
	// Key is the collector key of the group.
	Key string
	// Sample is the first cell of the group (handy for labeling report rows).
	Sample Cell
	// Runs counts cells that produced a result; Errors counts cells that
	// failed to run at all.
	Runs   int
	Errors int
	// Rates over the successful runs.
	GatheredRate   float64
	TerminatedRate float64
	ConnectedRate  float64
	// SurvivorsGatheredRate is the fraction of successful runs whose
	// non-crashed robots satisfied the gathering goal among themselves
	// (sim.Result.SurvivorsGathered); equal to GatheredRate for fault-free
	// groups.
	SurvivorsGatheredRate float64
	// StalledRate and LivelockedRate are the fractions of successful runs
	// that ended OutcomeStalled (adversary scheduled no robot) respectively
	// OutcomeLivelocked (certified zero-progress cycle). Together with the
	// rates above they give the per-group outcome taxonomy.
	StalledRate    float64
	LivelockedRate float64
	// Distributions over the successful runs.
	Events     metrics.Summary
	Cycles     metrics.Summary
	Distance   metrics.Summary
	Collisions metrics.Summary
	Stops      metrics.Summary
	// Elapsed is the summed worker wall-clock of the group's cells.
	Elapsed time.Duration
}

// accum is the running state behind a Group.
type accum struct {
	sample       Cell
	runs         int
	errors       int
	gathered     int
	terminated   int
	connected    int
	survGathered int
	stalled      int
	livelocked   int
	events       []float64
	cycles       []float64
	distance     []float64
	collisions   []float64
	stops        []float64
	elapsed      time.Duration
}

// Collector folds streaming cell results into per-key aggregates. It is not
// safe for concurrent use; with engine.Run it never needs to be, because
// OnResult is always invoked from a single goroutine.
type Collector struct {
	keyOf  func(CellResult) string
	order  []string
	groups map[string]*accum
}

// NewCollector returns a collector that groups results by keyOf.
func NewCollector(keyOf func(CellResult) string) *Collector {
	return &Collector{keyOf: keyOf, groups: make(map[string]*accum)}
}

// Add folds one result into its group. It is the natural Options.OnResult.
func (c *Collector) Add(r CellResult) {
	key := c.keyOf(r)
	a, ok := c.groups[key]
	if !ok {
		a = &accum{sample: r.Cell}
		c.groups[key] = a
		c.order = append(c.order, key)
	}
	a.elapsed += r.Elapsed
	if r.Err != nil {
		a.errors++
		return
	}
	res := r.Result
	a.runs++
	if res.Gathered() {
		a.gathered++
	}
	if res.Outcome == sim.OutcomeAllTerminated {
		a.terminated++
	}
	if res.Outcome == sim.OutcomeStalled {
		a.stalled++
	}
	if res.Outcome == sim.OutcomeLivelocked {
		a.livelocked++
	}
	if res.ConnectedAtEnd {
		a.connected++
	}
	if res.SurvivorsGathered {
		a.survGathered++
	}
	a.events = append(a.events, float64(res.Events))
	a.cycles = append(a.cycles, float64(res.Cycles))
	a.distance = append(a.distance, res.TotalDistance)
	a.collisions = append(a.collisions, float64(res.Collisions))
	a.stops = append(a.stops, float64(res.Stops))
}

// Groups returns the aggregates in first-appearance order (which equals cell
// order, since Add is called in cell order).
func (c *Collector) Groups() []Group {
	out := make([]Group, 0, len(c.order))
	for _, key := range c.order {
		a := c.groups[key]
		g := Group{
			Key:        key,
			Sample:     a.sample,
			Runs:       a.runs,
			Errors:     a.errors,
			Events:     metrics.Summarize(a.events),
			Cycles:     metrics.Summarize(a.cycles),
			Distance:   metrics.Summarize(a.distance),
			Collisions: metrics.Summarize(a.collisions),
			Stops:      metrics.Summarize(a.stops),
			Elapsed:    a.elapsed,
		}
		if a.runs > 0 {
			g.GatheredRate = float64(a.gathered) / float64(a.runs)
			g.TerminatedRate = float64(a.terminated) / float64(a.runs)
			g.ConnectedRate = float64(a.connected) / float64(a.runs)
			g.SurvivorsGatheredRate = float64(a.survGathered) / float64(a.runs)
			g.StalledRate = float64(a.stalled) / float64(a.runs)
			g.LivelockedRate = float64(a.livelocked) / float64(a.runs)
		}
		out = append(out, g)
	}
	return out
}
