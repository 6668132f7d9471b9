package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/baseline"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// DefaultMaxEvents is the per-run event budget when Config.MaxEvents is
// unset, shared by the whole experiment suite and by gatherbench's
// -max-events default. It is deliberately smaller than sim.DefaultMaxEvents
// (200000): a sweep multiplies the budget across thousands of cells, so the
// suite trades the last slow-converging tail for cost, while a single
// interactive run keeps the headroom. Both defaults are pinned by tests.
const DefaultMaxEvents = 150000

// Config bundles the knobs shared by the experiment drivers.
type Config struct {
	Seeds     int // number of seeds per cell (default 5)
	MaxEvents int // event budget per run (default DefaultMaxEvents)
	// Adversary, when non-empty, is an adversary spec string
	// (adversary.ParseSpec: "fair", "crash(2)", "greedy-stall+noise=0.1")
	// that overrides the fixed adversary of the single-adversary multi-run
	// experiments (E5, E7, E10, E11). Experiments that sweep their own
	// adversary axis (E9, E13, E14, E15) ignore it. An invalid spec warns and
	// falls back to the driver default.
	Adversary string
	// Workers sizes the engine worker pool for the multi-run experiments
	// (E5, E7, E9, E10, E11); <=0 means GOMAXPROCS. Results are identical
	// for every worker count.
	Workers int
	// SweepDir, when non-empty, makes the multi-run experiments stream every
	// cell result to a per-experiment store under this directory
	// (SweepDir/E5, SweepDir/E7, ...) as workers finish, and — together with
	// Resume — reuse completed cells on restart. Tables are byte-identical to
	// an uninterrupted in-memory run.
	SweepDir string
	// Coordinator, when non-empty, is the base URL of a gatherd coordinator
	// (http://host:port): the multi-run experiments then checkpoint and
	// coordinate through per-experiment stores on the coordinator (store
	// names E5, E7, ...) instead of a shared filesystem directory. Mutually
	// exclusive with SweepDir. Coordinator runs always resume — the record
	// log is the fleet's shared state, never reset by one worker — and
	// compose with ShardOwner exactly like SweepDir does: leases just live on
	// the coordinator instead of in lease files.
	Coordinator string
	// Resume reuses the completed cells found in SweepDir; without it an
	// existing store is reset and the sweep starts clean.
	Resume bool
	// AdaptiveCI, when positive, enables adaptive seed scheduling: each cell
	// group keeps receiving seed replicas until the 95% CI half-width of its
	// event count falls to AdaptiveCI, or the group hits AdaptiveMaxSeeds.
	// The per-group seed consumption is recorded in the table notes.
	AdaptiveCI float64
	// AdaptiveMaxSeeds caps the replicas per group (default sweep.DefaultMaxSeeds).
	AdaptiveMaxSeeds int
	// ShardOwner, when non-empty, runs the multi-run experiments as one
	// worker of a cooperative multi-process sweep: cell groups are claimed
	// through lease files in the shared SweepDir, groups completed or leased
	// by peers are skipped, and expired leases (dead workers) are reclaimed.
	// Requires SweepDir; the store is never reset (sharded runs always
	// resume), and every worker renders the complete, byte-identical tables
	// once the fleet drains the sweep. Composes with AdaptiveCI: the fleet
	// then coordinates the data-dependent adaptive grid through the shared
	// store alone, converging on the same per-group seed counts (and tables)
	// as a single-process adaptive run.
	ShardOwner string
	// LeaseTTL is the lease expiry in cooperative mode (default
	// sweep.DefaultLeaseTTL). It requires ShardOwner and may not exceed
	// sweep.MaxLeaseHorizon.
	LeaseTTL time.Duration
	// Warnf, when non-nil, receives sweep-store warnings (corrupt records
	// skipped on load, version mismatches, checkpoint failures).
	Warnf func(format string, args ...any)
}

// shard is the sweep-layer form of the sharding knobs.
func (c Config) shard() sweep.Shard {
	return sweep.Shard{Owner: c.ShardOwner, TTL: c.LeaseTTL}
}

// Validate checks the configuration up front and returns a clear error for
// combinations that would otherwise fail silently — for example a lease TTL
// past sweep.MaxLeaseHorizon, which would fail every claim and run the whole
// fleet leaseless. cmd/gatherbench calls it after flag parsing; library
// callers should too. runCells additionally consults it and degrades a
// misconfigured sharded run to an unsharded one (with a warning) rather than
// failing.
func (c Config) Validate() error {
	if c.Seeds < 0 {
		return fmt.Errorf("experiments: Seeds must be non-negative, got %d", c.Seeds)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("experiments: MaxEvents must be non-negative, got %d", c.MaxEvents)
	}
	if c.Adversary != "" {
		if _, err := adversary.ParseSpec(c.Adversary); err != nil {
			return fmt.Errorf("experiments: Adversary: %w", err)
		}
	}
	if err := netbackend.CheckMedium(c.SweepDir, c.Coordinator, c.ShardOwner); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if c.Resume && c.SweepDir == "" && c.Coordinator == "" {
		return fmt.Errorf("experiments: Resume requires SweepDir or Coordinator")
	}
	if c.AdaptiveCI < 0 {
		return fmt.Errorf("experiments: AdaptiveCI must be non-negative, got %g", c.AdaptiveCI)
	}
	if c.AdaptiveMaxSeeds < 0 {
		return fmt.Errorf("experiments: AdaptiveMaxSeeds must be non-negative, got %d", c.AdaptiveMaxSeeds)
	}
	if err := c.shard().Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 5
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	return c
}

func (c Config) warnf(format string, args ...any) {
	if c.Warnf != nil {
		c.Warnf(format, args...)
		return
	}
	// Default warning sink: the serialized obs logger (one writer, logfmt
	// lines on stderr) instead of a silent drop — sweep-store corruption and
	// shard accounting stay visible to library callers that set no Warnf.
	obs.Warnf("experiments", format, args...)
}

// runCells executes an experiment's cell grid through sweep.Run, the one
// sweep entry point: workload generation is memoized per (kind, n, seed),
// results stream to SweepDir/<id> (or the coordinator's <id> store) when
// checkpointing is on, AdaptiveCI grows the grid adaptively, and ShardOwner
// makes the run one worker of a fleet. sweep.Run picks its loop from those
// settings, so a fleet converges on the same grid — and tables — as a
// single process. The results are identical to engine.Run on the same
// cells, plus any adaptive replicas, whose per-group seed counts come back
// in the GroupSeeds slice (nil for fixed-seed runs).
func (c Config) runCells(id string, cells []engine.Cell) ([]engine.CellResult, []sweep.GroupSeeds) {
	// Telemetry: mark the sweep active for /progress while the grid drains.
	// Write-only (one-way contract); the progress view never feeds back into
	// scheduling.
	obs.SweepBegin(id, c.ShardOwner)
	defer obs.SweepEnd()
	opts := sweep.Options{Engine: engine.Options{Workers: c.Workers}, Shard: c.shard()}
	if err := c.Validate(); err != nil {
		// A misconfigured shard would run leaseless or not at all; running
		// the sweep unsharded (and saying so) is strictly more useful. Only the
		// sharding knobs are dropped — checkpointing (SweepDir/Resume) keeps
		// working, so a long degraded run still resumes after a crash.
		c.warnf("experiments: %s: %v (running unsharded)", id, err)
		opts.Shard = sweep.Shard{}
	}
	dir := c.SweepDir
	if dir != "" {
		dir = filepath.Join(dir, id)
	}
	st, warnings, err := netbackend.OpenStore(dir, c.Coordinator, id, c.Resume, opts.Shard)
	if err != nil {
		// Checkpointing is an accelerator, never a gate: warn and run the
		// sweep in memory — unsharded for a cooperative worker, whose leases
		// would have lived in the store.
		c.warnf("experiments: %s: %v (running without checkpoints)", id, err)
		if opts.Shard.Owner != "" {
			c.warnf("experiments: %s: lease-based sharding requires a sweep store; running unsharded", id)
			opts.Shard = sweep.Shard{}
		}
	}
	if st != nil {
		defer st.Close()
	}
	for _, w := range warnings {
		c.warnf("experiments: %s: %s", id, w)
	}
	opts.Store = st
	if c.AdaptiveCI > 0 {
		opts.Adaptive = sweep.Adaptive{TargetCI: c.AdaptiveCI, MaxSeeds: c.AdaptiveMaxSeeds}
	}
	results, stats := sweep.Run(cells, opts)
	for _, w := range stats.Warnings() {
		c.warnf("experiments: %s: %s", id, w)
	}
	if opts.Shard.Owner != "" {
		// A per-worker accounting line (on the warning stream, the only side
		// channel next to the shared tables): how the fleet's work actually
		// split. CI smoke jobs assert on it.
		c.warnf("experiments: %s: worker %s executed %d cells, restored %d (claimed %d groups, reclaimed %d leases)",
			id, opts.Shard.Owner, stats.Executed, stats.Restored, stats.GroupsClaimed, stats.LeasesReclaimed)
	}
	return results, stats.Groups
}

// collect folds cell results into groups in cell order (the streaming
// Collector fed after the fact — identical grouping either way).
func collect(results []engine.CellResult, keyOf func(engine.CellResult) string) []engine.Group {
	col := engine.NewCollector(keyOf)
	for _, r := range results {
		col.Add(r)
	}
	return col.Groups()
}

// adaptiveNotes records per-group seed consumption on a table when adaptive
// seed scheduling ran.
func adaptiveNotes(t *Table, infos []sweep.GroupSeeds) {
	for _, g := range infos {
		state := "converged"
		if !g.Converged {
			state = "hit seed cap"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"adaptive: %s consumed %d seeds (95%% CI half-width %.1f, %s)",
			g.Key, g.Seeds, g.HalfWidth, state))
	}
}

// snapshotEvery is the configuration-snapshot cadence shared by every
// experiment run (both the direct drivers and the engine cell builders).
const snapshotEvery = 50

// adversarySpec resolves the adversary used by a single-adversary multi-run
// driver: the Config.Adversary override when set, the driver's default spec
// string otherwise. Invalid overrides warn and fall back to the default.
func (c Config) adversarySpec(def string) adversary.Spec {
	text := c.Adversary
	if text == "" {
		text = def
	}
	spec, err := adversary.ParseSpec(text)
	if err != nil {
		c.warnf("experiments: %v (falling back to %q)", err, def)
		spec, err = adversary.ParseSpec(def)
		if err != nil {
			panic(fmt.Sprintf("experiments: bad default adversary spec %q: %v", def, err))
		}
	}
	return spec
}

// stampAdversary writes an adversary spec into a cell's structured fields.
func stampAdversary(cell *engine.Cell, spec adversary.Spec) {
	cell.Adversary = spec.Strategy
	cell.Crash = spec.Crash
	cell.Noise = spec.Noise
	cell.Trunc = spec.Trunc
}

// runOnce runs the paper's algorithm on one workload instance.
func runOnce(cfg config.Geometric, adv adversary.Strategy, maxEvents int, alg sim.Algorithm) sim.Result {
	res, err := sim.Run(cfg, sim.Options{
		Algorithm:     alg,
		Strategy:      adv,
		MaxEvents:     maxEvents,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return sim.Result{Err: err}
	}
	return res
}

func fmtF(x float64) string  { return fmt.Sprintf("%.1f", x) }
func fmtF2(x float64) string { return fmt.Sprintf("%.2f", x) }

// E1StateCycle exercises the robot state machine of Figure 1: a tangent pair
// of robots runs Look-Compute and terminates; the table reports the event
// counts per state-machine transition kind.
func E1StateCycle(cfg Config) Table {
	cfg = cfg.withDefaults()
	res := runOnce(workload.TangentRing(2), adversary.NewFair(), cfg.MaxEvents, nil)
	return Table{
		ID:      "E1",
		Title:   "Figure 1 — robot state-machine cycle (tangent pair, fair adversary)",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"outcome", res.Outcome.String()},
			{"events", fmt.Sprintf("%d", res.Events)},
			{"cycles", fmt.Sprintf("%d", res.Cycles)},
			{"terminated", fmt.Sprintf("%d/%d", res.TerminatedCount, res.N)},
			{"arrivals", fmt.Sprintf("%d", res.Arrivals)},
			{"collisions", fmt.Sprintf("%d", res.Collisions)},
		},
	}
}

// E2MoveToPoint reproduces the Figure 2 construction across m and distances:
// the offset of µ from the center line must equal 1/(2m)−ε and the tangency
// stop point must be at distance 2 from the target robot.
func E2MoveToPoint(cfg Config) Table {
	t := Table{
		ID:      "E2",
		Title:   "Figure 2 — Move-to-Point construction",
		Columns: []string{"m", "dist(c1,c2)", "offset(µ)", "1/(2m)-eps", "stop dist to c2"},
	}
	for _, m := range []int{2, 4, 8, 16, 32, 64} {
		for _, dist := range []float64{4, 10, 25} {
			c1 := geom.V(0, 0)
			c2 := geom.V(dist, 0)
			interior := geom.V(dist/2, 5)
			mu := core.MoveToPoint(c1, c2, m, interior)
			stop := core.TangencyTarget(c1, c2, mu)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m),
				fmtF(dist),
				fmt.Sprintf("%.4f", mu.Y),
				fmt.Sprintf("%.4f", 1/(2*float64(m))-core.Epsilon(m)),
				fmt.Sprintf("%.4f", stop.Dist(c2)),
			})
		}
	}
	return t
}

// E3FindPoints reproduces Figures 3 and 5: Find-Points candidate counts on
// hulls with and without space, and the straight-line rectangle test.
func E3FindPoints(cfg Config) Table {
	t := Table{
		ID:      "E3",
		Title:   "Figures 3 & 5 — Find-Points candidates and straight-line rectangle",
		Columns: []string{"case", "result"},
	}
	bigSquare := config.Geometric{geom.V(0, 0), geom.V(10, 0), geom.V(10, 10), geom.V(0, 10)}
	tight := config.Geometric{geom.V(0, 0), geom.V(3.8, 0), geom.V(1.9, 3.29)}
	t.Rows = append(t.Rows,
		[]string{"find-points big square (n=4)", fmt.Sprintf("%d candidates", len(core.FindPoints(bigSquare, 4)))},
		[]string{"find-points tight triangle (n=3)", fmt.Sprintf("%d candidates", len(core.FindPoints(tight, 3)))},
		[]string{"rect test, sag=0.05 < 1/10", fmt.Sprintf("%v", core.InStraightLineRect(geom.V(0, 0), geom.V(5, 0.05), geom.V(10, 0), 10))},
		[]string{"rect test, sag=0.50 > 1/10", fmt.Sprintf("%v", core.InStraightLineRect(geom.V(0, 0), geom.V(5, 0.5), geom.V(10, 0), 10))},
	)
	return t
}

// E4StateCoverage verifies all 17 algorithmic states of Figure 4 are
// reachable, by running the algorithm over a battery of workloads and
// counting terminal-state visits (non-terminal states are visited on the way
// and recorded through decision traces).
func E4StateCoverage(cfg Config) Table {
	cfg = cfg.withDefaults()
	visited := make(map[core.AlgState]int)
	record := func(d core.Decision) {
		for _, s := range d.Trace {
			visited[s]++
		}
	}
	// Curated views driving specific branches.
	views := []core.View{
		core.NewView(geom.V(0, 0), nil, 1),                                                                     // Connected (single robot)
		core.NewView(geom.V(0, 0), []geom.Vec{geom.V(2, 0)}, 2),                                                // Connected pair
		core.NewView(geom.V(0, 0), []geom.Vec{geom.V(10, 0)}, 2),                                               // NotConnected
		core.NewView(geom.V(6, 0), []geom.Vec{geom.V(0, 0), geom.V(12, 0)}, 3),                                 // SeeTwoRobot
		core.NewView(geom.V(0, 0), []geom.Vec{geom.V(6, 0)}, 3),                                                // partial view
		core.NewView(geom.V(10, 9), []geom.Vec{geom.V(0, 0), geom.V(20, 0), geom.V(20, 20), geom.V(0, 20)}, 5), // NotChange
		core.NewView(geom.V(1.9, 1.1), []geom.Vec{geom.V(0, 0), geom.V(3.8, 0), geom.V(1.9, 3.29)}, 4),         // IsTouching/NoSpace
		core.NewView(geom.V(0, 0), []geom.Vec{geom.V(3.8, 0), geom.V(1.9, 3.29), geom.V(1.9, 1.1)}, 4),         // NoSpaceForMore
	}
	for _, v := range views {
		record(core.Decide(v))
	}
	// Add simulation-driven coverage.
	for _, kind := range []workload.Kind{workload.KindRandom, workload.KindCollinear, workload.KindClustered} {
		w, err := workload.Generate(kind, 6, 11)
		if err != nil {
			continue
		}
		res := runOnce(w, adversary.NewRandomAsync(7), cfg.MaxEvents/10, nil)
		// Fold in declaration order, not map order (gatherlint detmaprange);
		// the sums commute, but the discipline is uniform.
		for _, s := range core.AllAlgStates() {
			visited[s] += res.StateVisits[s]
		}
	}
	t := Table{
		ID:      "E4",
		Title:   "Figure 4 — algorithmic state coverage",
		Columns: []string{"state", "visits"},
	}
	covered := 0
	for _, s := range core.AllAlgStates() {
		if visited[s] > 0 {
			covered++
		}
		t.Rows = append(t.Rows, []string{s.String(), fmt.Sprintf("%d", visited[s])})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d states reached", covered, core.NumAlgStates))
	return t
}

// E5GatheringVsN measures success rate and cost of the paper's algorithm as n
// grows (Theorem 26 exercised empirically).
func E5GatheringVsN(cfg Config, ns []int) Table {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = []int{2, 3, 4, 5, 8, 12, 16}
	}
	t := Table{
		ID:      "E5",
		Title:   "Theorem 26 — gathering success and cost vs n (random + clustered workloads)",
		Columns: []string{"n", "runs", "gathered", "all-terminated", "median events", "median cycles", "median distance"},
	}
	results, infos := cfg.runCells("E5", e5Cells(cfg, ns))
	groups := collect(results, func(r engine.CellResult) string {
		return fmt.Sprintf("%d", r.Cell.N)
	})
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key,
			fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate),
			fmtF2(g.TerminatedRate),
			fmtF(g.Events.Median),
			fmtF(g.Cycles.Median),
			fmtF(g.Distance.Median),
		})
	}
	return t
}

// e5Cells is the E5 cell grid: (n x seed x {clustered, nested-hulls}) under
// the random-async adversary.
func e5Cells(cfg Config, ns []int) []engine.Cell {
	spec := cfg.adversarySpec("random-async")
	var cells []engine.Cell
	for _, n := range ns {
		for seed := 0; seed < cfg.Seeds; seed++ {
			for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls} {
				cell := engine.Cell{
					Workload:      kind,
					N:             n,
					WorkloadSeed:  int64(seed + 1),
					AdversarySeed: int64(100 + seed),
					MaxEvents:     cfg.MaxEvents,
					SnapshotEvery: snapshotEvery,
				}
				stampAdversary(&cell, spec)
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// E6PhaseOne measures the time to reach the phase-1 target (all robots on the
// hull and fully visible) per workload shape (Lemma 22).
func E6PhaseOne(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Lemma 22 — events until all-on-hull & fully visible (n=%d)", n),
		Columns: []string{"workload", "runs", "reached", "median events to safe config"},
	}
	for _, kind := range workload.Kinds() {
		var reached []bool
		var when []int
		for seed := 0; seed < cfg.Seeds; seed++ {
			w, err := workload.Generate(kind, n, int64(seed+1))
			if err != nil {
				continue
			}
			res := runOnce(w, adversary.NewRandomAsync(int64(200+seed)), cfg.MaxEvents, nil)
			ok := res.Milestones.SafeConfig >= 0
			reached = append(reached, ok)
			if ok {
				when = append(when, res.Milestones.SafeConfig)
			}
		}
		medianStr := "-"
		if len(when) > 0 {
			medianStr = fmtF(metrics.SummarizeInts(when).Median)
		}
		t.Rows = append(t.Rows, []string{
			string(kind), fmt.Sprintf("%d", len(reached)),
			fmtF2(metrics.SuccessRate(reached)), medianStr,
		})
	}
	return t
}

// E7PhaseTwo measures the time from a safe (phase-2) configuration to a
// connected configuration (Lemma 23), starting from spread rings.
func E7PhaseTwo(cfg Config, ns []int) Table {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = []int{3, 5, 8, 12}
	}
	t := Table{
		ID:      "E7",
		Title:   "Lemma 23 — events from safe configuration to connected (ring starts)",
		Columns: []string{"n", "runs", "connected", "median events to connected"},
	}
	spec := cfg.adversarySpec("random-async")
	var cells []engine.Cell
	for _, n := range ns {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cell := engine.Cell{
				Initial:       workload.Ring(n, 6+2*float64(n)),
				N:             n,
				AdversarySeed: int64(300 + seed),
				MaxEvents:     cfg.MaxEvents,
				SnapshotEvery: snapshotEvery,
			}
			stampAdversary(&cell, spec)
			cells = append(cells, cell)
		}
	}
	results, infos := cfg.runCells("E7", cells)
	adaptiveNotes(&t, infos)
	for _, n := range ns {
		var ok []bool
		var when []int
		for _, r := range results {
			if r.Cell.N != n || r.Err != nil {
				continue
			}
			good := r.Result.Milestones.Connected >= 0
			ok = append(ok, good)
			if good {
				when = append(when, r.Result.Milestones.Connected)
			}
		}
		medianStr := "-"
		if len(when) > 0 {
			medianStr = fmtF(metrics.SummarizeInts(when).Median)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(ok)),
			fmtF2(metrics.SuccessRate(ok)), medianStr,
		})
	}
	return t
}

// E8HullMonotonicity checks the hull-area series of runs against the paper's
// monotonicity lemmas: the hull never shrinks while robots remain inside it
// (Lemma 20) and never grows once the safe configuration is reached and
// convergence begins (Lemma 21) — measured as bounded drawdown/rise.
func E8HullMonotonicity(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Lemmas 20-21 — hull area evolution (n=%d)", n),
		Columns: []string{"workload", "initial area", "peak area", "final area", "max shrink before peak", "max growth after peak"},
	}
	for _, kind := range []workload.Kind{workload.KindRandom, workload.KindClustered, workload.KindNestedHulls} {
		w, err := workload.Generate(kind, n, 7)
		if err != nil {
			continue
		}
		res := runOnce(w, adversary.NewRandomAsync(303), cfg.MaxEvents, nil)
		series := res.HullAreaSeries
		if len(series) == 0 {
			continue
		}
		peakIdx := 0
		for i, a := range series {
			if a > series[peakIdx] {
				peakIdx = i
			}
		}
		t.Rows = append(t.Rows, []string{
			string(kind),
			fmtF2(series[0]),
			fmtF2(series[peakIdx]),
			fmtF2(series[len(series)-1]),
			fmtF2(metrics.MaxDrawdown(series[:peakIdx+1])),
			fmtF2(metrics.MaxRise(series[peakIdx:])),
		})
	}
	return t
}

// E9Adversaries compares the cost of gathering under the adversary
// strategies (Lemma 25: bad configurations only delay, never prevent).
func E9Adversaries(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E9",
		Title:   fmt.Sprintf("Lemma 25 — adversary strategies (n=%d, clustered workload)", n),
		Columns: []string{"adversary", "runs", "gathered", "median events", "median stops", "median collisions"},
	}
	// Lemma 25's five state-only policies (E13 crosses every strategy).
	names := []string{
		adversary.NameFair, adversary.NameRandomAsync, adversary.NameStopHappy,
		adversary.NameSlowRobot, adversary.NameMoverStarver,
	}
	var cells []engine.Cell
	for _, name := range names {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, engine.Cell{
				Workload:      workload.KindClustered,
				N:             n,
				WorkloadSeed:  int64(seed + 1),
				Adversary:     name,
				AdversarySeed: int64(400 + seed),
				MaxEvents:     cfg.MaxEvents,
				SnapshotEvery: snapshotEvery,
			})
		}
	}
	results, infos := cfg.runCells("E9", cells)
	groups := collect(results, func(r engine.CellResult) string {
		return r.Cell.AdversaryName()
	})
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key, fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate),
			fmtF(g.Events.Median),
			fmtF(g.Stops.Median),
			fmtF(g.Collisions.Median),
		})
	}
	return t
}

// E10Baselines compares the paper's algorithm against the baselines on the
// same workloads and adversary.
func E10Baselines(cfg Config, ns []int) Table {
	cfg = cfg.withDefaults()
	if len(ns) == 0 {
		ns = []int{3, 4, 5, 8}
	}
	algs := []sim.Algorithm{sim.PaperAlgorithm{}, baseline.Gravity{}, baseline.SmallN{}, baseline.Transparent{}}
	t := Table{
		ID:      "E10",
		Title:   "Baselines — connected / gathered rates per algorithm and n (clustered workloads)",
		Columns: []string{"algorithm", "n", "runs", "connected", "gathered (conn+fully visible)"},
	}
	results, infos := cfg.runCells("E10", e10Cells(cfg, ns, algs))
	groups := collect(results, func(r engine.CellResult) string {
		return fmt.Sprintf("%s|%d", r.Cell.AlgorithmName(), r.Cell.N)
	})
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Sample.AlgorithmName(), fmt.Sprintf("%d", g.Sample.N), fmt.Sprintf("%d", g.Runs),
			fmtF2(g.ConnectedRate), fmtF2(g.GatheredRate),
		})
	}
	t.Notes = append(t.Notes, "the paper's algorithm is the only one expected to keep full visibility while connecting for n >= 5")
	return t
}

// e10Cells is the E10 cell grid: (algorithm x n x seed) on clustered
// workloads under the random-async adversary, at half the event budget.
func e10Cells(cfg Config, ns []int, algs []sim.Algorithm) []engine.Cell {
	spec := cfg.adversarySpec("random-async")
	var cells []engine.Cell
	for _, alg := range algs {
		for _, n := range ns {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cell := engine.Cell{
					Workload:      workload.KindClustered,
					N:             n,
					WorkloadSeed:  int64(seed + 1),
					Algorithm:     alg,
					AdversarySeed: int64(500 + seed),
					MaxEvents:     cfg.MaxEvents / 2,
					SnapshotEvery: snapshotEvery,
				}
				stampAdversary(&cell, spec)
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// E11Delta measures sensitivity to the liveness minimum-progress delta.
func E11Delta(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E11",
		Title:   fmt.Sprintf("Liveness condition — sensitivity to delta (n=%d, clustered workload)", n),
		Columns: []string{"delta", "runs", "gathered", "median events"},
	}
	spec := cfg.adversarySpec("stop-happy")
	var cells []engine.Cell
	for _, delta := range []float64{0.01, 0.05, 0.1, 0.5, 1.0} {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cell := engine.Cell{
				Workload:      workload.KindClustered,
				N:             n,
				WorkloadSeed:  int64(seed + 1),
				AdversarySeed: int64(600 + seed),
				Delta:         delta,
				MaxEvents:     cfg.MaxEvents,
			}
			stampAdversary(&cell, spec)
			cells = append(cells, cell)
		}
	}
	results, infos := cfg.runCells("E11", cells)
	groups := collect(results, func(r engine.CellResult) string {
		return fmt.Sprintf("%.2f", r.Cell.Delta)
	})
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key, fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate),
			fmtF(g.Events.Median),
		})
	}
	return t
}

// E12Primitives reports the scaling of the geometric primitives with n
// (supporting the claim that each Compute step is cheap).
func E12Primitives(cfg Config) Table {
	t := Table{
		ID:      "E12",
		Title:   "Geometry primitives — work per call vs n",
		Columns: []string{"n", "hull points", "components", "fully visible pairs checked"},
	}
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		pts := workload.Ring(n, 4*float64(n))
		hull := geom.ConvexHullWithCollinear(pts)
		comps := core.ConnectedComponents(pts, n)
		m := vision.Default
		pairs := 0
		for i := 0; i < len(pts) && i < 16; i++ { // sample to keep the driver fast
			for j := i + 1; j < len(pts) && j < 16; j++ {
				if m.Visible(pts, i, j) {
					pairs++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(hull)),
			fmt.Sprintf("%d", len(comps)),
			fmt.Sprintf("%d", pairs),
		})
	}
	return t
}

// E13StrategyCross crosses every adversary strategy — the legacy policies
// plus the environment-aware greedy-stall, round-robin-lag and crash(1) —
// with workload shapes: the full robustness picture the correctness claims
// are stated against (the paper's Lemma 25 says bad schedules delay
// gathering but never prevent it; crash faults are outside the model and do
// prevent it, which the table makes visible).
func E13StrategyCross(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Robustness — adversary strategy cross vs workload (n=%d)", n),
		Columns: []string{"strategy", "workload", "runs", "gathered", "stalled", "livelocked", "median events", "median stops"},
	}
	workloads := []workload.Kind{workload.KindClustered, workload.KindNestedHulls, workload.KindRing}
	var cells []engine.Cell
	for _, name := range adversary.Names() {
		for _, wk := range workloads {
			for seed := 0; seed < cfg.Seeds; seed++ {
				cell := engine.Cell{
					Workload:      wk,
					N:             n,
					WorkloadSeed:  int64(seed + 1),
					Adversary:     name,
					MaxEvents:     cfg.MaxEvents,
					SnapshotEvery: snapshotEvery,
				}
				if name == adversary.NameCrash {
					cell.Crash = 1
				}
				cell.AdversarySeed = engine.DeriveSeed(int64(1300+seed),
					engine.StreamOf("E13", name, string(wk)), int64(n))
				cells = append(cells, cell)
			}
		}
	}
	results, infos := cfg.runCells("E13", cells)
	keyOf := func(r engine.CellResult) string {
		return fmt.Sprintf("%s|%s", r.Cell.AdversaryLabel(), r.Cell.Workload)
	}
	groups := collect(results, keyOf)
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Sample.AdversaryLabel(), string(g.Sample.Workload), fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate), fmtF2(g.StalledRate), fmtF2(g.LivelockedRate),
			fmtF(g.Events.Median), fmtF(g.Stops.Median),
		})
	}
	t.Notes = append(t.Notes,
		"crash(1) stalls by design once every surviving robot terminates; every fault-free strategy should still gather (delay, not prevention)",
		"livelocked runs are certified zero-progress cycles (blocked-path schedules such as round-robin-lag); they end at certification instead of burning the event budget, so their median events measures time-to-certification, not the budget")
	return t
}

// E14CrashTolerance sweeps the crash-stop count k: how far the paper's
// algorithm degrades as robots fail permanently after their first move
// (crash faults are outside the paper's execution model, so this measures
// the undefended failure mode, not a violated claim).
func E14CrashTolerance(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E14",
		Title:   fmt.Sprintf("Robustness — crash-stop tolerance (n=%d, clustered workload, fair scheduling)", n),
		Columns: []string{"crashed k", "runs", "gathered", "survivors-gathered", "connected", "stalled", "livelocked", "median events"},
	}
	var cells []engine.Cell
	for k := 0; k < 4; k++ {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cell := engine.Cell{
				Workload:      workload.KindClustered,
				N:             n,
				WorkloadSeed:  int64(seed + 1),
				Adversary:     adversary.NameFair,
				MaxEvents:     cfg.MaxEvents,
				SnapshotEvery: snapshotEvery,
			}
			if k > 0 {
				cell.Adversary = adversary.NameCrash
				cell.Crash = k
			}
			cell.AdversarySeed = engine.DeriveSeed(int64(1400+seed),
				engine.StreamOf("E14", cell.AdversaryLabel()), int64(n))
			cells = append(cells, cell)
		}
	}
	results, infos := cfg.runCells("E14", cells)
	keyOf := func(r engine.CellResult) string { return fmt.Sprintf("%d", r.Cell.Crash) }
	groups := collect(results, keyOf)
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key, fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate), fmtF2(g.SurvivorsGatheredRate),
			fmtF2(g.ConnectedRate), fmtF2(g.StalledRate), fmtF2(g.LivelockedRate),
			fmtF(g.Events.Median),
		})
	}
	t.Notes = append(t.Notes,
		"k=0 is the fault-free fair baseline; a crashed robot freezes where its first move ended, so full gathering generally becomes impossible for k >= 1",
		"survivors-gathered evaluates the goal on the non-crashed robots alone (crashed bodies excluded): it can exceed gathered when survivors cluster away from a frozen peer, and fall below it when the crashed body is the only bridge holding the tangency graph together")
	return t
}

// E15NoiseThreshold sweeps bounded sensor noise (and, separately, movement
// truncation) under fair scheduling to find the fault magnitude at which
// gathering degrades: the paper assumes exact sensing, so this charts the
// assumption's safety margin.
func E15NoiseThreshold(cfg Config, n int) Table {
	cfg = cfg.withDefaults()
	t := Table{
		ID:      "E15",
		Title:   fmt.Sprintf("Robustness — sensor-noise and motion-truncation thresholds (n=%d, clustered workload)", n),
		Columns: []string{"fault", "runs", "gathered", "median events", "median collisions"},
	}
	var cells []engine.Cell
	add := func(noise, trunc float64) {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cell := engine.Cell{
				Workload:      workload.KindClustered,
				N:             n,
				WorkloadSeed:  int64(seed + 1),
				Adversary:     adversary.NameFair,
				Noise:         noise,
				Trunc:         trunc,
				MaxEvents:     cfg.MaxEvents,
				SnapshotEvery: snapshotEvery,
			}
			cell.AdversarySeed = engine.DeriveSeed(int64(1500+seed),
				engine.StreamOf("E15", cell.AdversaryLabel()), int64(n))
			cells = append(cells, cell)
		}
	}
	for _, noise := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5} {
		add(noise, 0)
	}
	for _, trunc := range []float64{0.25, 0.5, 0.9} {
		add(0, trunc)
	}
	results, infos := cfg.runCells("E15", cells)
	groups := collect(results, func(r engine.CellResult) string {
		return r.Cell.AdversaryLabel()
	})
	adaptiveNotes(&t, infos)
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Sample.AdversaryLabel(), fmt.Sprintf("%d", g.Runs),
			fmtF2(g.GatheredRate),
			fmtF(g.Events.Median), fmtF(g.Collisions.Median),
		})
	}
	t.Notes = append(t.Notes,
		"noise displaces sensed centers (never the robot's own position); truncation scales each move grant below the liveness delta")
	return t
}

// Experiment pairs an experiment id with its driver (run with the suite's
// default arguments).
type Experiment struct {
	ID  string
	Run func(Config) Table
}

// Suite returns every experiment in suite order, with the default arguments
// used by cmd/gatherbench and All. It is the single definition of the suite.
func Suite() []Experiment {
	return []Experiment{
		{"E1", E1StateCycle},
		{"E2", E2MoveToPoint},
		{"E3", E3FindPoints},
		{"E4", E4StateCoverage},
		{"E5", func(c Config) Table { return E5GatheringVsN(c, nil) }},
		{"E6", func(c Config) Table { return E6PhaseOne(c, 6) }},
		{"E7", func(c Config) Table { return E7PhaseTwo(c, nil) }},
		{"E8", func(c Config) Table { return E8HullMonotonicity(c, 6) }},
		{"E9", func(c Config) Table { return E9Adversaries(c, 6) }},
		{"E10", func(c Config) Table { return E10Baselines(c, nil) }},
		{"E11", func(c Config) Table { return E11Delta(c, 6) }},
		{"E12", E12Primitives},
		{"E13", func(c Config) Table { return E13StrategyCross(c, 6) }},
		{"E14", func(c Config) Table { return E14CrashTolerance(c, 6) }},
		{"E15", func(c Config) Table { return E15NoiseThreshold(c, 6) }},
	}
}
