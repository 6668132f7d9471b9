package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/geom/incr"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
	"github.com/fatgather/fatgather/internal/trace"
	"github.com/fatgather/fatgather/internal/vision"
)

// Telemetry (internal/obs): write-only handles resolved once at init, per
// the one-way contract — this package never reads them back, so results are
// byte-identical with telemetry on or off. Per-event costs are batched
// (event/outcome counters flush once per run in result()) or sampled (step
// timing observes every stepSampleEvery-th event), keeping the hot path
// within its pinned allocation and throughput budgets.
var (
	obsEvents      = obs.NewCounter("fatgather_sim_events_total")
	obsLivelocks   = obs.NewCounter("fatgather_sim_livelocks_certified_total")
	obsStepSeconds = obs.NewHistogram("fatgather_sim_step_seconds")

	// obsRuns indexes the per-outcome run counters by Outcome value; the
	// label strings mirror Outcome.String().
	obsRuns = [...]*obs.Counter{
		OutcomeAllTerminated:   obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "all-terminated")),
		OutcomeGathered:        obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "gathered")),
		OutcomeBudgetExhausted: obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "budget-exhausted")),
		OutcomeStalled:         obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "stalled")),
		OutcomeLivelocked:      obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "livelocked")),
		OutcomeError:           obs.NewCounter("fatgather_sim_runs_total", obs.L("outcome", "error")),
	}
)

// stepSampleEvery is the step-timing sampling period: Step observes the
// wall-clock duration of every 64th event, which keeps the per-event
// overhead of two clock reads off the common path while still populating
// the latency histogram densely (a typical cell runs thousands of events).
const stepSampleEvery = 64

// Algorithm is a pluggable local algorithm run in the Compute state. The
// paper's algorithm (PaperAlgorithm) is the default; baselines implement the
// same interface so they can be compared under identical scheduling.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Decide maps a local view to a decision (target point or terminate).
	Decide(v core.View) core.Decision
}

// PaperAlgorithm is the gathering algorithm of the paper (package core).
type PaperAlgorithm struct{}

// Name implements Algorithm.
func (PaperAlgorithm) Name() string { return "agm-gathering" }

// Decide implements Algorithm.
func (PaperAlgorithm) Decide(v core.View) core.Decision { return core.Decide(v) }

var _ Algorithm = PaperAlgorithm{}

// Outcome classifies how a run ended.
type Outcome int

// Run outcomes.
const (
	// OutcomeAllTerminated: every robot reached its Terminate state (the
	// paper's termination condition).
	OutcomeAllTerminated Outcome = iota + 1
	// OutcomeGathered: the global gathering goal (connected + fully visible)
	// holds and Options.StopWhenGathered was set.
	OutcomeGathered
	// OutcomeBudgetExhausted: the event budget ran out first.
	OutcomeBudgetExhausted
	// OutcomeStalled: the adversary strategy declined to schedule any robot
	// (every remaining candidate has crash-stopped), so no further event can
	// change the configuration.
	OutcomeStalled
	// OutcomeLivelocked: the zero-progress cycle detector certified a
	// livelock — the configuration recurred exactly (positions, protocol
	// states, targets, views) with no distance advanced and no robot
	// terminated in between — so the run can never make progress again.
	// Before this outcome existed such runs burned the whole event budget
	// and were misreported as OutcomeBudgetExhausted. See livelock.go.
	OutcomeLivelocked
	// OutcomeError: the run aborted on a simulation error (Result.Err holds
	// it) — an invariant violation under ValidateEveryEvent, an illegal
	// robot state transition, or a strategy scheduling outside the candidate
	// set (ErrBadSchedule).
	OutcomeError
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeAllTerminated:
		return "all-terminated"
	case OutcomeGathered:
		return "gathered"
	case OutcomeBudgetExhausted:
		return "budget-exhausted"
	case OutcomeStalled:
		return "stalled"
	case OutcomeLivelocked:
		return "livelocked"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// DefaultMaxEvents is the event budget when Options.MaxEvents is unset. It
// is deliberately larger than experiments.DefaultMaxEvents (150000): a
// single interactive run (gathersim) gets headroom for slow-converging
// seeds, while the experiment suite and gatherbench trade that tail
// coverage for sweep cost across thousands of cells. Both defaults are
// pinned by tests so a drift in either is a conscious decision.
const DefaultMaxEvents = 200000

// Options configures a simulation run.
type Options struct {
	// Algorithm is the local algorithm; nil means the paper's algorithm.
	Algorithm Algorithm
	// Strategy is the scheduling strategy (internal/adversary); it owns event
	// selection and may carry fault decorators (crash-stop, sensor noise,
	// movement truncation). nil means adversary.NewFair(), the fair
	// round-robin scheduler.
	Strategy adversary.Strategy
	// Vision is the visibility model; nil means vision.Default.
	Vision *vision.Model
	// Delta is the liveness minimum-progress distance; <=0 means
	// sched.DefaultDelta.
	Delta float64
	// MaxEvents bounds the number of events; <=0 means DefaultMaxEvents.
	// Note: the experiment suite (internal/experiments) and gatherbench run
	// with the smaller experiments.DefaultMaxEvents budget; the single-run
	// default here deliberately leaves extra headroom. See DefaultMaxEvents.
	MaxEvents int
	// StopWhenGathered ends the run as soon as the configuration is connected
	// and fully visible, even if robots have not locally terminated yet.
	StopWhenGathered bool
	// SnapshotEvery records the configuration (and hull area) every k events;
	// 0 disables snapshots.
	SnapshotEvery int
	// ValidateEveryEvent re-checks the no-overlap invariant after every
	// event; slower but used extensively in tests.
	ValidateEveryEvent bool
	// NoLivelockDetection disables the zero-progress cycle detector
	// (livelock.go); runs that would be certified livelocked then burn the
	// event budget and end OutcomeBudgetExhausted, as they did before the
	// detector existed.
	NoLivelockDetection bool
}

func (o Options) withDefaults() Options {
	if o.Algorithm == nil {
		o.Algorithm = PaperAlgorithm{}
	}
	if o.Strategy == nil {
		o.Strategy = adversary.NewFair()
	}
	if o.Vision == nil {
		o.Vision = vision.Default
	}
	if o.Delta <= 0 {
		o.Delta = sched.DefaultDelta
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = DefaultMaxEvents
	}
	return o
}

// Milestones records the first event index at which each of the paper's
// intermediate properties held (-1 if never observed).
type Milestones struct {
	AllOnHull      int // |onCH(G)| = n
	FullyVisible   int // every robot sees every robot
	SafeConfig     int // all on hull AND fully visible (phase-2 precondition)
	Connected      int // tangency graph connected
	Gathered       int // connected AND fully visible (Definition 1)
	FirstTerminate int // first robot reached Terminate
}

// Result summarizes a run.
type Result struct {
	Outcome           Outcome
	Algorithm         string
	Adversary         string
	N                 int
	Events            int
	Cycles            int
	TerminatedCount   int
	Collisions        int
	Stops             int
	Arrivals          int
	TotalDistance     float64
	Final             config.Geometric
	Milestones        Milestones
	StateVisits       map[core.AlgState]int
	HullAreaSeries    []float64
	SpreadSeries      []float64
	ConnectedAtEnd    bool
	FullyVisibleAtEnd bool
	// CrashedCount is the number of robots that crash-stopped during the run
	// (0 unless the adversary injects crash faults).
	CrashedCount int
	// SurvivorsGathered reports whether the gathering goal — connected and
	// fully visible — holds for the non-crashed robots alone at the end of
	// the run, with the crashed robots' bodies removed from the evaluated
	// configuration. Equal to Gathered() in fault-free runs; under crash(k)
	// it measures how well the survivors solved their restricted task even
	// though a frozen peer makes the full goal unreachable.
	SurvivorsGathered bool
	// LivelockTrace is a bounded snippet of the certified zero-progress
	// cycle, recorded by the livelock detector for offline inspection
	// (gatherviz -trace): the last DefaultLivelockTraceFrames frames of the
	// cycle. Nil unless Outcome is OutcomeLivelocked.
	LivelockTrace *trace.Trace
	Err           error
}

// Gathered reports whether the final configuration satisfies the geometric
// gathering goal.
func (r Result) Gathered() bool { return r.ConnectedAtEnd && r.FullyVisibleAtEnd }

// ErrInvalidInitial is returned when the initial configuration has
// overlapping robots.
var ErrInvalidInitial = errors.New("sim: invalid initial configuration")

// Simulator runs one execution.
type Simulator struct {
	opts   Options
	robots []*robot.Robot
	n      int

	// geo is the incremental geometry cache (hull, connectivity, pairwise
	// visibility). Exactly one robot moves per event — only in eventAdvance —
	// so every position change is reported through geo.Move and the cached
	// predicates stay bit-identical to the from-scratch oracles on Config().
	geo *incr.Cache

	events      int
	collisions  int
	stops       int
	arrivals    int
	stateVisits map[core.AlgState]int

	milestones   Milestones
	areaSeries   []float64
	spreadSeries []float64

	// Reused adversary.Env buffers (rebuilt every Step; strategies must not
	// retain them).
	envStates  []robot.State
	envCenters []geom.Vec
	envTargets []geom.Vec

	// Reused per-event buffers. candBuf backs activeCandidates (strategies
	// copy what they keep); viewBuf backs the Look snapshot handed to
	// PerturbView/BeginLook, both of which copy; othersBuf backs the
	// self-filtered view handed to core.NewView, which copies.
	candBuf   []int
	viewBuf   []geom.Vec
	othersBuf []geom.Vec

	// Livelock detection state (livelock.go). progressed is set by any event
	// that advances a robot or terminates one; zeroStreak counts consecutive
	// events without progress.
	progressed bool
	zeroStreak int
	llSeen     map[string]int
	llSig      []byte
	llFrames   []trace.Frame
	llTrace    *trace.Trace
}

// ErrStalled is returned by Step when the adversary strategy declines to
// schedule any robot (adversary.NoRobot): no further event can change the
// configuration, so Run ends the run with OutcomeStalled.
var ErrStalled = errors.New("sim: adversary scheduled no robot (all remaining candidates crashed)")

// New creates a simulator for the given initial configuration.
func New(initial config.Geometric, opts Options) (*Simulator, error) {
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInitial, err)
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("%w: no robots", ErrInvalidInitial)
	}
	o := opts.withDefaults()
	robots := make([]*robot.Robot, len(initial))
	for i, c := range initial {
		robots[i] = robot.New(i, c)
	}
	return &Simulator{
		opts:        o,
		robots:      robots,
		n:           len(initial),
		geo:         incr.New(o.Vision, initial),
		stateVisits: make(map[core.AlgState]int),
		milestones: Milestones{
			AllOnHull: -1, FullyVisible: -1, SafeConfig: -1,
			Connected: -1, Gathered: -1, FirstTerminate: -1,
		},
	}, nil
}

// Config returns the current geometric configuration.
func (s *Simulator) Config() config.Geometric {
	out := make(config.Geometric, s.n)
	for i, r := range s.robots {
		out[i] = r.Center
	}
	return out
}

// Robots exposes the robot records (read-only use intended).
func (s *Simulator) Robots() []*robot.Robot { return s.robots }

// Events returns the number of events executed so far.
func (s *Simulator) Events() int { return s.events }

// AllTerminated reports whether every robot has terminated.
func (s *Simulator) AllTerminated() bool {
	for _, r := range s.robots {
		if !r.Terminated() {
			return false
		}
	}
	return true
}

// Run executes events until termination, the gathering goal (if
// StopWhenGathered), or the event budget, and returns the result.
func (s *Simulator) Run() Result {
	s.observe()
	for s.events < s.opts.MaxEvents {
		if s.AllTerminated() {
			return s.result(OutcomeAllTerminated, nil)
		}
		if s.opts.StopWhenGathered && s.milestones.Gathered >= 0 {
			return s.result(OutcomeGathered, nil)
		}
		if err := s.Step(); errors.Is(err, ErrStalled) {
			return s.result(OutcomeStalled, nil)
		} else if errors.Is(err, ErrLivelocked) {
			return s.result(OutcomeLivelocked, nil)
		} else if err != nil {
			return s.result(OutcomeError, err)
		}
	}
	if s.AllTerminated() {
		return s.result(OutcomeAllTerminated, nil)
	}
	if s.opts.StopWhenGathered && s.milestones.Gathered >= 0 {
		return s.result(OutcomeGathered, nil)
	}
	return s.result(OutcomeBudgetExhausted, nil)
}

// env rebuilds the reused adversary.Env view of the current simulation state.
func (s *Simulator) env() adversary.Env {
	if s.envStates == nil {
		s.envStates = make([]robot.State, s.n)
		s.envCenters = make([]geom.Vec, s.n)
		s.envTargets = make([]geom.Vec, s.n)
	}
	for i, r := range s.robots {
		s.envStates[i] = r.State
		s.envCenters[i] = r.Center
		if r.State == robot.Move {
			s.envTargets[i] = r.Target
		} else {
			s.envTargets[i] = geom.Vec{}
		}
	}
	return adversary.Env{States: s.envStates, Centers: s.envCenters, Targets: s.envTargets}
}

// ErrBadSchedule is returned by Step when the strategy picks a robot outside
// the candidate set (out of range or already terminated). Such picks used to
// be silently coerced to candidates[0], which masked buggy strategies behind
// a quietly different schedule; now the run fails loudly (OutcomeError).
var ErrBadSchedule = errors.New("sim: strategy scheduled a robot outside the candidate set")

// Step executes a single event chosen by the adversary strategy. It returns
// ErrStalled when the strategy schedules no robot (see OutcomeStalled),
// ErrLivelocked when the zero-progress cycle detector certifies a livelock
// (see OutcomeLivelocked), and ErrBadSchedule on an invalid pick.
func (s *Simulator) Step() error {
	sampled := s.events%stepSampleEvery == 0
	var stepStart time.Time
	if sampled {
		//gatherlint:ignore nondetsource sampled wall-clock step timing is telemetry only, never folded into results
		stepStart = time.Now()
	}
	candidates := s.activeCandidates()
	if len(candidates) == 0 {
		return nil
	}
	env := s.env()
	id := s.opts.Strategy.Next(candidates, env)
	if id == adversary.NoRobot {
		return ErrStalled
	}
	valid := false
	for _, c := range candidates {
		if c == id {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("%w: strategy %q picked robot %d of %d (candidates %v)",
			ErrBadSchedule, s.opts.Strategy.Name(), id, s.n, candidates)
	}
	r := s.robots[id]

	var err error
	switch r.State {
	case robot.Wait:
		err = s.eventLook(r)
	case robot.Look:
		err = r.BeginCompute()
	case robot.Compute:
		err = s.eventComputeOutcome(r)
	case robot.Move:
		err = s.eventAdvance(r, env)
	default:
		return nil
	}
	if err != nil {
		return err
	}
	s.events++
	s.observe()
	if s.opts.ValidateEveryEvent {
		if verr := s.Config().Validate(); verr != nil {
			return fmt.Errorf("sim: invariant violated after event %d: %w", s.events, verr)
		}
	}
	if !s.opts.NoLivelockDetection && s.noteLivelockProgress() {
		return ErrLivelocked
	}
	if sampled {
		//gatherlint:ignore nondetsource sampled wall-clock step timing is telemetry only, never folded into results
		obsStepSeconds.Observe(time.Since(stepStart).Seconds())
	}
	return nil
}

func (s *Simulator) activeCandidates() []int {
	s.candBuf = s.candBuf[:0]
	for i, r := range s.robots {
		if !r.Terminated() {
			s.candBuf = append(s.candBuf, i)
		}
	}
	return s.candBuf
}

// eventLook implements the Look event: the robot snapshots the centers it can
// see (always including its own). A fault-injecting strategy may perturb the
// snapshot — but never the robot's self-observation or the physical
// configuration.
func (s *Simulator) eventLook(r *robot.Robot) error {
	s.viewBuf = s.geo.AppendViewCenters(s.viewBuf[:0], r.ID)
	view := s.viewBuf
	if p, ok := s.opts.Strategy.(adversary.Perturber); ok {
		view = p.PerturbView(r.ID, r.Center, view)
	}
	return r.BeginLook(view)
}

// eventComputeOutcome implements the Compute/Done/Move events: run the local
// algorithm on the robot's snapshot and either terminate or start moving.
func (s *Simulator) eventComputeOutcome(r *robot.Robot) error {
	self := r.Center
	s.othersBuf = s.othersBuf[:0]
	for _, c := range r.View {
		if !c.EqWithin(self, geom.Eps) {
			s.othersBuf = append(s.othersBuf, c)
		}
	}
	decision := s.opts.Algorithm.Decide(core.NewView(self, s.othersBuf, s.n))
	s.stateVisits[decision.Final()]++
	if decision.Terminate {
		if s.milestones.FirstTerminate < 0 {
			s.milestones.FirstTerminate = s.events
		}
		// A termination is progress: it shrinks the candidate set for good,
		// so the run cannot be cycling.
		s.progressed = true
		return r.Done()
	}
	return r.BeginMove(decision.Target)
}

// eventAdvance implements the Move/Stop/Collide/Arrive events for one
// activation of a moving robot: the adversary chooses the progress, motion is
// truncated at the first tangency, and the robot's state is updated.
func (s *Simulator) eventAdvance(r *robot.Robot, env adversary.Env) error {
	remaining := r.RemainingDistance()
	if remaining <= config.ContactEps {
		s.arrivals++
		return r.FinishMove()
	}
	action := s.opts.Strategy.Move(r.ID, remaining, env)
	dist := action.Distance
	minProgress := math.Min(s.opts.Delta, remaining)
	if dist < minProgress {
		dist = minProgress
	}
	if dist > remaining {
		dist = remaining
	}
	if p, ok := s.opts.Strategy.(adversary.Perturber); ok {
		// Movement truncation applies after the liveness clamp: the fault may
		// undercut the delta — that is the point — but never reverse motion
		// or overshoot.
		dist = p.PerturbMove(r.ID, dist, remaining)
		if dist < 0 {
			dist = 0
		}
		if dist > remaining {
			dist = remaining
		}
	}

	free, blockedBy := s.freeDistance(r, dist)
	r.Advance(free)
	if free > 0 {
		// Cumulative distance advanced: any positive step changes the
		// configuration, so the zero-progress streak resets — and this is the
		// single place a position changes, so the geometry cache updates here.
		s.geo.Move(r.ID, r.Center)
		s.progressed = true
	}

	switch {
	case blockedBy >= 0:
		// Touched another robot: Collide/Stop per the paper; either way the
		// robot returns to Wait.
		s.collisions++
		return r.FinishMove()
	case r.RemainingDistance() <= config.ContactEps:
		s.arrivals++
		return r.FinishMove()
	case action.Stop:
		s.stops++
		return r.FinishMove()
	default:
		// Remain in Move; a later activation continues the journey.
		return nil
	}
}

// freeDistance computes how far robot r can advance along its trajectory (up
// to want) before its disc becomes tangent to another robot's disc, and which
// robot blocks it (-1 if none within want).
func (s *Simulator) freeDistance(r *robot.Robot, want float64) (float64, int) {
	dir := r.Target.Sub(r.Center)
	if dir.Norm() < geom.Eps {
		return 0, -1
	}
	u := dir.Unit()
	best := want
	blocker := -1
	for _, other := range s.robots {
		if other.ID == r.ID {
			continue
		}
		t, hits := geom.FirstDiscContact(r.Center, u, other.Center, geom.UnitRadius, best, config.ContactEps)
		if hits && t <= best {
			best = t
			blocker = other.ID
		}
	}
	if best < 0 {
		best = 0
	}
	return best, blocker
}

// observe updates milestone bookkeeping and optional snapshot series. All
// predicates come from the incremental cache; each equals (bit-identically)
// the config.Geometric oracle it replaced, so milestone indices and the
// persisted snapshot series are unchanged.
func (s *Simulator) observe() {
	allOnHull := s.geo.AllOnHull()
	fully := s.geo.FullyVisible()
	connected := s.geo.Connected()
	if allOnHull && s.milestones.AllOnHull < 0 {
		s.milestones.AllOnHull = s.events
	}
	if fully && s.milestones.FullyVisible < 0 {
		s.milestones.FullyVisible = s.events
	}
	if allOnHull && fully && s.milestones.SafeConfig < 0 {
		s.milestones.SafeConfig = s.events
	}
	if connected && s.milestones.Connected < 0 {
		s.milestones.Connected = s.events
	}
	if connected && fully && s.milestones.Gathered < 0 {
		s.milestones.Gathered = s.events
	}
	if s.opts.SnapshotEvery > 0 && s.events%s.opts.SnapshotEvery == 0 {
		s.areaSeries = append(s.areaSeries, s.geo.HullArea())
		s.spreadSeries = append(s.spreadSeries, s.geo.Spread())
	}
}

func (s *Simulator) result(outcome Outcome, err error) Result {
	// Flush the batched telemetry for this run: one counter add per run
	// instead of one per event keeps atomic traffic off the event loop.
	obsEvents.Add(int64(s.events))
	if int(outcome) > 0 && int(outcome) < len(obsRuns) && obsRuns[outcome] != nil {
		obsRuns[outcome].Inc()
	}
	if outcome == OutcomeLivelocked {
		obsLivelocks.Inc()
	}
	cfg := s.Config()
	cycles := 0
	distance := 0.0
	terminated := 0
	for _, r := range s.robots {
		cycles += r.Cycles
		distance += r.DistanceTraveled
		if r.Terminated() {
			terminated++
		}
	}
	// Copy the visit counts by enumerating the (complete, declaration-
	// ordered) state list rather than ranging over the map, so no map
	// iteration happens on a result-producing path (gatherlint detmaprange).
	visits := make(map[core.AlgState]int, len(s.stateVisits))
	for _, st := range core.AllAlgStates() {
		if v, ok := s.stateVisits[st]; ok {
			visits[st] = v
		}
	}
	connected := s.geo.Connected()
	fully := s.geo.FullyVisible()
	// Survivor-relative goal: re-evaluate gathering on the sub-configuration
	// of the robots that did not crash-stop. Without crash faults the subsets
	// coincide, so the survivor flag is exactly Gathered().
	crashed := adversary.CrashedIDs(s.opts.Strategy)
	survivorsGathered := connected && fully
	if len(crashed) > 0 {
		crashedSet := make(map[int]bool, len(crashed))
		for _, id := range crashed {
			crashedSet[id] = true
		}
		survivors := make(config.Geometric, 0, s.n-len(crashed))
		for i, c := range cfg {
			if !crashedSet[i] {
				survivors = append(survivors, c)
			}
		}
		survivorsGathered = survivors.Gathered(s.opts.Vision)
	}
	return Result{
		Outcome:           outcome,
		Algorithm:         s.opts.Algorithm.Name(),
		Adversary:         s.opts.Strategy.Name(),
		N:                 s.n,
		Events:            s.events,
		Cycles:            cycles,
		TerminatedCount:   terminated,
		Collisions:        s.collisions,
		Stops:             s.stops,
		Arrivals:          s.arrivals,
		TotalDistance:     distance,
		Final:             cfg,
		Milestones:        s.milestones,
		StateVisits:       visits,
		HullAreaSeries:    append([]float64(nil), s.areaSeries...),
		SpreadSeries:      append([]float64(nil), s.spreadSeries...),
		ConnectedAtEnd:    connected,
		FullyVisibleAtEnd: fully,
		CrashedCount:      len(crashed),
		SurvivorsGathered: survivorsGathered,
		LivelockTrace:     s.llTrace,
		Err:               err,
	}
}

// Run is a convenience helper: build a simulator for the initial
// configuration and run it.
func Run(initial config.Geometric, opts Options) (Result, error) {
	s, err := New(initial, opts)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}
