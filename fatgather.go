package fatgather

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/baseline"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/viz"
	"github.com/fatgather/fatgather/internal/workload"
)

// Point is a position in the plane (the center of a unit-disc robot).
type Point struct {
	X float64
	Y float64
}

// Workload names an initial-placement generator.
type Workload string

// Available workloads.
const (
	WorkloadRandom      Workload = Workload(workload.KindRandom)
	WorkloadClustered   Workload = Workload(workload.KindClustered)
	WorkloadCollinear   Workload = Workload(workload.KindCollinear)
	WorkloadGrid        Workload = Workload(workload.KindGrid)
	WorkloadRing        Workload = Workload(workload.KindRing)
	WorkloadTwoClusters Workload = Workload(workload.KindTwoClusters)
	WorkloadNestedHulls Workload = Workload(workload.KindNestedHulls)
)

// Workloads lists all built-in workload names.
func Workloads() []Workload {
	kinds := workload.Kinds()
	out := make([]Workload, len(kinds))
	for i, k := range kinds {
		out[i] = Workload(k)
	}
	return out
}

// AdversaryName names a scheduling strategy. Any value may also be a full
// adversary spec string composing fault injection onto a base strategy:
// "crash(2)" crash-stops two robots after their first move,
// "fair+noise=0.1" bounds sensor noise, "+trunc=0.2" truncates motion
// (see internal/adversary.ParseSpec for the grammar).
type AdversaryName string

// Available adversaries.
const (
	AdversaryFair         AdversaryName = "fair"
	AdversaryRandomAsync  AdversaryName = "random-async"
	AdversaryStopHappy    AdversaryName = "stop-happy"
	AdversarySlowRobot    AdversaryName = "slow-robot"
	AdversaryMoverStarver AdversaryName = "mover-starver"
	// AdversaryGreedyStall delays the robot whose move would shrink the
	// convex hull most.
	AdversaryGreedyStall AdversaryName = "greedy-stall"
	// AdversaryRoundRobinLag maximally skews activation phases: each robot
	// runs a full Look-Compute-Move cycle before the next robot acts.
	AdversaryRoundRobinLag AdversaryName = "round-robin-lag"
	// AdversaryCrash permanently stops one robot after its first completed
	// move (use the spec form "crash(k)" for k robots).
	AdversaryCrash AdversaryName = "crash"
)

// Adversaries lists all built-in base adversary names.
func Adversaries() []AdversaryName {
	names := adversary.Names()
	out := make([]AdversaryName, len(names))
	for i, n := range names {
		out[i] = AdversaryName(n)
	}
	return out
}

// AlgorithmName names a local algorithm.
type AlgorithmName string

// Available algorithms: the paper's algorithm plus the comparison baselines.
const (
	AlgorithmPaper       AlgorithmName = "agm-gathering"
	AlgorithmGravity     AlgorithmName = "baseline-gravity"
	AlgorithmSmallN      AlgorithmName = "baseline-smalln"
	AlgorithmTransparent AlgorithmName = "baseline-transparent"
)

// Algorithms lists all built-in algorithm names.
func Algorithms() []AlgorithmName {
	return []AlgorithmName{AlgorithmPaper, AlgorithmGravity, AlgorithmSmallN, AlgorithmTransparent}
}

// Options configures a gathering run.
type Options struct {
	// N is the number of robots (required unless Initial is given).
	N int
	// Workload selects the initial-placement generator (default
	// WorkloadRandom). Ignored when Initial is non-empty.
	Workload Workload
	// Initial, when non-empty, is used verbatim as the initial configuration
	// (centers of unit-disc robots; no two may overlap).
	Initial []Point
	// Seed drives both the workload generator and the adversary (default 1).
	Seed int64
	// AdversarySeed, when non-zero, seeds the adversary independently of
	// Seed (which then drives only the workload generator). RunBatch reports
	// each cell's derived adversary seed in BatchCell.AdversarySeed, so a
	// single batch cell can be replayed exactly with Run.
	AdversarySeed int64
	// Algorithm selects the local algorithm (default AlgorithmPaper).
	Algorithm AlgorithmName
	// Adversary selects the scheduler (default AdversaryRandomAsync).
	Adversary AdversaryName
	// Delta is the liveness minimum-progress distance (default 0.05).
	Delta float64
	// MaxEvents bounds the run (default 200000 events).
	MaxEvents int
	// StopWhenGathered stops as soon as the geometric goal holds rather than
	// waiting for every robot to terminate locally.
	StopWhenGathered bool
}

// Result reports a gathering run.
type Result struct {
	// Gathered is true when the final configuration is connected and fully
	// visible (Definition 1 of the paper).
	Gathered bool
	// AllTerminated is true when every robot reached its Terminate state.
	AllTerminated bool
	// Events, Cycles and DistanceTraveled measure the cost of the run.
	Events           int
	Cycles           int
	DistanceTraveled float64
	// EventsToGathered is the event index at which the gathering goal first
	// held (-1 if never).
	EventsToGathered int
	// EventsToFullVisibility is the event index at which all robots were on
	// the hull and mutually visible (-1 if never).
	EventsToFullVisibility int
	// Collisions counts motions truncated by touching another robot.
	Collisions int
	// Final is the final configuration.
	Final []Point
	// Algorithm and Adversary echo the names used.
	Algorithm string
	Adversary string
	// Outcome classifies how the run ended: "gathered", "all-terminated",
	// "stalled", "livelocked", "budget-exhausted" or "error". See the
	// outcome-taxonomy section of the README for the detection rules.
	Outcome string
	// LivelockTrace is a JSON-encoded bounded trace snippet of the certified
	// zero-progress cycle, nil unless Outcome is "livelocked". The document
	// can be replayed with gatherviz -trace.
	LivelockTrace []byte
}

// ErrBadOptions is returned for invalid option combinations.
var ErrBadOptions = errors.New("fatgather: invalid options")

// Run generates (or takes) an initial configuration and runs the selected
// algorithm under the selected adversary until termination, the gathering
// goal, or the event budget. It runs the same engine.Cell that RunBatch runs
// for a cell with these parameters.
func Run(opts Options) (Result, error) {
	cell, err := cellFor(opts)
	if err != nil {
		return Result{}, err
	}
	res, err := cell.Run()
	if err != nil {
		return Result{}, err
	}
	return resultFromSim(res), nil
}

// cellFor parses opts into an engine cell, splitting the adversary spec into
// the cell's fields the way engine.Batch.Cells does. Invalid options are
// reported as ErrBadOptions.
func cellFor(opts Options) (engine.Cell, error) {
	alg, err := algorithmFor(opts.Algorithm)
	if err != nil {
		return engine.Cell{}, err
	}
	cell := engine.Cell{
		Workload:         workload.Kind(opts.Workload),
		N:                opts.N,
		WorkloadSeed:     opts.Seed,
		Algorithm:        alg,
		AdversarySeed:    opts.AdversarySeed,
		Delta:            opts.Delta,
		MaxEvents:        opts.MaxEvents,
		StopWhenGathered: opts.StopWhenGathered,
	}
	if cell.Workload == "" {
		cell.Workload = workload.KindRandom
	}
	if cell.WorkloadSeed == 0 {
		cell.WorkloadSeed = 1
	}
	if cell.AdversarySeed == 0 {
		cell.AdversarySeed = opts.Seed
	}
	if len(opts.Initial) > 0 {
		cell.Initial = fromPoints(opts.Initial)
		if err := cell.Initial.Validate(); err != nil {
			return engine.Cell{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
	}
	name := opts.Adversary
	if name == "" {
		name = AdversaryRandomAsync
	}
	spec, err := adversary.ParseSpec(string(name))
	if err != nil {
		return engine.Cell{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	cell.Adversary, cell.Crash, cell.Noise, cell.Trunc = spec.Strategy, spec.Crash, spec.Noise, spec.Trunc
	if err := cell.Validate(); err != nil {
		return engine.Cell{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	return cell, nil
}

// resultFromSim converts a simulator result to the public Result form.
func resultFromSim(res sim.Result) Result {
	var llTrace []byte
	if res.LivelockTrace != nil {
		var buf bytes.Buffer
		if err := res.LivelockTrace.Encode(&buf); err == nil {
			llTrace = buf.Bytes()
		}
	}
	return Result{
		Gathered:               res.Gathered(),
		AllTerminated:          res.Outcome == sim.OutcomeAllTerminated,
		Events:                 res.Events,
		Cycles:                 res.Cycles,
		DistanceTraveled:       res.TotalDistance,
		EventsToGathered:       res.Milestones.Gathered,
		EventsToFullVisibility: res.Milestones.SafeConfig,
		Collisions:             res.Collisions,
		Final:                  toPoints(res.Final),
		Algorithm:              res.Algorithm,
		Adversary:              res.Adversary,
		Outcome:                res.Outcome.String(),
		LivelockTrace:          llTrace,
	}
}

// GenerateWorkload exposes the initial-placement generators.
func GenerateWorkload(kind Workload, n int, seed int64) ([]Point, error) {
	cfg, err := workload.Generate(workload.Kind(kind), n, seed)
	if err != nil {
		return nil, err
	}
	return toPoints(cfg), nil
}

// RenderSVG renders a configuration as an SVG document (with the convex hull
// of the centers drawn).
func RenderSVG(points []Point) string {
	return viz.SVG(fromPoints(points), viz.SVGOptions{DrawHull: true, Labels: true})
}

// RenderASCII renders a configuration as a coarse ASCII sketch.
func RenderASCII(points []Point, cols, rows int) string {
	return viz.ASCII(fromPoints(points), cols, rows)
}

// Validate checks that a configuration of robot centers is physically valid
// (no two unit discs overlap).
func Validate(points []Point) error {
	return fromPoints(points).Validate()
}

// IsGathered reports whether the configuration satisfies the paper's
// gathering goal: connected and fully visible.
func IsGathered(points []Point) bool {
	cfg := fromPoints(points)
	return cfg.Gathered(vision.Default)
}

// TelemetryJSON returns a JSON snapshot of the process-wide telemetry
// registry (internal/obs): counters such as simulation events and workload
// cache hits, gauges, and latency histograms accumulated by every Run and
// sweep in this process. The snapshot is advisory — telemetry is write-only
// for the simulation stack, so reading it (or not) never changes results,
// and snapshots are never part of a sweep store's identity.
func TelemetryJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func algorithmFor(name AlgorithmName) (sim.Algorithm, error) {
	switch name {
	case "", AlgorithmPaper:
		return sim.PaperAlgorithm{}, nil
	case AlgorithmGravity:
		return baseline.Gravity{}, nil
	case AlgorithmSmallN:
		return baseline.SmallN{}, nil
	case AlgorithmTransparent:
		return baseline.Transparent{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadOptions, name)
	}
}

func toPoints(cfg config.Geometric) []Point {
	out := make([]Point, len(cfg))
	for i, c := range cfg {
		out[i] = Point{X: c.X, Y: c.Y}
	}
	return out
}

func fromPoints(points []Point) config.Geometric {
	out := make(config.Geometric, len(points))
	for i, p := range points {
		out[i] = geom.V(p.X, p.Y)
	}
	return out
}
