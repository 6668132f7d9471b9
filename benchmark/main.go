// Command fatgather-bench is the repository's end-to-end and per-layer
// benchmark. It generates one workload's cells from a seed, runs them
// through the module's own engine, sweep store and simulator, checks every
// output, and prints its metrics as the last line of standard output:
//
//	bash benchmark/run.sh --workload sweep-small-n --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced phases; --trace 1
// also runs the workload under timing decorators and reports the per-layer
// metrics instead. README.md lists the workloads, the metrics and the layer
// each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run generates its inputs and makes a
	// warm-up run and store phase; setup_s is the median of these
	// repetitions.
	setupReps = 3
	// minPasses is the least number of timed run phases a run makes.
	minPasses = 3
	// minStoreReps is the least number of timed store phases a run makes.
	minStoreReps = 5
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig selects what one benchmark run does.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// tiny shrinks the workload to a few short cells (self-test only).
	tiny bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fatgather-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed that every input of the workload is derived from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed phases, half for run phases and half for store phases")
	traceLevel := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for scratch sweep stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceLevel < 0 || *traceLevel > 1 || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "fatgather-bench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.trace = *traceLevel == 1
	res, err := run(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fatgather-bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "fatgather-bench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run makes one benchmark run: setupReps set-ups, timed run and store phases
// for cfg.seconds, and with cfg.trace the traced phase. It prints a summary and
// the output digests to stdout, and failed checks and trace spans to stderr.
func run(cfg runConfig, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, fmt.Errorf("create workdir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return result{}, fmt.Errorf("create run dir: %w", err)
	}
	defer os.RemoveAll(dir)

	var (
		chk      checker
		w        *workloadSpec
		refRun   runResult
		refStore storeResult
		in       storeInput
		setups   []float64
	)
	// A traced run reports neither set-up time nor store-phase throughput,
	// so it sets up once and makes only the least number of store phases;
	// that keeps its heaviest seeds well inside the time a run may take.
	reps, storeWindow := setupReps, cfg.seconds/2
	if cfg.trace {
		reps, storeWindow = 1, 0
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		if w, err = buildWorkload(cfg.workload, cfg.seed, cfg.tiny); err != nil {
			return result{}, err
		}
		rp, results, err := runPhase(w, filepath.Join(dir, "setup-run"), w.workers, nil)
		if err != nil {
			return result{}, fmt.Errorf("warm-up run phase: %w", err)
		}
		in = newStoreInput(results)
		sp, err := storePhase(w, in, filepath.Join(dir, "setup-store"), w.workers, nil)
		if err != nil {
			return result{}, fmt.Errorf("warm-up store phase: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r == 0 {
			refRun, refStore = rp, sp
		}
		chk.run("warm-up run phase", refRun, rp)
		chk.store("warm-up store phase", refStore, sp)
	}

	// The timed window is split in two: identical run phases for the first
	// half and identical store phases, writing the last warm-up's results,
	// for the second. A store phase is short and rides on the file system,
	// so it gets a window of its own with many repetitions, not a few slots
	// between run phases.
	var runs []runResult
	start := time.Now()
	for len(runs) < minPasses || time.Since(start).Seconds() < cfg.seconds/2 {
		p, _, err := runPhase(w, filepath.Join(dir, "run"), w.workers, nil)
		if err != nil {
			return result{}, fmt.Errorf("timed run phase %d: %w", len(runs)+1, err)
		}
		chk.run(fmt.Sprintf("timed run phase %d", len(runs)+1), refRun, p)
		runs = append(runs, p)
	}
	var stores []storeResult
	start = time.Now()
	for len(stores) < minStoreReps || time.Since(start).Seconds() < storeWindow {
		s, err := storePhase(w, in, filepath.Join(dir, "store"), w.workers, nil)
		if err != nil {
			return result{}, fmt.Errorf("timed store phase %d: %w", len(stores)+1, err)
		}
		chk.store(fmt.Sprintf("timed store phase %d", len(stores)+1), refStore, s)
		stores = append(stores, s)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	runWalls := each(runs, func(p runResult) float64 { return p.wall.Seconds() })
	storeWalls := each(stores, func(s storeResult) float64 { return (s.appendWall + s.resumeWall).Seconds() })
	fmt.Fprintf(stdout, "workload %s seed %d: %d cells and %d events per run phase, %d records per store phase; "+
		"%d timed run phases of %.3f s to %.3f s, %d timed store phases of %.3f s to %.3f s\n",
		w.name, cfg.seed, refRun.cells, refRun.events, refStore.records,
		len(runs), slices.Min(runWalls), slices.Max(runWalls), len(stores), slices.Min(storeWalls), slices.Max(storeWalls))
	fmt.Fprintf(stdout, "digest run=%016x store=%016x\n", refRun.digest, refStore.digest)

	var metrics map[string]metric
	if cfg.trace {
		metrics, err = traced(w, filepath.Join(dir, "traced"), refRun, refStore, runs, ms.GCCPUFraction, &chk, stderr)
		if err != nil {
			return result{}, err
		}
	} else {
		metrics = endToEnd(setups, runs, stores)
	}
	for _, p := range chk.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	return result{
		Correct:   len(chk.problems) == 0 && chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, nil
}

// endToEnd reduces the timed phases to the end-to-end metrics: throughput
// from the fastest phase, because noise only adds time to this deterministic
// CPU-bound work, and allocation counts from the median phase.
func endToEnd(setups []float64, runs []runResult, stores []storeResult) map[string]metric {
	events := float64(runs[0].events)
	records := float64(stores[0].records)
	fastestRun := slices.Min(each(runs, func(p runResult) float64 { return p.wall.Seconds() }))
	fastestAppend := slices.Min(each(stores, func(s storeResult) float64 { return s.appendWall.Seconds() }))
	fastestResume := slices.Min(each(stores, func(s storeResult) float64 { return s.resumeWall.Seconds() }))
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"events_per_s":         {ratio(events, fastestRun), "events/s"},
		"allocs_per_event":     {ratio(median(each(runs, func(p runResult) float64 { return float64(p.mallocs) })), events), "allocs"},
		"append_records_per_s": {ratio(records, fastestAppend), "records/s"},
		"resume_records_per_s": {ratio(records, fastestResume), "records/s"},
		"allocs_per_record":    {ratio(median(each(stores, func(s storeResult) float64 { return float64(s.mallocs) })), records), "allocs"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
}

// checker accumulates a run's correctness verdict: operations attempted and
// failed, and every check that did not hold. Each phase counts its own
// operations, a cell or a record, once, so failed never exceeds attempted.
type checker struct {
	attempted, failed int64
	problems          []string
}

// run counts a run phase's cells and checks that it reproduced the reference
// run phase's output.
func (c *checker) run(what string, ref, p runResult) {
	c.attempted += int64(p.cells)
	c.failed += p.failed
	if p.digest != ref.digest {
		c.fail("%s: digest run=%016x, want %016x", what, p.digest, ref.digest)
	}
}

// store counts a store phase's records and checks that it reproduced the
// reference store phase's output.
func (c *checker) store(what string, ref, s storeResult) {
	c.attempted += int64(s.records)
	c.failed += s.failed
	if s.digest != ref.digest {
		c.fail("%s: digest store=%016x, want %016x", what, s.digest, ref.digest)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// ratio is a/b, or 0 when b is 0, so no metric is ever infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
