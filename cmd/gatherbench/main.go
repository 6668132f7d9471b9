// Command gatherbench runs the experiment suite (E1..E15, defined in
// internal/experiments — see the package's godoc for the index) and prints
// each resulting table. Individual experiments can be selected by id; the
// multi-run experiments (E5, E7, E9, E10, E11, E13, E14, E15) are executed
// on the parallel batch engine, whose results are bit-identical for any
// worker count, can checkpoint every cell result to disk so that a killed
// sweep resumes where it stopped, and can be sharded across processes (or
// hosts on a shared filesystem) that cooperatively drain one sweep
// directory.
//
// Example:
//
//	gatherbench -seeds 5                    # full suite, all cores
//	gatherbench -only E5,E10 -seeds 8       # selected experiments
//	gatherbench -workers 1 -timing -only E5 # sequential wall-clock baseline
//	gatherbench -out sweep/                 # checkpoint cell results to disk
//	gatherbench -out sweep/ -resume         # re-run only the missing cells
//	gatherbench -adaptive-ci 500            # grow seeds until CI is tight
//
// Robustness: the single-adversary experiments accept an adversary override
// and fault-injection knobs (crash-stop robots, bounded sensor noise,
// bounded movement truncation), composed into one adversary spec:
//
//	gatherbench -only E5 -adversary greedy-stall   # worst-case scheduling
//	gatherbench -only E5 -crash 2                  # 2 robots crash-stop
//	gatherbench -only E10 -adversary fair -noise 0.1 -trunc 0.2
//	gatherbench -only E13,E14,E15                  # the robustness suite
//
// Sharded: run one of these per terminal/host — they split the work through
// lease files in the shared sweep directory, re-run a killed peer's cells
// once its leases expire, and each print the same byte-identical tables:
//
//	gatherbench -only E5 -out sweep/ -shard-owner "$(hostname)-$$"
//
// Adaptive sharding: -adaptive-ci composes with -shard-owner. The fleet
// coordinates the data-dependent seed grid through the shared store alone:
// any worker can pick up a group, run its next seed block, and re-evaluate
// the confidence interval against the merged cross-worker history, and
// -http shows a worker's open groups (seeds consumed, CI half-width) on
// /progress. The trajectory is deterministic given the
// stored results, so every worker converges on the same per-group seed
// counts and prints tables byte-identical to a single adaptive process:
//
//	gatherbench -only E14 -out sweep/ -adaptive-ci 800 -shard-owner w1
//	gatherbench -only E14 -out sweep/ -adaptive-ci 800 -shard-owner w2
//
// Network coordination: -coordinator replaces the shared sweep directory
// with a gatherd daemon (cmd/gatherd) — same leases and records, spoken over
// HTTP to per-experiment stores on the coordinator, so a fleet needs no
// shared mount. Coordinator runs always resume; the tables stay
// byte-identical to a filesystem or single-process run:
//
//	gatherd -addr :9340 -dir coord/ &
//	gatherbench -only E13 -coordinator http://localhost:9340 -shard-owner w1
//	gatherbench -only E13 -coordinator http://localhost:9340 -shard-owner w2
//
// Hosts that share neither a filesystem nor a network can still split a
// suite by experiment (-only), since each experiment has its own store.
//
// Livelocks: runs certified as zero-progress cycles (outcome "livelocked",
// see internal/sim/livelock.go) checkpoint a bounded trace snippet of the
// cycle with their store record; the livelocks subcommand lists them and
// extracts the snippets for replay with gatherviz -trace:
//
//	gatherbench -only E13 -out sweep/
//	gatherbench livelocks -out traces/ sweep/
//	gatherviz -trace traces/livelock-000.json
//
// Telemetry: every run feeds the internal/obs registry (event counts, cache
// hit rates, lease churn, adaptive CI state). The registry is write-only for
// the simulation stack — telemetry can never feed back into results, so a run
// with telemetry enabled is byte-identical to one without (a test pins this):
//
//	gatherbench -only E5 -telemetry-out telemetry.json   # JSON snapshot at exit
//	gatherbench -http :9090 &                            # live /metrics, /progress, /debug/pprof/
//	curl localhost:9090/progress                         # live sharded-sweep view
//	gatherbench -only E5 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/experiments"
	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sweep"
)

// defaultMaxEvents is the per-run budget of the experiment suite:
// experiments.DefaultMaxEvents (150000), deliberately smaller than the
// interactive single-run default sim.DefaultMaxEvents (200000) that
// gathersim uses — a sweep multiplies the budget across thousands of cells.
// A test pins both defaults.
const defaultMaxEvents = experiments.DefaultMaxEvents

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "livelocks" {
		return runLivelocks(args[1:], out)
	}
	fs := flag.NewFlagSet("gatherbench", flag.ContinueOnError)
	seeds := fs.Int("seeds", 3, "seeds per experiment cell (must be positive)")
	maxEvents := fs.Int("max-events", defaultMaxEvents, "event budget per run (must be positive)")
	workers := fs.Int("workers", 0, "worker pool size for the batch engine (0 = all cores; results are identical for any value)")
	timing := fs.Bool("timing", false, "print wall-clock per experiment")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	adv := fs.String("adversary", "", "adversary spec overriding the single-adversary experiments (E5, E7, E10, E11): a strategy name (fair, random-async, stop-happy, slow-robot, mover-starver, greedy-stall, round-robin-lag, crash) optionally decorated with faults, e.g. \"crash(2)\" or \"fair+noise=0.1+trunc=0.2\"")
	crash := fs.Int("crash", 0, "crash-stop fault: this many robots permanently stop after their first completed move (composes with -adversary; alone it implies the crash strategy over fair scheduling)")
	noise := fs.Float64("noise", 0, "sensor-noise fault: every sensed non-self center is displaced by a uniform offset of at most this distance (composes with -adversary)")
	trunc := fs.Float64("trunc", 0, "motion-truncation fault: each move grant is scaled by a uniform factor in (1-trunc, 1], possibly undercutting the liveness delta (composes with -adversary; must be < 1)")
	outDir := fs.String("out", "", "sweep directory: stream every cell result to <out>/<experiment> as workers finish")
	coordinator := fs.String("coordinator", "", "gatherd coordinator base URL (http://host:port): checkpoint and coordinate through per-experiment stores on the network coordinator instead of a shared -out directory (mutually exclusive with -out; implies -resume; composes with -shard-owner and -adaptive-ci)")
	resume := fs.Bool("resume", false, "re-use completed cells found in -out and run only the missing ones (requires -out)")
	adaptiveCI := fs.Float64("adaptive-ci", 0, "adaptive seed scheduling: grow each cell group's seeds until the 95% CI half-width of its event count falls below this target (0 = fixed seeds)")
	adaptiveMax := fs.Int("adaptive-max-seeds", 0, "seed cap per cell group in adaptive mode (0 = default cap)")
	shardOwner := fs.String("shard-owner", "", "cooperative sharding: this worker's unique id (e.g. host+pid); cell groups are claimed via lease files in the shared -out directory, so N such processes drain one sweep together (requires -out, implies -resume; composes with -adaptive-ci)")
	leaseTTL := fs.Duration("lease-ttl", 0, "lease expiry in cooperative sharding: a worker silent this long is presumed dead and its cells re-run (0 = 30s default; requires -shard-owner)")
	telemetryOut := fs.String("telemetry-out", "", "write a JSON snapshot of all telemetry (counters, gauges, histograms) to this file when the suite finishes; advisory only, never part of the sweep store")
	httpAddr := fs.String("http", "", "serve live telemetry on this address (host:port; :0 picks a free port) for the duration of the run: /metrics (Prometheus text), /progress (sweep JSON), /debug/pprof/")
	httpLinger := fs.Duration("http-linger", 0, "keep the -http telemetry server alive this long after the suite finishes, so scrapers can collect the final state (requires -http)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the suite finishes (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be positive, got %d (a non-positive value would render empty tables)", *seeds)
	}
	if *maxEvents < 1 {
		return fmt.Errorf("-max-events must be positive, got %d (a run needs a positive event budget)", *maxEvents)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	if *coordinator != "" && *outDir != "" {
		return fmt.Errorf("-coordinator and -out are mutually exclusive (pick one coordination medium)")
	}
	if *resume && *outDir == "" && *coordinator == "" {
		return fmt.Errorf("-resume requires -out or -coordinator (nothing to resume from)")
	}
	if *adaptiveCI < 0 {
		return fmt.Errorf("-adaptive-ci must be non-negative, got %g", *adaptiveCI)
	}
	if *adaptiveMax < 0 {
		return fmt.Errorf("-adaptive-max-seeds must be non-negative, got %d", *adaptiveMax)
	}
	if *adaptiveMax > 0 && *adaptiveCI == 0 {
		return fmt.Errorf("-adaptive-max-seeds requires -adaptive-ci (it only caps adaptive scheduling)")
	}
	if *shardOwner != "" && *outDir == "" && *coordinator == "" {
		return fmt.Errorf("-shard-owner requires -out or -coordinator (leases and results live in the shared sweep directory or on the coordinator)")
	}
	if *leaseTTL < 0 {
		return fmt.Errorf("-lease-ttl must be non-negative, got %v", *leaseTTL)
	}
	if *leaseTTL > 0 && *shardOwner == "" {
		return fmt.Errorf("-lease-ttl requires -shard-owner (it only configures cooperative sharding)")
	}
	if *crash < 0 {
		return fmt.Errorf("-crash must be non-negative, got %d", *crash)
	}
	if *noise < 0 {
		return fmt.Errorf("-noise must be non-negative, got %g", *noise)
	}
	if *trunc < 0 || *trunc >= 1 {
		return fmt.Errorf("-trunc must be in [0, 1), got %g", *trunc)
	}
	if *httpLinger < 0 {
		return fmt.Errorf("-http-linger must be non-negative, got %v", *httpLinger)
	}
	if *httpLinger > 0 && *httpAddr == "" {
		return fmt.Errorf("-http-linger requires -http (there is no server to keep alive)")
	}
	advSpecStr, err := adversarySpecFromFlags(*adv, *crash, *noise, *trunc)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *httpAddr != "" {
		// The telemetry server is read-only over the obs registry: it never
		// feeds back into the run (one-way contract), so serving while the
		// sweep executes cannot perturb results.
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		srv := &http.Server{Handler: obs.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		obs.Infof("gatherbench", "telemetry server listening on http://%s (/metrics /progress /debug/pprof/)", ln.Addr())
	}
	if *outDir != "" {
		// Fail before running anything if the sweep directory is unusable.
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
	}
	cfg := experiments.Config{
		Seeds:            *seeds,
		MaxEvents:        *maxEvents,
		Adversary:        advSpecStr,
		Workers:          *workers,
		SweepDir:         *outDir,
		Coordinator:      *coordinator,
		Resume:           *resume || *shardOwner != "" || *coordinator != "",
		AdaptiveCI:       *adaptiveCI,
		AdaptiveMaxSeeds: *adaptiveMax,
		ShardOwner:       *shardOwner,
		LeaseTTL:         *leaseTTL,
		// All warnings funnel through the serialized obs logger: one writer on
		// stderr, machine-parseable logfmt lines, no interleaving between the
		// engine's worker warnings and the sweep layer's.
		Warnf: func(format string, args ...any) {
			obs.Warnf("gatherbench", format, args...)
		},
	}
	// Backstop: the flag checks above should leave no invalid combination,
	// but the library-level validation is the single source of truth.
	if err := cfg.Validate(); err != nil {
		return err
	}

	suite := experiments.Suite()
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			wanted[id] = true
		}
	}
	for id := range wanted {
		known := false
		for _, e := range suite {
			if e.ID == id {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown experiment id %q", id)
		}
	}

	for _, e := range suite {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(cfg)
		if *timing {
			fmt.Fprintf(out, "-- %s: %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out, table.String())
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // materialize the live heap before snapshotting it
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if *telemetryOut != "" {
		if err := obs.Default.DumpJSON(*telemetryOut); err != nil {
			return fmt.Errorf("-telemetry-out: %w", err)
		}
	}
	if *httpLinger > 0 {
		obs.Infof("gatherbench", "suite done; telemetry server lingering for %v", *httpLinger)
		time.Sleep(*httpLinger)
	}
	return nil
}

// adversarySpecFromFlags composes -adversary with the fault flags into one
// canonical spec string ("" when no flag was given, so the experiments keep
// their per-driver defaults). Fault flags set to non-zero values override the
// same fault inside -adversary; -crash alone implies the crash strategy.
func adversarySpecFromFlags(adv string, crash int, noise, trunc float64) (string, error) {
	if adv == "" && crash == 0 && noise == 0 && trunc == 0 {
		return "", nil
	}
	var spec adversary.Spec
	if adv != "" {
		var err error
		spec, err = adversary.ParseSpec(adv)
		if err != nil {
			return "", fmt.Errorf("-adversary: %w", err)
		}
	} else if crash > 0 {
		spec.Strategy = adversary.NameCrash
	} else {
		// A bare fault flag perturbs the friendliest schedule, isolating the
		// fault from scheduling hostility (the E15 convention).
		spec.Strategy = adversary.NameFair
	}
	if crash > 0 {
		spec.Crash = crash
	}
	if noise > 0 {
		spec.Noise = noise
	}
	if trunc > 0 {
		spec.Trunc = trunc
	}
	if err := spec.Validate(); err != nil {
		return "", err
	}
	return spec.String(), nil
}

// runLivelocks implements the "livelocks" subcommand: scan sweep stores for
// runs certified as zero-progress cycles and extract their bounded trace
// snippets for replay (gatherviz -trace). Each source may be a flat store or
// a gatherbench -out directory (one store per experiment subdirectory);
// stores are read without being compacted or rewritten. Without -out the
// livelocked cells are only listed.
func runLivelocks(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gatherbench livelocks", flag.ContinueOnError)
	outDir := fs.String("out", "", "directory to write the snippet files (livelock-NNN.json) into (empty: list only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srcs := fs.Args()
	if len(srcs) == 0 {
		return fmt.Errorf("livelocks: no sweep directories given (usage: gatherbench livelocks [-out traces/] sweep1/ sweep2/ ...)")
	}
	var stores []string
	for _, src := range srcs {
		if _, err := os.Stat(filepath.Join(src, "results.jsonl")); err == nil {
			stores = append(stores, src)
			continue
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			return fmt.Errorf("livelocks: %w", err)
		}
		found := false
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if _, err := os.Stat(filepath.Join(src, e.Name(), "results.jsonl")); err == nil {
				stores = append(stores, filepath.Join(src, e.Name()))
				found = true
			}
		}
		if !found {
			return fmt.Errorf("livelocks: %s holds no sweep store (no results.jsonl at the top level or one directory below)", src)
		}
	}
	sort.Strings(stores)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("livelocks: -out: %w", err)
		}
	}
	count := 0
	for _, dir := range stores {
		st, err := sweep.OpenReadOnly(dir)
		if err != nil {
			return fmt.Errorf("livelocks: %w", err)
		}
		for _, warn := range st.Warnings() {
			obs.Warnf("livelocks", "%s", warn)
		}
		for _, key := range st.Keys() {
			stored, ok := st.Lookup(key)
			if !ok || stored.Err != nil || stored.Result.LivelockTrace == nil {
				continue
			}
			tr := stored.Result.LivelockTrace
			fmt.Fprintf(out, "%s: %s (adversary %s, n=%d, certified after %d events, %d frames)\n",
				dir, key, stored.Result.Adversary, stored.Result.N, stored.Result.Events, tr.Len())
			if *outDir != "" {
				path := filepath.Join(*outDir, fmt.Sprintf("livelock-%03d.json", count))
				f, err := os.Create(path)
				if err != nil {
					return fmt.Errorf("livelocks: %w", err)
				}
				if err := tr.Encode(f); err != nil {
					f.Close()
					return fmt.Errorf("livelocks: %w", err)
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("livelocks: %w", err)
				}
				fmt.Fprintf(out, "  wrote %s\n", path)
			}
			count++
		}
	}
	fmt.Fprintf(out, "%d livelocked cell(s)\n", count)
	return nil
}
