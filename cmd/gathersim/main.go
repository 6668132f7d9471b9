// Command gathersim runs one gathering simulation and prints a summary (and
// optionally an ASCII sketch or SVG of the final configuration).
//
// Example:
//
//	gathersim -n 8 -workload clustered -adversary random-async -seed 3 -ascii
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	fatgather "github.com/fatgather/fatgather"
	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/sim"
)

// defaultMaxEvents is the interactive single-run budget: sim.DefaultMaxEvents
// (200000), deliberately larger than the experiment suite's
// experiments.DefaultMaxEvents (150000) that gatherbench uses — one run gets
// headroom for slow-converging seeds, a sweep trades that tail for cost. A
// test pins both defaults.
const defaultMaxEvents = sim.DefaultMaxEvents

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		os.Exit(1)
	}
}

// adversaryUsage is the -adversary help: every base strategy of
// adversary.Names, plus the spec grammar adversary.ParseSpec accepts.
func adversaryUsage() string {
	return "adversary spec: a strategy (" + strings.Join(adversary.Names(), ", ") +
		"), with crash(k) for k crashed robots and optional +crash=k, +noise=x, +trunc=x fault suffixes, e.g. random-async+noise=0.05"
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gathersim", flag.ContinueOnError)
	n := fs.Int("n", 6, "number of robots")
	wl := fs.String("workload", "clustered", "workload kind (random, clustered, collinear, grid, ring, two-clusters, nested-hulls)")
	alg := fs.String("algorithm", "agm-gathering", "algorithm (agm-gathering, baseline-gravity, baseline-smalln, baseline-transparent)")
	adv := fs.String("adversary", "random-async", adversaryUsage())
	seed := fs.Int64("seed", 1, "random seed (workload and adversary)")
	maxEvents := fs.Int("max-events", defaultMaxEvents, "event budget")
	delta := fs.Float64("delta", 0.05, "liveness minimum-progress distance")
	stopWhenGathered := fs.Bool("stop-when-gathered", false, "stop as soon as the geometric goal holds")
	ascii := fs.Bool("ascii", false, "print an ASCII sketch of the final configuration")
	svgPath := fs.String("svg", "", "write an SVG of the final configuration to this file")
	llTracePath := fs.String("livelock-trace", "", "write the livelock trace snippet (if the run ends livelocked) to this file as JSON")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
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
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gathersim: -memprofile:", err)
				return
			}
			runtime.GC() // materialize the live heap before snapshotting it
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gathersim: -memprofile:", err)
			}
			f.Close()
		}()
	}

	res, err := fatgather.Run(fatgather.Options{
		N:                *n,
		Workload:         fatgather.Workload(*wl),
		Algorithm:        fatgather.AlgorithmName(*alg),
		Adversary:        fatgather.AdversaryName(*adv),
		Seed:             *seed,
		Delta:            *delta,
		MaxEvents:        *maxEvents,
		StopWhenGathered: *stopWhenGathered,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "algorithm:            %s\n", res.Algorithm)
	fmt.Fprintf(out, "adversary:            %s\n", res.Adversary)
	fmt.Fprintf(out, "robots:               %d\n", *n)
	fmt.Fprintf(out, "outcome:              %s\n", res.Outcome)
	fmt.Fprintf(out, "gathered:             %v\n", res.Gathered)
	fmt.Fprintf(out, "all terminated:       %v\n", res.AllTerminated)
	fmt.Fprintf(out, "events:               %d\n", res.Events)
	fmt.Fprintf(out, "cycles:               %d\n", res.Cycles)
	fmt.Fprintf(out, "distance traveled:    %.2f\n", res.DistanceTraveled)
	fmt.Fprintf(out, "collisions:           %d\n", res.Collisions)
	fmt.Fprintf(out, "events to full vis.:  %d\n", res.EventsToFullVisibility)
	fmt.Fprintf(out, "events to gathered:   %d\n", res.EventsToGathered)

	if *ascii {
		fmt.Fprintln(out)
		fmt.Fprint(out, fatgather.RenderASCII(res.Final, 72, 24))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(fatgather.RenderSVG(res.Final)), 0o644); err != nil {
			return fmt.Errorf("write svg: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", *svgPath)
	}
	if *llTracePath != "" {
		if res.LivelockTrace == nil {
			fmt.Fprintf(out, "no livelock trace recorded (outcome %s)\n", res.Outcome)
		} else if err := os.WriteFile(*llTracePath, res.LivelockTrace, 0o644); err != nil {
			return fmt.Errorf("write livelock trace: %w", err)
		} else {
			fmt.Fprintf(out, "wrote %s\n", *llTracePath)
		}
	}
	return nil
}
