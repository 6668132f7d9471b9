// Command gatherviz renders configurations and the paper's figures as SVG,
// and replays recorded trace snippets (for example the livelock snippets
// gathersim -livelock-trace and gatherbench livelocks write).
//
// Example:
//
//	gatherviz -figure fig2 -out fig2.svg
//	gatherviz -workload nested-hulls -n 12 -seed 4 -out start.svg
//	gatherviz -trace livelock.json -frame -1 -out cycle.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	fatgather "github.com/fatgather/fatgather"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/trace"
	"github.com/fatgather/fatgather/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gatherviz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gatherviz", flag.ContinueOnError)
	figure := fs.String("figure", "", "paper figure to render: fig1, fig2, fig3, fig5 (empty: render a workload)")
	wl := fs.String("workload", "random", "workload kind to render when -figure is empty")
	n := fs.Int("n", 8, "number of robots")
	seed := fs.Int64("seed", 1, "workload seed")
	tracePath := fs.String("trace", "", "replay a recorded trace file (JSON) instead of rendering a figure or workload")
	frame := fs.Int("frame", -1, "frame index to render with -trace (negative: from the end, -1 is the last frame)")
	outPath := fs.String("out", "", "output SVG path (default: stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the render to this file (go tool pprof)")
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
				fmt.Fprintln(os.Stderr, "gatherviz: -memprofile:", err)
				return
			}
			runtime.GC() // materialize the live heap before snapshotting it
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gatherviz: -memprofile:", err)
			}
			f.Close()
		}()
	}

	if *tracePath != "" {
		if *figure != "" {
			return fmt.Errorf("-trace and -figure are mutually exclusive")
		}
		return replayTrace(*tracePath, *frame, *outPath, out)
	}

	var svg string
	switch *figure {
	case "fig1":
		svg = viz.FigureStateCycle()
	case "fig2":
		svg = viz.FigureMoveToPoint(geom.V(0, 0), geom.V(8, 0), *n)
	case "fig3":
		hull := config.Geometric{geom.V(0, 0), geom.V(12, 0), geom.V(14, 9), geom.V(6, 14), geom.V(-2, 9)}
		svg = viz.FigureFindPoints(hull, *n)
	case "fig5":
		svg = viz.FigureStraightLine(geom.V(0, 0), geom.V(5, 0.08), geom.V(10, 0), *n)
	case "":
		pts, err := fatgather.GenerateWorkload(fatgather.Workload(*wl), *n, *seed)
		if err != nil {
			return err
		}
		svg = fatgather.RenderSVG(pts)
	default:
		return fmt.Errorf("unknown figure %q", *figure)
	}

	if *outPath == "" {
		fmt.Fprint(out, svg)
		return nil
	}
	if err := os.WriteFile(*outPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// replayTrace renders one frame of a recorded trace as SVG and prints the
// snippet's metadata (frame count, event span, per-robot states of the
// rendered frame) so a livelock snippet is inspectable at a glance.
func replayTrace(path string, frame int, outPath string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if tr.Len() == 0 {
		return fmt.Errorf("trace %s has no frames", path)
	}
	idx := frame
	if idx < 0 {
		idx = tr.Len() + idx
	}
	if idx < 0 || idx >= tr.Len() {
		return fmt.Errorf("frame %d out of range (trace has %d frames)", frame, tr.Len())
	}
	fr := tr.Frames[idx]
	fmt.Fprintf(out, "trace:     %s (algorithm %s, adversary %s, n=%d)\n", path, tr.Algorithm, tr.Adversary, tr.N)
	fmt.Fprintf(out, "frames:    %d (events %d..%d)\n", tr.Len(), tr.Frames[0].Event, tr.Frames[tr.Len()-1].Event)
	fmt.Fprintf(out, "rendering: frame %d (event %d)\n", idx, fr.Event)
	if len(fr.States) == len(fr.Centers) {
		for i, st := range fr.States {
			line := fmt.Sprintf("robot %d: %-7s at (%.3f, %.3f)", i, st, fr.Centers[i].X, fr.Centers[i].Y)
			if len(fr.Targets) == len(fr.Centers) && fr.Targets[i] != nil {
				line += fmt.Sprintf(" -> (%.3f, %.3f)", fr.Targets[i].X, fr.Targets[i].Y)
			}
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	svg := viz.SVG(tr.Config(idx), viz.SVGOptions{DrawHull: true, Labels: true})
	if outPath == "" {
		fmt.Fprint(out, svg)
		return nil
	}
	if err := os.WriteFile(outPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}
