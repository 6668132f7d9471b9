package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// traced runs the traced phase after the timed phases and returns the
// per-layer metrics. It makes
//   - one more run and store phase under timing decorators, for the engine,
//     workload and sweep layers;
//   - an untraced run and store phase on one worker, when the workload uses
//     more;
//   - a sequential replay of every cell through sim.Run, for the core,
//     adversary, sim, incr and livelock layers.
//
// Each must reproduce the reference phases' output. Engine and runtime
// metrics come from the untraced timed run phases. The span aggregates are
// written to spansOut.
func traced(w *workloadSpec, dir string, refRun runResult, refStore storeResult, runs []runResult, gcFraction float64, chk *checker, spansOut io.Writer) (map[string]metric, error) {
	tr := newTracer()
	tp, results, err := runPhase(w, filepath.Join(dir, "run"), w.workers, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run phase: %w", err)
	}
	chk.run("traced run phase", refRun, tp)
	ts, err := storePhase(w, newStoreInput(results), filepath.Join(dir, "store"), w.workers, tr)
	if err != nil {
		return nil, fmt.Errorf("traced store phase: %w", err)
	}
	chk.store("traced store phase", refStore, ts)
	if w.workers > 1 {
		one, results, err := runPhase(w, filepath.Join(dir, "run"), 1, nil)
		if err != nil {
			return nil, fmt.Errorf("one-worker run phase: %w", err)
		}
		chk.run("one-worker run phase", refRun, one)
		s, err := storePhase(w, newStoreInput(results), filepath.Join(dir, "store"), 1, nil)
		if err != nil {
			return nil, fmt.Errorf("one-worker store phase: %w", err)
		}
		chk.store("one-worker store phase", refStore, s)
	}
	rs, err := replay(w, tr)
	if err != nil {
		return nil, fmt.Errorf("sequential replay: %w", err)
	}
	chk.attempted += rs.attempted
	chk.failed += rs.failed
	if rs.digest != refRun.digest {
		chk.fail("sequential replay: digest run=%016x, want %016x", rs.digest, refRun.digest)
	}
	if a, b := tr.engineDecide.count.Load(), tr.decide.count.Load(); a != b {
		chk.fail("traced run phase made %d Decide calls, the sequential replay %d", a, b)
	}

	fastest := runs[0]
	for _, p := range runs[1:] {
		if p.wall < fastest.wall {
			fastest = p
		}
	}
	var busy time.Duration
	cellMs := make([]float64, len(fastest.cellElapsed))
	for i, d := range fastest.cellElapsed {
		busy += d
		cellMs[i] = float64(d) / float64(time.Millisecond)
	}
	walls := each(runs, func(p runResult) float64 { return p.wall.Seconds() })
	events := float64(rs.events)
	records := float64(ts.records)
	total := func(s *span) float64 { return float64(s.totalNs.Load()) }
	count := func(s *span) float64 { return float64(s.count.Load()) }
	metrics := map[string]metric{
		"core.decide_calls":                  {count(tr.decide), "count"},
		"core.ns_per_call":                   {ratio(total(tr.decide), count(tr.decide)), "ns"},
		"core.share":                         {ratio(total(tr.decide), total(tr.simRun)), "ratio"},
		"incr.moves":                         {count(tr.incrReplay), "count"},
		"incr.ns_per_move":                   {ratio(total(tr.incrReplay), count(tr.incrReplay)), "ns"},
		"adversary.ns_per_event":             {ratio(total(tr.schedule), events), "ns"},
		"sim.events":                         {events, "count"},
		"sim.self_ns_per_event":              {ratio(float64(tr.simRun.selfNs()), events), "ns"},
		"livelock.cells_certified":           {float64(rs.certified), "count"},
		"livelock.ns_per_event":              {ratio(total(tr.detectOn)-total(tr.detectOff), events), "ns"},
		"engine.busy_ratio":                  {ratio(float64(busy), float64(w.workers)*float64(fastest.wall)), "ratio"},
		"engine.cell_ms_p50":                 {percentile(cellMs, 50), "ms"},
		"engine.cell_ms_p99":                 {percentile(cellMs, 99), "ms"},
		"engine.cell_samples":                {float64(len(cellMs)), "count"},
		"workload.generate_calls":            {count(tr.generate), "count"},
		"workload.cache_hit_ratio":           {ratio(float64(tp.cacheHits), float64(tp.cacheHits+tp.cacheMisses)), "ratio"},
		"sweep.append_ns_per_record":         {ratio(total(tr.storeAppend), records), "ns"},
		"sweep.backend_append_ns_per_record": {ratio(total(tr.backendAppend), records), "ns"},
		"sweep.open_ns_per_record":           {ratio(total(tr.storeOpen), records), "ns"},
		"sweep.backend_read_ns_per_record":   {ratio(total(tr.backendRead), records), "ns"},
		"sweep.bytes_per_record":             {ratio(float64(tr.appendBytes.Load()), records), "bytes"},
		"runtime.gc_cycles":                  {median(each(runs, func(p runResult) float64 { return float64(p.gcCycles) })), "count"},
		"runtime.gc_cpu_fraction":            {gcFraction, "ratio"},
		"runtime.alloc_bytes_per_event":      {ratio(median(each(runs, func(p runResult) float64 { return float64(p.bytes) })), events), "bytes"},
		"bench.trace_overhead":               {ratio(float64(tp.wall), float64(fastest.wall)), "ratio"},
		"bench.pass_spread":                  {ratio(slices.Max(walls), slices.Min(walls)), "ratio"},
	}
	return metrics, writeSpans(spansOut, tr)
}

// writeSpans writes every span aggregate, sorted by name, as one JSON line.
func writeSpans(out io.Writer, tr *tracer) error {
	type row struct {
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		Count   int64  `json:"count"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	rows := make([]row, 0, len(tr.spans))
	for _, s := range tr.spans {
		r := row{Name: s.name, Count: s.count.Load(), TotalNs: s.totalNs.Load(), SelfNs: s.selfNs()}
		if s.parent != nil {
			r.Parent = s.parent.name
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	line, err := json.Marshal(map[string][]row{"spans": rows})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
