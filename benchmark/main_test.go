package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/workload"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared reads the end-to-end and per-layer metrics BENCHMARK.json
// declares; every run must print exactly these.
func loadDeclared(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// runTiny makes one run of a workload at tiny size and fails the test unless
// every check of the run held.
func runTiny(t *testing.T, name string, trace bool) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := runConfig{workload: name, seed: 11, trace: trace, workdir: t.TempDir(), tiny: true}
	res, err := run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, stderr.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d\n%s",
			name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// Every workload prints every metric BENCHMARK.json declares, with its unit,
// and the counts that must be exact repeat exactly from one traced run to
// the next.
func TestWorkloadsAtTinySize(t *testing.T) {
	endToEnd, perLayer := loadDeclared(t)
	exact := []string{"sim.events", "core.decide_calls", "incr.moves", "livelock.cells_certified", "sweep.bytes_per_record"}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			checkMetrics(t, runTiny(t, name, false).Metrics, endToEnd)
			first := runTiny(t, name, true)
			checkMetrics(t, first.Metrics, perLayer)
			second := runTiny(t, name, true)
			for _, m := range exact {
				if first.Metrics[m] != second.Metrics[m] {
					t.Errorf("%s: %v in one run, %v in the next", m, first.Metrics[m].Value, second.Metrics[m].Value)
				}
			}
			if first.Metrics["incr.moves"].Value == 0 {
				t.Error("no move was replayed onto incr")
			}
		})
	}
}

// The timed strategy keeps what the simulator looks for in a strategy: the
// Perturber hook exactly when the inner strategy has one, and Unwrap, so
// adversary.CrashedIDs still reaches a crash decorator beneath it.
func TestTimedStrategyIsTransparent(t *testing.T) {
	build := func(text string) adversary.Strategy {
		t.Helper()
		spec, err := adversary.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		s, err := adversary.New(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, ok := timeStrategy(build("fair"), &span{}, nil).(adversary.Perturber); ok {
		t.Error("timed fair strategy has a Perturber hook")
	}
	if _, ok := timeStrategy(build("fair+noise=0.1"), &span{}, nil).(adversary.Perturber); !ok {
		t.Error("timed noisy strategy lost its Perturber hook")
	}

	initial, err := workload.Generate(workload.KindRing, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(initial, sim.Options{Strategy: build("crash(2)"), MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	decorated := timeStrategy(build("crash(2)"), &span{}, newMoveLog(initial))
	timed, err := sim.Run(initial, sim.Options{Strategy: decorated, MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if plain.CrashedCount == 0 {
		t.Fatal("no robot crashed, so the check proves nothing")
	}
	if timed.CrashedCount != plain.CrashedCount || timed.Events != plain.Events || !sameCenters(timed.Final, plain.Final) {
		t.Errorf("timed crash run: %d crashed, %d events; undecorated: %d crashed, %d events",
			timed.CrashedCount, timed.Events, plain.CrashedCount, plain.Events)
	}
}

// The incr replay ends where the run ended, and notices a missing move.
func TestIncrReplayFollowsTheRun(t *testing.T) {
	w, err := buildWorkload("compute-large-n", 5, true)
	if err != nil {
		t.Fatal(err)
	}
	c := w.cells[len(w.cells)-1]
	initial, err := workload.Generate(c.Workload, c.N, c.WorkloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	moves := newMoveLog(initial)
	res, _, err := simulate(c, initial, sim.PaperAlgorithm{}, &span{}, moves, c.MaxEvents, false)
	if err != nil {
		t.Fatal(err)
	}
	moves.observe(res.Final)
	if len(moves.moves) == 0 {
		t.Fatal("the run made no move")
	}
	if !replayIncr(&span{}, c, initial, moves.moves, res) {
		t.Error("replaying every logged move does not end where the run did")
	}
	if replayIncr(&span{}, c, initial, moves.moves[:len(moves.moves)-1], res) {
		t.Error("replaying all but the last move still matches the run")
	}
}
