package adversary

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{Strategy: NameFair},
		{Strategy: NameRandomAsync},
		{Strategy: NameGreedyStall},
		{Strategy: NameRoundRobinLag},
		{Strategy: NameCrash, Crash: 1},
		{Strategy: NameCrash, Crash: 3},
		{Strategy: NameFair, Noise: 0.1},
		{Strategy: NameFair, Trunc: 0.25},
		{Strategy: NameStopHappy, Crash: 2, Noise: 0.05, Trunc: 0.5},
	}
	for _, want := range specs {
		text := want.String()
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got != want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", text, got, want)
		}
	}
}

func TestSpecStringCanonicalForms(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Strategy: NameFair}, "fair"},
		{Spec{Strategy: NameCrash}, "crash(1)"},
		{Spec{Strategy: NameCrash, Crash: 2}, "crash(2)"},
		{Spec{Strategy: NameFair, Crash: 2}, "fair+crash=2"},
		{Spec{Strategy: NameFair, Noise: 0.1, Trunc: 0.2}, "fair+noise=0.1+trunc=0.2"},
	}
	for _, tc := range cases {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestParseSpecShorthand(t *testing.T) {
	got, err := ParseSpec("crash")
	if err != nil {
		t.Fatal(err)
	}
	if got.Crash != 1 {
		t.Fatalf("ParseSpec(\"crash\").Crash = %d, want the default 1", got.Crash)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"bogus", "unknown adversary strategy"},
		{"", "empty strategy name"},
		{"fair(2)", "takes no argument"},
		{"crash(x)", "bad crash count"},
		{"crash(2", "unclosed parenthesis"},
		{"fair+noise", "want key=value"},
		{"fair+noise=abc", "bad noise bound"},
		{"fair+wobble=1", "unknown fault"},
		{"fair+trunc=1", "truncation fraction must be in [0, 1)"},
		{"fair+noise=-1", "noise bound must be non-negative"},
		{"fair+crash=-1", "crash count must be non-negative"},
		{"fair+noise=Inf", "noise bound must be finite"},
		{"fair+noise=NaN", "noise bound must be finite"},
		{"fair+trunc=NaN", "truncation fraction must be finite"},
	}
	for _, tc := range cases {
		if _, err := ParseSpec(tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) error %v, want substring %q", tc.text, err, tc.want)
		}
	}
}

// FuzzSpecRoundTrip: every spec text ParseSpec accepts renders, through
// String, to a text that parses back to the same normalized spec. The seeds
// include the non-finite magnitudes, which unseeded fuzzing does not reach
// within the 30 s CI budget.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"fair", "crash(2)", "crash+crash=0", "random-async+crash=1+noise=0.05+trunc=0.2",
		"fair+noise=Inf", "fair+noise=NaN", "fair+trunc=NaN", "fair+noise=-0", "fair+noise=0x1p-4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %#v, but its String %q does not parse: %v", text, s, s.String(), err)
		}
		if back != s.Normalized() {
			t.Fatalf("ParseSpec(%q) = %#v; String %q parses back to %#v, want %#v", text, s, s.String(), back, s.Normalized())
		}
	})
}

func TestGreedyStallDelaysHullShrinker(t *testing.T) {
	g := NewGreedyStall()
	// Robot 2 is moving from a hull corner toward the centroid: its arrival
	// shrinks the hull. Robot 1 moves along the hull edge (no shrink).
	env := Env{
		States:  []robot.State{robot.Wait, robot.Move, robot.Move, robot.Wait},
		Centers: []geom.Vec{geom.V(0, 0), geom.V(10, 0), geom.V(10, 10), geom.V(0, 10)},
		Targets: []geom.Vec{{}, geom.V(10, 5), geom.V(5, 5), {}},
	}
	cands := []int{0, 1, 2, 3}
	for i := 0; i < greedyStarveLimit-1; i++ {
		if got := g.Next(cands, env); got == 2 {
			t.Fatalf("victim activated on decision %d, before the starvation limit", i)
		}
	}
	if got := g.Next(cands, env); got != 2 {
		t.Fatalf("starved victim not forced after %d decisions, got %d", greedyStarveLimit, got)
	}
	// The victim crawls; a non-victim mover gets full speed.
	if a := g.Move(2, 4, env); a.Distance != 0 || a.Stop {
		t.Fatalf("victim move ruling %+v, want crawl", a)
	}
	if a := g.Move(1, 4, env); a.Distance != 4 {
		t.Fatalf("non-victim move ruling %+v, want full remaining", a)
	}
}

// randomEnv draws n robots in a square, about half of them moving toward a
// random target.
func randomEnv(rng *rand.Rand, n int) Env {
	env := Env{States: make([]robot.State, n), Centers: make([]geom.Vec, n), Targets: make([]geom.Vec, n)}
	for i := 0; i < n; i++ {
		env.States[i] = robot.Wait
		env.Centers[i] = geom.V(rng.Float64()*40, rng.Float64()*40)
		if rng.Intn(2) == 0 {
			env.States[i] = robot.Move
			env.Targets[i] = geom.V(rng.Float64()*40, rng.Float64()*40)
		}
	}
	return env
}

// TestGreedyStallVictimMatchesConvexHull checks victimOf, which computes its
// hulls in a reused HullScratch, against the same rule evaluated with the
// allocating geom.ConvexHull, on random Envs of varying size (so the scratch
// is reused across shrinking and growing inputs).
func TestGreedyStallVictimMatchesConvexHull(t *testing.T) {
	reference := func(env Env) int {
		if len(env.Centers) < 3 {
			return -1
		}
		area := geom.PolygonArea(geom.ConvexHull(env.Centers))
		victim, bestShrink := -1, 0.0
		for i, st := range env.States {
			if st != robot.Move {
				continue
			}
			pts := append([]geom.Vec(nil), env.Centers...)
			pts[i] = env.Targets[i]
			if shrink := area - geom.PolygonArea(geom.ConvexHull(pts)); shrink > bestShrink+geom.Eps {
				bestShrink, victim = shrink, i
			}
		}
		return victim
	}
	g := NewGreedyStall()
	rng := rand.New(rand.NewSource(5))
	victims := 0
	for trial := 0; trial < 500; trial++ {
		env := randomEnv(rng, 2+rng.Intn(30))
		want := reference(env)
		if got := g.victimOf(env); got != want {
			t.Fatalf("trial %d (n=%d): victim %d, reference %d", trial, len(env.Centers), got, want)
		}
		if want >= 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("no trial had a victim; the Envs do not exercise the rule")
	}
}

// TestGreedyStallAllocFree pins a warmed Next plus Move at zero allocations:
// the strategy runs once per event of every greedy-stall sweep cell.
func TestGreedyStallAllocFree(t *testing.T) {
	env := randomEnv(rand.New(rand.NewSource(9)), 24)
	cands := make([]int, len(env.Centers))
	for i := range cands {
		cands[i] = i
	}
	g := NewGreedyStall()
	step := func() {
		id := g.Next(cands, env)
		g.Move(id, 1, env)
	}
	for i := 0; i < 2*greedyStarveLimit; i++ {
		step() // warm the buffers and the starvation counters
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("warmed GreedyStall Next+Move allocates %v allocs/op, want 0", a)
	}
}

func TestRoundRobinLagRunsFullCycles(t *testing.T) {
	r := NewRoundRobinLag()
	states := []robot.State{robot.Wait, robot.Wait, robot.Wait}
	env := Env{States: states}
	cands := []int{0, 1, 2}
	step := func(want int) {
		t.Helper()
		if got := r.Next(cands, env); got != want {
			t.Fatalf("Next = %d, want %d (states %v)", got, want, states)
		}
	}
	// Robot 0's full cycle: Wait -> Look -> Compute -> Move -> Wait.
	step(0)
	states[0] = robot.Look
	step(0)
	states[0] = robot.Compute
	step(0)
	states[0] = robot.Move
	step(0)
	states[0] = robot.Wait // cycle complete: rotate to robot 1
	step(1)
	states[1] = robot.Look
	step(1)
}

func TestCrashStopsAfterFirstMove(t *testing.T) {
	// Base: fair round-robin over 3 robots, crash k=3 — every robot crashes
	// after its first completed move, so the run must eventually stall.
	strat, err := New(Spec{Strategy: NameCrash, Crash: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	states := []robot.State{robot.Wait, robot.Wait, robot.Wait}
	env := Env{States: states}
	cands := []int{0, 1, 2}

	// Put robot 0 in Move, let the strategy observe it there, then complete
	// the move (back to Wait): the Move -> Wait transition is what the crash
	// decorator detects as a completed first move.
	moved := 0
	states[moved] = robot.Move
	if id := strat.Next(cands, env); id == NoRobot {
		t.Fatal("stalled before any move completed")
	}
	states[moved] = robot.Wait
	// From here on the crashed robot must never be scheduled again.
	for i := 0; i < 50; i++ {
		id := strat.Next(cands, env)
		if id == moved {
			t.Fatalf("crashed robot %d scheduled again on decision %d", moved, i)
		}
		if id == NoRobot {
			t.Fatalf("stalled while non-crashed robots remain")
		}
	}
	// Once only the crashed robot remains, the strategy stalls.
	if id := strat.Next([]int{moved}, env); id != NoRobot {
		t.Fatalf("Next over only-crashed candidates = %d, want NoRobot", id)
	}
}

func TestCrashSelectionIsSeedDeterministic(t *testing.T) {
	pick := func(seed int64) int {
		c := NewCrash(NewFair(), 1, seed)
		states := make([]robot.State, 6)
		for i := range states {
			states[i] = robot.Wait
		}
		env := Env{States: states}
		c.Next([]int{0, 1, 2, 3, 4, 5}, env)
		for i := range states {
			if c.chosen[i] {
				return i
			}
		}
		return -1
	}
	if a, b := pick(3), pick(3); a != b {
		t.Fatalf("same seed chose different crash victims: %d vs %d", a, b)
	}
}

func TestFaultsPerturbViewBoundedAndSelfExact(t *testing.T) {
	f := NewFaults(NewFair(), 0.25, 0, 99)
	self := geom.V(1, 1)
	view := []geom.Vec{geom.V(5, 5), self, geom.V(-3, 2)}
	for trial := 0; trial < 100; trial++ {
		got := f.PerturbView(0, self, view)
		if len(got) != len(view) {
			t.Fatalf("view length changed: %d", len(got))
		}
		if got[1] != self {
			t.Fatalf("self-observation perturbed: %v", got[1])
		}
		for i := range view {
			if d := got[i].Dist(view[i]); d > 0.25+1e-12 {
				t.Fatalf("offset %g exceeds the noise bound", d)
			}
		}
	}
}

func TestFaultsPerturbMoveBounded(t *testing.T) {
	f := NewFaults(NewFair(), 0, 0.5, 7)
	for trial := 0; trial < 100; trial++ {
		granted := 2.0
		got := f.PerturbMove(0, granted, 3.0)
		if got > granted || got < granted*(1-0.5) || math.IsNaN(got) {
			t.Fatalf("truncated grant %g outside (%g, %g]", got, granted*0.5, granted)
		}
	}
}

func TestNewDecoratedNamesAndPerturberVisibility(t *testing.T) {
	cases := []struct {
		spec     Spec
		wantName string
		perturbs bool
	}{
		{Spec{Strategy: NameFair}, "fair", false},
		{Spec{Strategy: NameCrash, Crash: 2}, "crash(2)", false},
		{Spec{Strategy: NameFair, Noise: 0.1}, "fair+noise=0.1", true},
		{Spec{Strategy: NameCrash, Crash: 1, Trunc: 0.5}, "crash(1)+trunc=0.5", true},
	}
	for _, tc := range cases {
		strat, err := New(tc.spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		if strat.Name() != tc.wantName {
			t.Errorf("%+v: name %q, want %q", tc.spec, strat.Name(), tc.wantName)
		}
		if _, ok := strat.(Perturber); ok != tc.perturbs {
			t.Errorf("%+v: Perturber visibility %v, want %v", tc.spec, ok, tc.perturbs)
		}
	}
}
