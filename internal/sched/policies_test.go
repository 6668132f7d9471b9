// The scheduling policies implement adversary.Strategy and answer in this
// package's MoveAction vocabulary. These tests pin the contract each one owes
// the event model (liveness-respecting picks, per-seed determinism, the
// distance each ruling grants), so they live beside that vocabulary as an
// external test package.

package sched_test

import (
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/robot"
)

func allStates(n int, s robot.State) adversary.Env {
	states := make([]robot.State, n)
	for i := range states {
		states[i] = s
	}
	return adversary.Env{States: states}
}

func TestFairRoundRobin(t *testing.T) {
	f := adversary.NewFair()
	candidates := []int{0, 1, 2, 3}
	env := allStates(4, robot.Wait)
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		seen[f.Next(candidates, env)]++
	}
	for id, count := range seen {
		if count != 2 {
			t.Fatalf("fair adversary scheduled robot %d %d times in 8 rounds", id, count)
		}
	}
	act := f.Move(0, 7.5, env)
	if act.Distance != 7.5 || act.Stop {
		t.Fatalf("fair move = %+v", act)
	}
}

func TestFairSkipsTerminated(t *testing.T) {
	f := adversary.NewFair()
	// Only robots 1 and 3 remain.
	candidates := []int{1, 3}
	env := allStates(4, robot.Wait)
	for i := 0; i < 6; i++ {
		got := f.Next(candidates, env)
		if got != 1 && got != 3 {
			t.Fatalf("fair scheduled non-candidate %d", got)
		}
	}
}

func TestRandomAsyncDeterministicPerSeed(t *testing.T) {
	a1 := adversary.NewRandomAsync(5)
	a2 := adversary.NewRandomAsync(5)
	candidates := []int{0, 1, 2, 3, 4}
	env := allStates(5, robot.Wait)
	for i := 0; i < 50; i++ {
		if a1.Next(candidates, env) != a2.Next(candidates, env) {
			t.Fatal("same seed should give the same schedule")
		}
		m1 := a1.Move(0, 3, env)
		m2 := a2.Move(0, 3, env)
		if m1 != m2 {
			t.Fatal("same seed should give the same move actions")
		}
		if m1.Distance < 0 || m1.Distance > 3 {
			t.Fatalf("move distance out of range: %v", m1.Distance)
		}
	}
}

func TestStopHappyAlwaysStops(t *testing.T) {
	a := adversary.NewStopHappy(1)
	env := allStates(5, robot.Wait)
	for i := 0; i < 10; i++ {
		act := a.Move(i, 5, env)
		if !act.Stop {
			t.Fatal("stop-happy must request a stop")
		}
		if act.Distance != 0 {
			t.Fatal("stop-happy requests minimal progress")
		}
	}
	if got := a.Next([]int{2, 4}, env); got != 2 && got != 4 {
		t.Fatalf("picked non-candidate %d", got)
	}
}

func TestSlowRobotConsistency(t *testing.T) {
	a := adversary.NewSlowRobot(3, 0.5)
	env := allStates(8, robot.Move)
	first := a.Move(7, 10, env)
	for i := 0; i < 5; i++ {
		if a.Move(7, 10, env) != first {
			t.Fatal("a robot's slow/fast designation must not change")
		}
	}
	// Fraction clamping: frac <= 0 never makes a robot slow, frac >= 1
	// always does.
	for id := 0; id < 8; id++ {
		if act := adversary.NewSlowRobot(1, -2).Move(id, 10, env); act.Distance != 10 {
			t.Fatalf("frac -2 slowed robot %d: %+v", id, act)
		}
		if act := adversary.NewSlowRobot(1, 5).Move(id, 10, env); act.Distance != 0 {
			t.Fatalf("frac 5 let robot %d move at full speed: %+v", id, act)
		}
	}
}

func TestMoverStarverPrefersIdle(t *testing.T) {
	a := adversary.NewMoverStarver(9)
	env := allStates(4, robot.Move)
	env.States[2] = robot.Wait
	idlePicks := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if a.Next([]int{0, 1, 2, 3}, env) == 2 {
			idlePicks++
		}
	}
	if idlePicks < rounds/2 {
		t.Fatalf("mover-starver picked the idle robot only %d/%d times", idlePicks, rounds)
	}
	act := a.Move(0, 4, env)
	if act.Distance < 0 || act.Distance > 4 {
		t.Fatalf("move distance out of range: %v", act.Distance)
	}
}

// TestRegistryAndNames pins that every state-only policy name builds through
// adversary.New and reports itself under that name.
func TestRegistryAndNames(t *testing.T) {
	names := []string{
		adversary.NameFair, adversary.NameRandomAsync, adversary.NameStopHappy,
		adversary.NameSlowRobot, adversary.NameMoverStarver,
	}
	for _, name := range names {
		s, err := adversary.New(adversary.Spec{Strategy: name}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("adversary %q reports name %q", name, s.Name())
		}
	}
}
