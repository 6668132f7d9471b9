package robot

import (
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Wait, "Wait"},
		{Look, "Look"},
		{Compute, "Compute"},
		{Move, "Move"},
		{Terminate, "Terminate"},
		{State(42), "State(42)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	r := New(3, geom.V(0, 0))
	if r.State != Wait {
		t.Fatal("new robot should be idle")
	}
	view := []geom.Vec{geom.V(0, 0), geom.V(5, 0)}
	if err := r.BeginLook(view); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginCompute(); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginMove(geom.V(4, 0)); err != nil {
		t.Fatal(err)
	}
	if r.State != Move {
		t.Fatal("robot should be moving")
	}
	if got := r.RemainingDistance(); got != 4 {
		t.Fatalf("remaining = %v", got)
	}
	moved := r.Advance(1.5)
	if moved != 1.5 {
		t.Fatalf("advance = %v", moved)
	}
	if r.RemainingDistance() <= 1e-9 {
		t.Fatal("not yet at target")
	}
	moved = r.Advance(100)
	if moved != 2.5 {
		t.Fatalf("advance clamped = %v", moved)
	}
	if r.RemainingDistance() > 1e-9 {
		t.Fatal("should be at target")
	}
	if err := r.FinishMove(); err != nil {
		t.Fatal(err)
	}
	if r.State != Wait {
		t.Fatal("should be back in Wait")
	}
	if len(r.View) != 0 {
		t.Fatal("view should be forgotten (obliviousness)")
	}
	if r.Cycles != 1 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
	if r.DistanceTraveled != 4 {
		t.Fatalf("distance = %v", r.DistanceTraveled)
	}
}

func TestTerminationPath(t *testing.T) {
	r := New(0, geom.V(1, 1))
	if err := r.BeginLook(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginCompute(); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !r.Terminated() {
		t.Fatal("robot should be terminated")
	}
}

func TestInvalidTransitions(t *testing.T) {
	r := New(0, geom.V(0, 0))
	if err := r.BeginCompute(); err == nil {
		t.Fatal("Compute from Wait should fail")
	}
	if err := r.BeginMove(geom.V(1, 1)); err == nil {
		t.Fatal("Move from Wait should fail")
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done from Wait should fail")
	}
	if err := r.FinishMove(); err == nil {
		t.Fatal("FinishMove from Wait should fail")
	}
	if err := r.BeginLook(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginLook(nil); err == nil {
		t.Fatal("Look from Look should fail")
	}
}

func TestAdvanceWhenNotMoving(t *testing.T) {
	r := New(0, geom.V(0, 0))
	if got := r.Advance(5); got != 0 {
		t.Fatalf("advance while idle = %v", got)
	}
	if got := r.RemainingDistance(); got != 0 {
		t.Fatalf("remaining while idle = %v", got)
	}
}

func TestAdvanceZeroLengthMove(t *testing.T) {
	r := New(0, geom.V(2, 2))
	_ = r.BeginLook(nil)
	_ = r.BeginCompute()
	_ = r.BeginMove(geom.V(2, 2)) // stay in place
	if got := r.Advance(1); got != 0 {
		t.Fatalf("advance on zero-length move = %v", got)
	}
	if r.RemainingDistance() > 1e-9 {
		t.Fatal("robot with zero-length move is at its target")
	}
	if err := r.FinishMove(); err != nil {
		t.Fatal(err)
	}
}
