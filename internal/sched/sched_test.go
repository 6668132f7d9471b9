package sched

import "testing"

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EventLook, EventCompute, EventDone, EventMove, EventStop, EventCollide, EventArrive}
	want := []string{"Look", "Compute", "Done", "Move", "Stop", "Collide", "Arrive"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q want %q", i, k.String(), want[i])
		}
	}
	if EventKind(42).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}
