package trace_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/trace"
	"github.com/fatgather/fatgather/internal/workload"
)

// recordTrace runs one simulation from the given seed and returns the
// JSON-encoded trace of configuration snapshots every 50 events.
func recordTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	const n = 6
	w, err := workload.Generate(workload.KindClustered, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(w, sim.Options{
		Strategy:  adversary.NewRandomAsync(seed + 9),
		MaxEvents: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("agm-gathering", "random-async", n, seed)
	tr.Append(0, s.Config())
	for s.Events() < 5000 && !s.AllTerminated() {
		// A certified livelock ends the run early; detection is deterministic,
		// so both recordings of one seed cut off at the same event.
		if err := s.Step(); errors.Is(err, sim.ErrLivelocked) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if s.Events()%50 == 0 {
			tr.Append(s.Events(), s.Config())
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed %d: recorded trace invalid: %v", seed, err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalForSameSeed is the determinism contract of the whole
// pipeline (workload generator, adversary, simulator, trace encoder): the
// same seed must reproduce the execution byte for byte.
func TestTraceByteIdenticalForSameSeed(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := recordTrace(t, seed)
		b := recordTrace(t, seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two identical runs produced different trace bytes", seed)
		}
	}
}

// TestTraceDiffersAcrossSeeds guards against the opposite failure mode (the
// seed being ignored somewhere in the pipeline).
func TestTraceDiffersAcrossSeeds(t *testing.T) {
	if bytes.Equal(recordTrace(t, 1), recordTrace(t, 2)) {
		t.Fatal("different seeds produced identical traces")
	}
}
