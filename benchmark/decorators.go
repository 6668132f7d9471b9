package main

import (
	"sync/atomic"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/sched"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/workload"
)

// span aggregates every span of one name: the operations it covered, their
// summed duration, and how much of that the spans nested in it cover. The
// counters are atomic because engine workers share the decorators that
// record into them.
type span struct {
	name    string
	parent  *span
	count   atomic.Int64
	totalNs atomic.Int64
	childNs atomic.Int64
}

func (s *span) add(d time.Duration) { s.addN(d, 1) }

// addN records n operations that together took d.
func (s *span) addN(d time.Duration, n int64) {
	s.count.Add(n)
	s.totalNs.Add(int64(d))
	if s.parent != nil {
		s.parent.childNs.Add(int64(d))
	}
}

// selfNs is the span's time not covered by the spans nested in it.
func (s *span) selfNs() int64 { return s.totalNs.Load() - s.childNs.Load() }

// tracer holds the spans of a traced run. They are created up front and only
// aggregate, so memory stays bounded however many events a workload has.
type tracer struct {
	spans []*span

	// The traced pass: its run phase, the Decide calls its engine workers
	// make, and placement generation through the engine's workload hook.
	enginePass, engineDecide, generate *span
	// Its store phase: Store.Append calls and the backend appends inside
	// them; the store open before restoring and the backend reads inside it.
	storeAppend, backendAppend, storeOpen, backendRead *span
	appendBytes                                        atomic.Int64
	// The sequential replay through sim.Run, and the incr replay of its moves.
	simRun, decide, schedule, incrReplay *span
	// The livelock differential: reruns of the same cells with detection on
	// and off, whose decorator timings go to the rerun spans so they do not
	// count twice.
	detectOn, detectOff, rerunDecide, rerunSchedule *span
}

func newTracer() *tracer {
	t := &tracer{}
	mk := func(name string, parent *span) *span {
		s := &span{name: name, parent: parent}
		t.spans = append(t.spans, s)
		return s
	}
	t.enginePass = mk("engine.pass", nil)
	t.engineDecide = mk("engine.decide", nil)
	t.generate = mk("workload.generate", nil)
	t.storeAppend = mk("sweep.append", nil)
	t.backendAppend = mk("sweep.backend_append", t.storeAppend)
	t.storeOpen = mk("sweep.open", nil)
	t.backendRead = mk("sweep.backend_read", t.storeOpen)
	t.simRun = mk("sim.run", nil)
	t.decide = mk("core.decide", t.simRun)
	t.schedule = mk("adversary.schedule", t.simRun)
	t.incrReplay = mk("incr.replay", nil)
	t.detectOn = mk("livelock.detect_on", nil)
	t.detectOff = mk("livelock.detect_off", nil)
	t.rerunDecide = mk("livelock.rerun_decide", t.detectOff)
	t.rerunSchedule = mk("livelock.rerun_schedule", t.detectOff)
	return t
}

// timedCells returns copies of the cells whose algorithm records a span per
// Decide call. The decorator keeps the algorithm's name, so the cell keys do
// not change.
func (t *tracer) timedCells(cells []engine.Cell) []engine.Cell {
	out := make([]engine.Cell, len(cells))
	for i, c := range cells {
		inner := c.Algorithm
		if inner == nil {
			inner = sim.PaperAlgorithm{}
		}
		c.Algorithm = &timedAlgorithm{inner: inner, span: t.engineDecide}
		out[i] = c
	}
	return out
}

// timedWorkloads decorates a placement generator with a span per call.
func (t *tracer) timedWorkloads(gen engine.WorkloadFunc) engine.WorkloadFunc {
	return func(kind workload.Kind, n int, seed int64) (config.Geometric, error) {
		start := time.Now()
		cfg, err := gen(kind, n, seed)
		t.generate.add(time.Since(start))
		return cfg, err
	}
}

// appendBackend returns the backend decorator of the append phase, or nil on
// an untraced pass.
func (t *tracer) appendBackend() func(sweep.Backend) sweep.Backend {
	if t == nil {
		return nil
	}
	return func(b sweep.Backend) sweep.Backend {
		return &timedBackend{Backend: b, appendSpan: t.backendAppend, bytes: &t.appendBytes}
	}
}

// readBackend returns the backend decorator of the resume phase, or nil on an
// untraced pass.
func (t *tracer) readBackend() func(sweep.Backend) sweep.Backend {
	if t == nil {
		return nil
	}
	return func(b sweep.Backend) sweep.Backend {
		return &timedBackend{Backend: b, readSpan: t.backendRead}
	}
}

// appended records one Store.Append call; a no-op on an untraced pass.
func (t *tracer) appended(d time.Duration) {
	if t != nil {
		t.storeAppend.add(d)
	}
}

// opened records one store open; a no-op on an untraced pass.
func (t *tracer) opened(d time.Duration) {
	if t != nil {
		t.storeOpen.add(d)
	}
}

// timedAlgorithm decorates a sim.Algorithm with a span per Decide call. It
// reports the inner algorithm's name, so cell keys do not change, and the
// engine may share it across workers because span counters are atomic.
type timedAlgorithm struct {
	inner sim.Algorithm
	span  *span
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Decide(v core.View) core.Decision {
	start := time.Now()
	d := a.inner.Decide(v)
	a.span.add(time.Since(start))
	return d
}

// timedStrategy decorates an adversary.Strategy with a span per scheduling
// call and logs the robot moves it observes between events. It forwards
// Unwrap, so adversary.CrashedIDs still finds a crash decorator beneath it.
type timedStrategy struct {
	inner adversary.Strategy
	span  *span
	moves *moveLog
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Unwrap() adversary.Strategy { return s.inner }

func (s *timedStrategy) Next(candidates []int, env adversary.Env) int {
	s.moves.observe(env.Centers)
	start := time.Now()
	id := s.inner.Next(candidates, env)
	s.span.add(time.Since(start))
	return id
}

func (s *timedStrategy) Move(id int, remaining float64, env adversary.Env) sched.MoveAction {
	start := time.Now()
	a := s.inner.Move(id, remaining, env)
	s.span.add(time.Since(start))
	return a
}

// timedPerturber is a timedStrategy over a strategy that injects faults. It
// forwards the adversary.Perturber hook, which the simulator finds by type
// assertion, and exists only when the inner strategy has that hook.
type timedPerturber struct {
	*timedStrategy
	p adversary.Perturber
}

func (s timedPerturber) PerturbView(id int, self geom.Vec, view []geom.Vec) []geom.Vec {
	return s.p.PerturbView(id, self, view)
}

func (s timedPerturber) PerturbMove(id int, granted, remaining float64) float64 {
	return s.p.PerturbMove(id, granted, remaining)
}

// timeStrategy decorates inner with a span per scheduling call and a move
// log, keeping its Perturber hook exactly when inner has one.
func timeStrategy(inner adversary.Strategy, sp *span, moves *moveLog) adversary.Strategy {
	t := &timedStrategy{inner: inner, span: sp, moves: moves}
	if p, ok := inner.(adversary.Perturber); ok {
		return timedPerturber{timedStrategy: t, p: p}
	}
	return t
}

// moveLog recovers the simulator's move sequence from successive
// adversary.Env.Centers: exactly one robot moves per event, so each change
// between two observations is one move.
type moveLog struct {
	last  []geom.Vec
	moves []move
}

type move struct {
	id int
	to geom.Vec
}

func newMoveLog(initial []geom.Vec) *moveLog {
	return &moveLog{last: append([]geom.Vec(nil), initial...)}
}

func (m *moveLog) observe(centers []geom.Vec) {
	for i, c := range centers {
		if !sameVec(c, m.last[i]) {
			m.moves = append(m.moves, move{id: i, to: c})
			m.last[i] = c
		}
	}
}

// timedBackend decorates a sweep.Backend with spans around record appends
// and reads; a nil span leaves that method untimed.
type timedBackend struct {
	sweep.Backend
	appendSpan, readSpan *span
	bytes                *atomic.Int64
}

func (b *timedBackend) AppendRecord(line []byte) error {
	if b.appendSpan == nil {
		return b.Backend.AppendRecord(line)
	}
	start := time.Now()
	err := b.Backend.AppendRecord(line)
	b.appendSpan.add(time.Since(start))
	b.bytes.Add(int64(len(line)))
	return err
}

func (b *timedBackend) ReadRecords(off int64) ([]byte, int64, error) {
	if b.readSpan == nil {
		return b.Backend.ReadRecords(off)
	}
	start := time.Now()
	data, at, err := b.Backend.ReadRecords(off)
	b.readSpan.add(time.Since(start))
	return data, at, err
}
