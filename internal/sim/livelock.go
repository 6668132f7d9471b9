package sim

// Livelock certification: detect zero-progress cycles and end the run with
// OutcomeLivelocked instead of burning the event budget.
//
// PR 4's round-robin-lag adversary exposed blocked-path livelocks: a robot
// forever targets a point behind a tangent neighbor, freeDistance returns 0,
// and every activation advances zero distance. Such a run is fully frozen —
// positions never change again — yet it used to consume the entire MaxEvents
// budget (the E13 default is 150000 events, with the last real progress
// often before event 500) and was then misreported as budget-exhausted.
//
// The detector is two-staged so the fair path pays almost nothing:
//
//  1. A streak counter. Every event either makes progress (a robot advanced
//     a positive distance, or a robot terminated) or it does not. Healthy
//     runs in the pinned experiment grids show zero-progress streaks up to
//     ~1150 events (E5 fair n=16: 1135; E9 random-async: 1037), so the
//     detector stays dormant until the streak reaches DefaultLivelockWindow
//     (2000) consecutive zero-progress events. Below the window the
//     per-event cost is one branch on a bool.
//  2. Configuration fingerprinting. Once the window is exceeded, every event
//     appends the exact joint configuration signature — per robot: protocol
//     state, position bits, move target bits, and a hash of the last view
//     snapshot — to a recurrence map. Zero progress freezes positions
//     bit-for-bit, so a true cycle repeats signatures exactly; when one
//     signature recurs DefaultLivelockRecurrences times (3) the livelock
//     is certified. Randomized strategies whose schedule never revisits the
//     exact joint state (view-noise faults re-perturb every Look) are
//     caught by a hard cap instead: a streak of
//     DefaultLivelockWindow*livelockHardCapFactor zero-progress events
//     certifies unconditionally, because by then the configuration has been
//     frozen for 8 windows with nothing left that could unfreeze it.
//
// Detection is deterministic (pure function of the event sequence) and is
// invisible to any run that ends within the window, which keeps the pinned
// fair-path byte-identical hashes valid: the pinned grids run with budgets
// <= 1200 events, strictly below the default window.
//
// While fingerprinting, the detector also keeps a bounded ring of trace
// frames (positions + protocol states + move targets); on certification the
// last DefaultLivelockTraceFrames of them become Result.LivelockTrace, a
// replayable snippet of the cycle for gatherviz -trace.

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"

	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/trace"
)

// Livelock detector settings. They are constants, not options: a livelocked
// run's event count and trace depend on them, and so do the results stored
// for it.
const (
	// DefaultLivelockWindow is the zero-progress streak length after which
	// configurations are fingerprinted. It must exceed the longest streak a
	// healthy (eventually progressing) run exhibits; the measured maximum
	// across the E5/E9/E10 grids is 1135.
	DefaultLivelockWindow = 2000
	// DefaultLivelockRecurrences is how many exact recurrences of one
	// configuration signature certify the livelock.
	DefaultLivelockRecurrences = 3
	// DefaultLivelockTraceFrames bounds the captured cycle snippet.
	DefaultLivelockTraceFrames = 24

	// livelockHardCapFactor: a zero-progress streak of window*factor events
	// certifies even without a signature recurrence (randomized schedules
	// over a joint state space too large to revisit exactly).
	livelockHardCapFactor = 8
	// livelockSeenCap bounds the signature map; on overflow the map is
	// cleared and recurrence counting restarts (the hard cap still ends the
	// run). Signatures are ~25 bytes per robot, so the cap also bounds
	// memory at roughly a few megabytes for moderate n.
	livelockSeenCap = 1 << 15
)

// ErrLivelocked is returned by Step when the detector certifies a
// zero-progress cycle; Run maps it to OutcomeLivelocked.
var ErrLivelocked = errors.New("sim: zero-progress cycle certified (livelock)")

// noteLivelockProgress consumes the per-event progress flag and advances the
// detector. It returns true when the livelock is certified, after storing
// the bounded cycle snippet in s.llTrace.
func (s *Simulator) noteLivelockProgress() bool {
	if s.progressed {
		s.progressed = false
		s.zeroStreak = 0
		s.llSeen = nil
		s.llFrames = s.llFrames[:0]
		return false
	}
	s.zeroStreak++
	if s.zeroStreak < DefaultLivelockWindow {
		return false
	}
	sig := s.livelockSignature()
	if s.llSeen == nil {
		s.llSeen = make(map[string]int)
	} else if len(s.llSeen) >= livelockSeenCap {
		s.llSeen = make(map[string]int)
	}
	s.llSeen[sig]++
	s.captureLivelockFrame()
	if s.llSeen[sig] >= DefaultLivelockRecurrences ||
		s.zeroStreak >= DefaultLivelockWindow*livelockHardCapFactor {
		s.llTrace = s.buildLivelockTrace()
		return true
	}
	return false
}

// livelockSignature fingerprints the joint configuration exactly: per robot
// the protocol state, the position bits, the move target bits (movers only),
// and a 64-bit hash of the last view snapshot. Zero progress freezes
// positions bit-for-bit, so cycling runs repeat signatures exactly and
// collisions between distinct configurations are impossible (the signature
// is injective up to the view hash).
func (s *Simulator) livelockSignature() string {
	b := s.llSig[:0]
	for _, r := range s.robots {
		b = append(b, byte(r.State))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Center.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Center.Y))
		if r.State == robot.Move {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Target.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Target.Y))
		}
		if len(r.View) > 0 {
			h := fnv.New64a()
			var buf [8]byte
			for _, c := range r.View {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.X))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Y))
				h.Write(buf[:])
			}
			b = binary.LittleEndian.AppendUint64(b, h.Sum64())
		}
	}
	s.llSig = b
	return string(b)
}

// captureLivelockFrame appends the current configuration to the bounded
// snippet ring (oldest frame dropped first).
func (s *Simulator) captureLivelockFrame() {
	f := trace.Frame{
		Event:   s.events,
		Centers: make([]trace.Point, s.n),
		States:  make([]string, s.n),
		Targets: make([]*trace.Point, s.n),
	}
	for i, r := range s.robots {
		f.Centers[i] = trace.Point{X: r.Center.X, Y: r.Center.Y}
		f.States[i] = r.State.String()
		if r.State == robot.Move {
			f.Targets[i] = &trace.Point{X: r.Target.X, Y: r.Target.Y}
		}
	}
	if len(s.llFrames) >= DefaultLivelockTraceFrames {
		copy(s.llFrames, s.llFrames[1:])
		s.llFrames = s.llFrames[:DefaultLivelockTraceFrames-1]
	}
	s.llFrames = append(s.llFrames, f)
}

// buildLivelockTrace freezes the snippet ring into a standalone trace. The
// Seed field is zero: the simulator never learns the workload seed (the
// engine layer owns seeding); stores and CLI output carry the seed alongside.
func (s *Simulator) buildLivelockTrace() *trace.Trace {
	if len(s.llFrames) == 0 {
		return nil
	}
	t := trace.New(s.opts.Algorithm.Name(), s.opts.Strategy.Name(), s.n, 0)
	t.Frames = append([]trace.Frame(nil), s.llFrames...)
	return t
}
