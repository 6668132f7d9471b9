package adversary

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/fatgather/fatgather/internal/geom"
)

// Spec is the declarative description of an adversary: a base scheduling
// strategy plus optional fault decorations. It is what batch grids, sweep
// cell keys and CLI flags thread through the system; New turns it into a
// runnable Strategy.
//
// The zero value of every fault field means "off", so a Spec holding only a
// strategy name describes the undecorated base strategy.
type Spec struct {
	// Strategy is the base strategy name (one of Names). The special name
	// "crash" is fair scheduling with Crash robots crash-stopped.
	Strategy string
	// Crash, when positive, crash-stops that many robots: each permanently
	// stops after completing its first Move (never activated again). With the
	// base strategy "crash" a zero Crash means 1.
	Crash int
	// Noise, when positive, bounds the sensor noise radius: every non-self
	// center in a Look snapshot is displaced by a uniform offset of at most
	// this distance.
	Noise float64
	// Trunc, when positive, truncates motion: each Move grant is scaled by a
	// uniform factor in (1-Trunc, 1], which may undercut the liveness delta.
	// Must be < 1 (a full truncation would freeze robots forever).
	Trunc float64
}

// Base strategy names. The first five are the state-only policies (they
// rule on robot states alone); greedy-stall and round-robin-lag read the
// geometry in Env, and crash is fair scheduling with crash-stop faults.
const (
	NameFair          = "fair"
	NameRandomAsync   = "random-async"
	NameStopHappy     = "stop-happy"
	NameSlowRobot     = "slow-robot"
	NameMoverStarver  = "mover-starver"
	NameGreedyStall   = "greedy-stall"
	NameRoundRobinLag = "round-robin-lag"
	NameCrash         = "crash"
)

// Names returns every base strategy name in stable suite order.
func Names() []string {
	return []string{
		NameFair, NameRandomAsync, NameStopHappy, NameSlowRobot,
		NameMoverStarver, NameGreedyStall, NameRoundRobinLag, NameCrash,
	}
}

// Known reports whether name is a registered base strategy name.
func Known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// crashK is the effective crash count: the "crash" base strategy defaults to
// one crashed robot.
func (s Spec) crashK() int {
	if s.Strategy == NameCrash && s.Crash == 0 {
		return 1
	}
	return s.Crash
}

// Normalized returns the spec with defaulted fields made explicit (the
// "crash" strategy's implicit Crash=1), so that two specs describing the
// same adversary compare — and key persistent stores — identically.
func (s Spec) Normalized() Spec {
	s.Crash = s.crashK()
	return s
}

// String renders the canonical spec string, parseable by ParseSpec:
// "crash(2)", "fair+noise=0.1", "random-async+crash=1+noise=0.05+trunc=0.2".
// For a fault-free legacy spec it is exactly the base strategy name.
func (s Spec) String() string {
	var b strings.Builder
	if s.Strategy == NameCrash {
		fmt.Fprintf(&b, "%s(%d)", NameCrash, s.crashK())
	} else {
		b.WriteString(s.Strategy)
		if s.Crash > 0 {
			fmt.Fprintf(&b, "+crash=%d", s.Crash)
		}
	}
	if s.Noise > 0 {
		fmt.Fprintf(&b, "+noise=%g", s.Noise)
	}
	if s.Trunc > 0 {
		fmt.Fprintf(&b, "+trunc=%g", s.Trunc)
	}
	return b.String()
}

// ParseSpec parses a spec string: a base strategy name, optionally with a
// crash count ("crash(2)") and "+key=value" fault suffixes ("noise", "trunc",
// "crash"). ParseSpec(s.String()) round-trips for every valid Spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	parts := strings.Split(strings.TrimSpace(text), "+")
	head := strings.TrimSpace(parts[0])
	if open := strings.IndexByte(head, '('); open >= 0 {
		if !strings.HasSuffix(head, ")") {
			return s, fmt.Errorf("adversary: malformed spec %q (unclosed parenthesis)", text)
		}
		arg := head[open+1 : len(head)-1]
		head = head[:open]
		if head != NameCrash {
			return s, fmt.Errorf("adversary: strategy %q takes no argument (only %s(k) does)", head, NameCrash)
		}
		k, err := strconv.Atoi(arg)
		if err != nil {
			return s, fmt.Errorf("adversary: bad crash count %q in spec %q", arg, text)
		}
		s.Crash = k
	}
	s.Strategy = head
	if s.Strategy == NameCrash && s.Crash == 0 {
		s.Crash = 1
	}
	for _, part := range parts[1:] {
		key, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return s, fmt.Errorf("adversary: malformed fault %q in spec %q (want key=value)", part, text)
		}
		switch key {
		case "crash":
			k, err := strconv.Atoi(value)
			if err != nil {
				return s, fmt.Errorf("adversary: bad crash count %q in spec %q", value, text)
			}
			s.Crash = k
		case "noise":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return s, fmt.Errorf("adversary: bad noise bound %q in spec %q", value, text)
			}
			s.Noise = f
		case "trunc":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return s, fmt.Errorf("adversary: bad truncation fraction %q in spec %q", value, text)
			}
			s.Trunc = f
		default:
			return s, fmt.Errorf("adversary: unknown fault %q in spec %q (want crash, noise or trunc)", key, text)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec without constructing it: known base strategy and
// in-range fault magnitudes.
func (s Spec) Validate() error {
	if s.Strategy == "" {
		return fmt.Errorf("adversary: empty strategy name")
	}
	if !Known(s.Strategy) {
		return fmt.Errorf("adversary: unknown adversary strategy %q (have %s)", s.Strategy, strings.Join(Names(), ", "))
	}
	if s.Crash < 0 {
		return fmt.Errorf("adversary: crash count must be non-negative, got %d", s.Crash)
	}
	if s.Strategy == NameCrash && s.crashK() < 1 {
		return fmt.Errorf("adversary: the %s strategy needs a positive crash count, got %d", NameCrash, s.Crash)
	}
	// NaN passes every comparison below, and neither NaN nor ±Inf survives
	// the String/ParseSpec round trip, so both are rejected up front.
	if math.IsNaN(s.Noise) || math.IsInf(s.Noise, 0) {
		return fmt.Errorf("adversary: noise bound must be finite, got %g", s.Noise)
	}
	if math.IsNaN(s.Trunc) || math.IsInf(s.Trunc, 0) {
		return fmt.Errorf("adversary: truncation fraction must be finite, got %g", s.Trunc)
	}
	if s.Noise < 0 {
		return fmt.Errorf("adversary: noise bound must be non-negative, got %g", s.Noise)
	}
	if s.Trunc < 0 || s.Trunc >= 1 {
		return fmt.Errorf("adversary: truncation fraction must be in [0, 1), got %g", s.Trunc)
	}
	return nil
}

// named pins a constructed strategy's report name to the canonical spec
// string, so stored results and table rows always show the full decoration
// regardless of how decorators compose.
type named struct {
	Strategy
	label string
}

func (n named) Name() string { return n.label }

// Unwrap returns the renamed strategy.
func (n named) Unwrap() Strategy { return n.Strategy }

// Perturb forwards the optional fault hook of the wrapped strategy, keeping
// the Perturber type assertion visible through the rename.
func (n named) PerturbView(id int, self geom.Vec, view []geom.Vec) []geom.Vec {
	return n.Strategy.(Perturber).PerturbView(id, self, view)
}

func (n named) PerturbMove(id int, granted, remaining float64) float64 {
	return n.Strategy.(Perturber).PerturbMove(id, granted, remaining)
}

// New constructs the runnable Strategy a spec describes, seeding every random
// stream (base strategy, crash selection, fault noise) independently from
// seed. Equal (spec, seed) pairs produce byte-identical schedules; a
// fault-free spec builds the bare base strategy.
func New(s Spec, seed int64) (Strategy, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	var strat Strategy
	switch s.Strategy {
	case NameFair, NameCrash:
		// "crash" is crash-stop scheduling over the friendliest base, fair
		// round-robin, so the table isolates the crash fault from scheduling
		// hostility.
		strat = NewFair()
	case NameRandomAsync:
		strat = NewRandomAsync(seed)
	case NameStopHappy:
		strat = NewStopHappy(seed)
	case NameSlowRobot:
		strat = NewSlowRobot(seed, 0.25)
	case NameMoverStarver:
		strat = NewMoverStarver(seed)
	case NameGreedyStall:
		strat = NewGreedyStall()
	case NameRoundRobinLag:
		strat = NewRoundRobinLag()
	default:
		return nil, fmt.Errorf("adversary: unknown strategy %q", s.Strategy)
	}
	if k := s.crashK(); k > 0 {
		strat = NewCrash(strat, k, subseed(seed, 0xc7a54))
	}
	faulted := false
	if s.Noise > 0 || s.Trunc > 0 {
		strat = NewFaults(strat, s.Noise, s.Trunc, subseed(seed, 0xf4017))
		faulted = true
	}
	label := s.String()
	if strat.Name() == label {
		return strat, nil
	}
	if faulted {
		return named{Strategy: strat, label: label}, nil
	}
	return plainNamed{Strategy: strat, label: label}, nil
}

// plainNamed renames a strategy that carries no Perturber hook. (A separate
// type from named so that a renamed fault-free strategy does not satisfy
// Perturber by accident.)
type plainNamed struct {
	Strategy
	label string
}

func (n plainNamed) Name() string { return n.label }

// Unwrap returns the renamed strategy.
func (n plainNamed) Unwrap() Strategy { return n.Strategy }
