package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// progress is the process-wide live-sweep tracker behind /progress. The
// sweep layer updates it through the package-level Sweep* write helpers; the
// only read is ProgressSnapshot, which belongs to the serving layer. One
// sweep (experiment) is active at a time, matching how the experiment suite
// drives the sweep layer; a Begin while another sweep is active finalizes
// the previous one first.
type progress struct {
	mu        sync.Mutex
	active    bool
	current   SweepState
	completed []SweepSummary
}

var defaultProgress progress

// maxCompleted bounds the completed-sweep history kept for /progress.
const maxCompleted = 64

// SweepState is the live view of one sweep.
type SweepState struct {
	Experiment      string `json:"experiment"`
	Owner           string `json:"owner,omitempty"`
	TotalGroups     int    `json:"total_groups"`
	GroupsClaimed   int    `json:"groups_claimed"`
	GroupsDone      int    `json:"groups_done"`
	LeasesReclaimed int    `json:"leases_reclaimed"`
	CellsExecuted   int64  `json:"cells_executed"`
	CellsRestored   int64  `json:"cells_restored"`
	// OpenGroups lists the adaptive groups still accumulating seeds, with
	// their live confidence-interval half-widths; sorted by group key. Empty
	// for non-adaptive sweeps.
	OpenGroups []AdaptiveGroupState `json:"open_groups,omitempty"`

	// openByKey backs OpenGroups between snapshots.
	openByKey map[string]AdaptiveGroupState
}

// AdaptiveGroupState is the live adaptive-stopping state of one group. Its
// JSON form renders HalfWidth as a string ("0.08", "+Inf"), like a histogram
// bucket's le: a group with fewer than two successful replicas has an
// infinite half-width, and JSON has no literal for it.
type AdaptiveGroupState struct {
	Group     string
	Seeds     int
	HalfWidth float64
}

// adaptiveGroupJSON is the wire form of AdaptiveGroupState.
type adaptiveGroupJSON struct {
	Group     string `json:"group"`
	Seeds     int    `json:"seeds"`
	HalfWidth string `json:"half_width"`
}

// MarshalJSON renders the half-width as a string (see AdaptiveGroupState).
func (a AdaptiveGroupState) MarshalJSON() ([]byte, error) {
	return json.Marshal(adaptiveGroupJSON{Group: a.Group, Seeds: a.Seeds, HalfWidth: formatFloat(a.HalfWidth)})
}

// UnmarshalJSON parses the string half-width MarshalJSON writes.
func (a *AdaptiveGroupState) UnmarshalJSON(data []byte) error {
	var w adaptiveGroupJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	hw, err := strconv.ParseFloat(w.HalfWidth, 64)
	if err != nil {
		return fmt.Errorf("obs: half_width: %w", err)
	}
	*a = AdaptiveGroupState{Group: w.Group, Seeds: w.Seeds, HalfWidth: hw}
	return nil
}

// SweepSummary is the terse record kept for a finished sweep.
type SweepSummary struct {
	Experiment    string `json:"experiment"`
	GroupsDone    int    `json:"groups_done"`
	CellsExecuted int64  `json:"cells_executed"`
	CellsRestored int64  `json:"cells_restored"`
}

// ProgressState is the /progress JSON document.
type ProgressState struct {
	// Active reports whether a sweep is running right now; when false the
	// remaining fields describe history only (the graceful idle response).
	Active bool `json:"active"`
	// Sweep is the live sweep, present only while Active.
	Sweep *SweepState `json:"sweep,omitempty"`
	// Completed lists finished sweeps, oldest first (bounded history).
	Completed []SweepSummary `json:"completed,omitempty"`
}

// SweepBegin marks a sweep as active. Write API.
func SweepBegin(experiment, owner string) {
	p := &defaultProgress
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		p.finishLocked()
	}
	p.active = true
	p.current = SweepState{Experiment: experiment, Owner: owner, openByKey: map[string]AdaptiveGroupState{}}
}

// SweepEnd finalizes the active sweep. Write API.
func SweepEnd() {
	p := &defaultProgress
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		p.finishLocked()
	}
}

func (p *progress) finishLocked() {
	p.completed = append(p.completed, SweepSummary{
		Experiment:    p.current.Experiment,
		GroupsDone:    p.current.GroupsDone,
		CellsExecuted: p.current.CellsExecuted,
		CellsRestored: p.current.CellsRestored,
	})
	if len(p.completed) > maxCompleted {
		p.completed = p.completed[len(p.completed)-maxCompleted:]
	}
	p.active = false
	p.current = SweepState{}
}

// SweepGroups records the total number of groups the active sweep will
// visit. Write API.
func SweepGroups(total int) {
	updateActive(func(s *SweepState) { s.TotalGroups = total })
}

// SweepGroupClaimed counts one group lease claim. Write API.
func SweepGroupClaimed() {
	updateActive(func(s *SweepState) { s.GroupsClaimed++ })
}

// SweepGroupDone counts one completed group. Write API.
func SweepGroupDone() {
	updateActive(func(s *SweepState) { s.GroupsDone++ })
}

// SweepLeaseReclaimed counts one expired lease taken over from a dead
// worker. Write API.
func SweepLeaseReclaimed() {
	updateActive(func(s *SweepState) { s.LeasesReclaimed++ })
}

// SweepCells adds executed/restored cell deltas. Write API.
func SweepCells(executed, restored int64) {
	updateActive(func(s *SweepState) {
		s.CellsExecuted += executed
		s.CellsRestored += restored
	})
}

// SweepAdaptive records the live adaptive-stopping state of one group:
// seeds run so far and the confidence-interval half-width. A closed group
// leaves the open set. Write API.
func SweepAdaptive(groupKey string, seeds int, halfWidth float64, closed bool) {
	updateActive(func(s *SweepState) {
		if closed {
			delete(s.openByKey, groupKey)
			return
		}
		s.openByKey[groupKey] = AdaptiveGroupState{Group: groupKey, Seeds: seeds, HalfWidth: halfWidth}
	})
}

func updateActive(f func(*SweepState)) {
	p := &defaultProgress
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	f(&p.current)
}

// ProgressSnapshot copies the live progress state. Read API: serving layer
// only — calling this from a determinism-contract package is a gatherlint
// obsread finding.
func ProgressSnapshot() ProgressState {
	p := &defaultProgress
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ProgressState{Active: p.active}
	st.Completed = append([]SweepSummary(nil), p.completed...)
	if p.active {
		cur := p.current
		cur.OpenGroups = make([]AdaptiveGroupState, 0, len(cur.openByKey))
		for k := range cur.openByKey {
			cur.OpenGroups = append(cur.OpenGroups, cur.openByKey[k])
		}
		sort.Slice(cur.OpenGroups, func(i, j int) bool { return cur.OpenGroups[i].Group < cur.OpenGroups[j].Group })
		cur.openByKey = nil
		st.Sweep = &cur
	}
	return st
}
