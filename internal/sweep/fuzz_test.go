package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/obs"
)

// fuzzRecordLine is one well-formed record line of the current schema and
// engine version.
func fuzzRecordLine(key string, events int) string {
	line, err := json.Marshal(record{
		Schema: SchemaVersion,
		Engine: engine.Version,
		Key:    key,
		Result: &resultRecord{N: 3, Events: events, Cycles: 2, TotalDistance: 1.5},
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// FuzzStoreLoad feeds arbitrary bytes to the record loader through all three
// openers. A corrupt or truncated line must warn and never panic or mis-key:
// every loaded key comes from a line that decodes under the current schema
// and engine version, every corrupt line before the first version mismatch
// produces its own warning, and once an exclusive Open has compacted the
// log, reopening it yields the same keys and no warnings.
func FuzzStoreLoad(f *testing.F) {
	good := fuzzRecordLine("cell-a", 10)
	other := fuzzRecordLine("cell-b", 20)
	stale := strings.Replace(good, fmt.Sprintf(`"schema":%d`, SchemaVersion), `"schema":1`, 1)
	f.Add([]byte(""))
	f.Add([]byte(good + "\n" + other + "\n"))
	f.Add([]byte(good + "\n" + other[:len(other)/2]))
	f.Add([]byte(good + "\n{\"schema\":3,\"key\":garbage\n" + other + "\n"))
	f.Add([]byte("\n  \n" + good + "\n\n"))
	f.Add([]byte(good + "\n" + stale + "\n" + other + "\n"))
	f.Add([]byte(`{"schema":3,"engine":"x","key":""}` + "\n"))
	f.Add([]byte("null\n[]\n{}\n" + good + "\n"))

	restore := obs.SetDefaultOutput(io.Discard)
	f.Cleanup(restore)

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, corrupt := classifyLines(string(data))

		dir := t.TempDir()
		path := filepath.Join(dir, resultsFile)
		openers := []struct {
			name string
			open func(string) (*Store, error)
		}{
			{"OpenReadOnly", OpenReadOnly},
			{"OpenShared", OpenShared},
			{"Open", Open},
		}
		var keys []string
		for i, o := range openers {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := o.open(dir)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			got, warnings := st.Keys(), st.Warnings()
			if err := st.Close(); err != nil {
				t.Fatalf("%s: close: %v", o.name, err)
			}
			for _, k := range got {
				if !valid[k] {
					t.Fatalf("%s: loaded key %q from no valid line", o.name, k)
				}
			}
			for _, line := range corrupt {
				tag := fmt.Sprintf(":%d: skipping corrupt record", line)
				if !containsSubstring(warnings, tag) {
					t.Fatalf("%s: corrupt line %d produced no warning (warnings %q)", o.name, line, warnings)
				}
			}
			if i > 0 && !reflect.DeepEqual(got, keys) {
				t.Fatalf("%s loaded keys %q, %s loaded %q", o.name, got, openers[0].name, keys)
			}
			keys = got
		}

		// The last opener was the exclusive Open, which compacted the log.
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer again.Close()
		if w := again.Warnings(); len(w) != 0 {
			t.Fatalf("reopen after compaction warns %q", w)
		}
		if got := again.Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("reopen after compaction has keys %q, want %q", got, keys)
		}
	})
}

// classifyLines is the loader's contract stated independently of it: the
// keys of the lines that decode to a record of the current schema and engine
// version, and the 1-based numbers of the corrupt lines (undecodable or
// keyless) that precede the first version-mismatched record — the loader
// stops reading at a mismatch and discards the whole log.
func classifyLines(data string) (valid map[string]bool, corrupt []int) {
	valid = make(map[string]bool)
	for i, line := range strings.Split(data, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Key == "" {
			corrupt = append(corrupt, i+1)
			continue
		}
		if rec.Schema != SchemaVersion || rec.Engine != engine.Version {
			return valid, corrupt
		}
		valid[rec.Key] = true
	}
	return valid, corrupt
}

func containsSubstring(lines []string, sub string) bool {
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// FuzzLeaseRecord writes arbitrary bytes as a cell group's newest lease
// generation and claims the group. The claim must never panic or error: a
// well-formed, fresh, foreign record is respected (LeaseHeld), and anything
// else is reclaimed, after which the newest generation reads back owned by
// the claimant.
func FuzzLeaseRecord(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	record := func(owner string, expires time.Time) []byte {
		blob, err := json.Marshal(leaseRecord{Owner: owner, Group: "g", Expires: expires.UnixNano()})
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	for _, tc := range corruptLeases {
		f.Add([]byte(tc.blob))
	}
	f.Add(record("peer", now.Add(time.Minute)))       // fresh foreign
	f.Add(record("peer", now.Add(-time.Minute)))      // expired
	f.Add(record("peer", now.Add(2*MaxLeaseHorizon))) // clock-skewed
	f.Add(record("claimant", now.Add(time.Minute)))   // own
	f.Fuzz(func(t *testing.T, blob []byte) {
		b := newReadOnlyFSBackend(t.TempDir())
		b.now = func() time.Time { return now }
		writeNewestLease(t, b, "g", blob)
		rec, rerr := readLease(genPath(b.leaseDir("g"), 1))
		held := rerr == nil && rec.Owner != "claimant" && fresh(rec, now)

		st, err := b.TryClaim("g", "claimant", time.Minute)
		if err != nil {
			t.Fatalf("claim over %q: %v", blob, err)
		}
		if held {
			if st != LeaseHeld {
				t.Fatalf("claim over fresh foreign %q = %v, want LeaseHeld", blob, st)
			}
			return
		}
		if st != LeaseReclaimed {
			t.Fatalf("claim over %q = %v, want LeaseReclaimed", blob, st)
		}
		if got, err := newestLease(b, "g"); err != nil || got.Owner != "claimant" {
			t.Fatalf("lease after reclaiming %q = (%+v, %v), want owner claimant", blob, got, err)
		}
	})
}
