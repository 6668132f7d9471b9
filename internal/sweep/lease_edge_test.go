package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCheckLeaseTTL pins the validation boundary every backend shares: a TTL
// must be positive (a zero TTL would mint an instantly-expired lease that any
// peer reclaims immediately, silently disabling mutual exclusion) and must
// stay inside MaxLeaseHorizon (beyond it, peers treat the lease as the debris
// of a skewed clock and reclaim it anyway).
func TestCheckLeaseTTL(t *testing.T) {
	for _, ttl := range []time.Duration{time.Millisecond, time.Minute, MaxLeaseHorizon} {
		if err := CheckLeaseTTL(ttl); err != nil {
			t.Errorf("CheckLeaseTTL(%v) = %v, want nil", ttl, err)
		}
	}
	for _, ttl := range []time.Duration{0, -time.Second, MaxLeaseHorizon + time.Nanosecond, 48 * time.Hour} {
		if err := CheckLeaseTTL(ttl); err == nil {
			t.Errorf("CheckLeaseTTL(%v) = nil, want error", ttl)
		}
	}
}

// TestClaimRejectsBadTTL: the backend refuses to mint a lease it could not
// defend — zero, negative and beyond-horizon TTLs all fail the claim itself
// rather than producing a lease peers would instantly reclaim.
func TestClaimRejectsBadTTL(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Second, MaxLeaseHorizon + time.Hour} {
		b := newReadOnlyFSBackend(t.TempDir())
		if st, err := b.TryClaim("g", "w1", ttl); err == nil || st != LeaseHeld {
			t.Errorf("claim with ttl=%v = (%v, %v), want rejection", ttl, st, err)
		}
		if _, err := os.Stat(b.leaseDir("g")); !os.IsNotExist(err) {
			t.Errorf("claim with ttl=%v left a lease file behind", ttl)
		}
	}
}

// TestRenewRejectsBadTTL: renewal re-validates the TTL (a worker whose config
// mutated mid-run must not extend a lease beyond the horizon either).
func TestRenewRejectsBadTTL(t *testing.T) {
	b := newReadOnlyFSBackend(t.TempDir())
	if st, err := b.TryClaim("g", "w1", time.Minute); err != nil || st == LeaseHeld {
		t.Fatalf("claim: (%v, %v)", st, err)
	}
	for _, ttl := range []time.Duration{0, -time.Minute, MaxLeaseHorizon + time.Hour} {
		if ok, err := b.RenewLease("g", "w1", ttl); err == nil || ok {
			t.Errorf("renew with ttl=%v = (%v, %v), want rejection", ttl, ok, err)
		}
	}
}

func writeLeaseJSON(t *testing.T, b *FSBackend, group string, rec leaseRecord) {
	t.Helper()
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	writeNewestLease(t, b, group, append(blob, '\n'))
}

// TestClaimReclaimsClockSkewedLease: a lease whose expiry sits further out
// than MaxLeaseHorizon can only come from a peer with a broken clock; honoring
// it would park the group forever. The claim must treat it like an expired
// lease and take over.
func TestClaimReclaimsClockSkewedLease(t *testing.T) {
	b := newReadOnlyFSBackend(t.TempDir())
	writeLeaseJSON(t, b, "g", leaseRecord{
		Owner:   "skewed-peer",
		Group:   "g",
		Expires: time.Now().Add(1000 * time.Hour).UnixNano(),
	})
	st, err := b.TryClaim("g", "w2", time.Minute)
	if err != nil || st != LeaseReclaimed {
		t.Fatalf("claim over skewed lease = (%v, %v), want reclaim", st, err)
	}
	rec, err := newestLease(b, "g")
	if err != nil || rec.Owner != "w2" {
		t.Fatalf("lease after reclaim = (%+v, %v), want owner w2", rec, err)
	}
}

// corruptLeases is the torn-write taxonomy: a truncated JSON prefix, an empty
// file, a record with no owner, and a negative expiry are all the debris of a
// dead or broken writer. FuzzLeaseRecord starts from them too.
var corruptLeases = []struct {
	name string
	blob string
}{
	{"torn", `{"owner":"dead","gro`},
	{"empty", ""},
	{"ownerless", `{"group":"g","expires_unix_ns":9999999999999999999}`},
	{"negative-expiry", `{"owner":"dead","group":"g","expires_unix_ns":-1}`},
}

// TestClaimReclaimsCorruptLease walks corruptLeases: each must be reclaimed,
// not trusted and not fatal.
func TestClaimReclaimsCorruptLease(t *testing.T) {
	for _, tc := range corruptLeases {
		t.Run(tc.name, func(t *testing.T) {
			b := newReadOnlyFSBackend(t.TempDir())
			writeNewestLease(t, b, "g", []byte(tc.blob))
			st, err := b.TryClaim("g", "w2", time.Minute)
			if err != nil || st != LeaseReclaimed {
				t.Fatalf("claim over %s lease = (%v, %v), want reclaim", tc.name, st, err)
			}
			if rec, err := newestLease(b, "g"); err != nil || rec.Owner != "w2" {
				t.Fatalf("lease after reclaim = (%+v, %v), want owner w2", rec, err)
			}
		})
	}
}

// TestReadLeaseRejectsGarbage: readLease is the trust boundary for lease
// files; anything that does not parse into a JSON object errors rather than
// yielding a zero record a caller might mistake for expired-and-reclaimable.
func TestReadLeaseRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "lease.json")
	for _, blob := range []string{`{"owner":`, "not json at all", ""} {
		if err := os.WriteFile(p, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := readLease(p); err == nil {
			t.Errorf("readLease(%q) = (%+v, nil), want error", blob, rec)
		}
	}
	if _, err := readLease(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("readLease on a missing file = nil error")
	}
}

// TestFSBackendTryClaimTTLValidation: the backend surface rejects bad TTLs
// with the same message the manager uses, so a misconfigured worker fails
// loudly on its first claim instead of sweeping without mutual exclusion.
func TestFSBackendTryClaimTTLValidation(t *testing.T) {
	b, err := NewFSBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.TryClaim("g", "w1", 0); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("TryClaim ttl=0 error = %v, want ttl-must-be-positive", err)
	}
	if _, err := b.TryClaim("g", "w1", MaxLeaseHorizon+time.Hour); err == nil || !strings.Contains(err.Error(), "lease horizon") {
		t.Fatalf("TryClaim beyond horizon error = %v, want horizon rejection", err)
	}
	if ok, err := b.RenewLease("g", "w1", -time.Second); err == nil || ok {
		t.Fatalf("RenewLease ttl<0 = (%v, %v), want rejection", ok, err)
	}
}
