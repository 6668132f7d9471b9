package incr_test

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/geom/incr"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// decodeMove turns 5 fuzz bytes into one single-robot displacement: a robot
// index and a quantized (dx, dy) in [-8, 8) with 1/16 resolution — small
// enough to exercise corridor-interior updates, large enough to leave
// corridors entirely.
func decodeMove(buf []byte, n int) (robot int, dx, dy float64) {
	robot = int(buf[0]) % n
	dx = float64(int16(binary.LittleEndian.Uint16(buf[1:3]))) / 4096
	dy = float64(int16(binary.LittleEndian.Uint16(buf[3:5]))) / 4096
	return robot, dx, dy
}

// FuzzCacheMatchesScratch extends the FuzzConvexHull-style fuzzing in
// internal/geom to the incremental cache: fuzz an initial workload plus a
// move sequence and assert after every single move that the incremental state
// equals a from-scratch rebuild (incr.New on the same centers) on every
// predicate — visibility matrix, hull corners/area/boundary count,
// connectivity and spread. The corpus is seeded with the known livelock
// configurations from the PR 6 detector work (nested-hulls n=6 seed 1 under
// round-robin-lag; clustered n=5 seed 3 and clustered n=6 under fair /
// random-async schedules), whose repeated zero-progress collision loops are
// exactly the pathological move pattern the cache sees in production.
func FuzzCacheMatchesScratch(f *testing.F) {
	kinds := workload.Kinds()

	// Known livelock configurations (PR 6) as corpus seeds; the move bytes
	// nudge robot 0 back and forth, a minimal zero-progress-like loop.
	osc := []byte{
		0, 0x00, 0x10, 0x00, 0x00, // +1.0 in x
		0, 0x00, 0xf0, 0x00, 0x00, // -1.0 in x (back)
		0, 0x00, 0x10, 0x00, 0x00,
	}
	f.Add(uint8(6), uint8(6), int64(1), osc) // nested-hulls n=6 seed 1
	f.Add(uint8(1), uint8(5), int64(3), osc) // clustered n=5 seed 3
	f.Add(uint8(1), uint8(6), int64(1), osc) // clustered n=6
	f.Add(uint8(0), uint8(3), int64(7), []byte{2, 0xff, 0x7f, 0x01, 0x80})
	f.Add(uint8(4), uint8(17), int64(2), osc) // ring above the grid threshold

	f.Fuzz(func(t *testing.T, kindIdx, nRaw uint8, seed int64, moveData []byte) {
		kind := kinds[int(kindIdx)%len(kinds)]
		n := 1 + int(nRaw)%18
		cfg, err := workload.Generate(kind, n, seed)
		if err != nil {
			t.Skip() // some kinds reject some (n, seed) combinations
		}
		if len(moveData) > 16*5 {
			moveData = moveData[:16*5] // bound the per-exec cost
		}
		c := incr.New(vision.Default, cfg)
		centers := append([]geom.Vec(nil), cfg...)
		for len(moveData) >= 5 {
			robot, dx, dy := decodeMove(moveData, n)
			moveData = moveData[5:]
			if math.IsNaN(dx) || math.IsNaN(dy) {
				continue
			}
			centers[robot].X += dx
			centers[robot].Y += dy
			c.Move(robot, centers[robot])

			scratch := incr.New(vision.Default, centers)
			compareCaches(t, c, scratch)
		}
	})
}

// compareCaches asserts that the incrementally maintained cache and a
// from-scratch rebuild agree exactly on every predicate.
func compareCaches(t *testing.T, got, want *incr.Cache) {
	t.Helper()
	n := len(want.Centers())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.Visible(i, j), want.Visible(i, j); g != w {
				t.Fatalf("Visible(%d,%d): incremental %v, scratch %v", i, j, g, w)
			}
		}
	}
	if g, w := got.FullyVisible(), want.FullyVisible(); g != w {
		t.Fatalf("FullyVisible: incremental %v, scratch %v", g, w)
	}
	if g, w := got.Connected(), want.Connected(); g != w {
		t.Fatalf("Connected: incremental %v, scratch %v", g, w)
	}
	if g, w := got.OnHullCount(), want.OnHullCount(); g != w {
		t.Fatalf("OnHullCount: incremental %d, scratch %d", g, w)
	}
	if g, w := got.HullArea(), want.HullArea(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("HullArea: incremental %v, scratch %v (must be bit-identical)", g, w)
	}
	gc, wc := got.HullCorners(), want.HullCorners()
	if len(gc) != len(wc) {
		t.Fatalf("HullCorners: incremental %d vertices, scratch %d", len(gc), len(wc))
	}
	for k := range wc {
		if gc[k] != wc[k] {
			t.Fatalf("HullCorners[%d]: incremental %v, scratch %v", k, gc[k], wc[k])
		}
	}
	if g, w := got.Spread(), want.Spread(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Spread: incremental %v, scratch %v", g, w)
	}
}
