package incr

import (
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// Cache is the incremental geometry state for one configuration of unit-disc
// robots under a fixed visibility model. Construct it with New, report every
// position change through Move, and read the cached predicates through the
// query methods; every answer is bit-identical to the from-scratch oracle on
// the current centers. A Cache is not safe for concurrent use.
type Cache struct {
	model   *vision.Model
	centers []geom.Vec
	n       int

	// vis is the ordered n x n visibility matrix (row i, column j answers
	// "does i see j"); the diagonal is always true. Ordered — not unordered —
	// because the candidate-segment construction is not symmetric in ulps:
	// Visible(i, j) and Visible(j, i) agree in practice but are not provably
	// bit-identical, and the oracle FullyVisible iterates ordered pairs.
	vis   []bool
	invis int // number of false entries in vis

	vsc vision.Scratch

	hullDirty bool
	hullSc    geom.HullScratch
	corners   []geom.Vec // aliases hullSc; valid until the next recompute
	hullArea  float64
	onHull    int

	connDirty bool
	connected bool
	seen      []bool
	stack     []int
}

// New builds the cache for the given centers (copied) under the given
// visibility model (nil means vision.Default).
func New(m *vision.Model, centers []geom.Vec) *Cache {
	if m == nil {
		m = vision.Default
	}
	c := &Cache{
		model: m,
		n:     len(centers),
	}
	c.centers = append([]geom.Vec(nil), centers...)
	c.vis = make([]bool, c.n*c.n)
	c.seen = make([]bool, c.n)
	c.stack = make([]int, 0, c.n)
	c.rebuildVisibility()
	c.hullDirty = true
	c.connDirty = true
	return c
}

// Reset re-initializes the cache from scratch for a new configuration of the
// same size (the structural-change fallback: when more than one position
// changed at once, incremental invalidation no longer applies).
func (c *Cache) Reset(centers []geom.Vec) {
	if len(centers) != c.n {
		panic("incr: Reset with a different configuration size")
	}
	copy(c.centers, centers)
	c.rebuildVisibility()
	c.hullDirty = true
	c.connDirty = true
}

// Centers exposes the cache's view of the current configuration. Read-only:
// mutate positions only through Move.
func (c *Cache) Centers() []geom.Vec { return c.centers }

// Move records that robot i moved to p and re-establishes every cached
// verdict that the move could possibly have changed: both directions of every
// pair involving i, plus both directions of any pair whose blocking corridor
// contains i's old or new center. Hull and connectivity are marked stale and
// recomputed lazily on the next query.
func (c *Cache) Move(i int, p geom.Vec) {
	old := c.centers[i]
	c.centers[i] = p
	for j := 0; j < c.n; j++ {
		if j == i {
			continue
		}
		c.setVis(i, j, c.pairVisible(i, j))
		c.setVis(j, i, c.pairVisible(j, i))
	}
	for a := 0; a < c.n; a++ {
		if a == i {
			continue
		}
		ca := c.centers[a]
		for b := a + 1; b < c.n; b++ {
			if b == i {
				continue
			}
			cor := c.model.Corridor(ca, c.centers[b])
			if cor.Contains(old) || cor.Contains(p) {
				c.setVis(a, b, c.pairVisible(a, b))
				c.setVis(b, a, c.pairVisible(b, a))
			}
		}
	}
	c.hullDirty = true
	c.connDirty = true
}

// Visible reports whether robot i sees robot j (cached; equals
// vision.Model.Visible on the current centers).
func (c *Cache) Visible(i, j int) bool {
	if i == j {
		return true
	}
	return c.vis[i*c.n+j]
}

// FullyVisible reports whether every robot sees every other robot (equals
// vision.Model.FullyVisible on the current centers).
func (c *Cache) FullyVisible() bool { return c.invis == 0 }

// AppendViewCenters appends the centers visible from robot i — robot i's Look
// snapshot, identical to vision.Model.ViewCenters — to dst and returns the
// extended slice.
func (c *Cache) AppendViewCenters(dst []geom.Vec, i int) []geom.Vec {
	row := c.vis[i*c.n : (i+1)*c.n]
	for j, v := range row {
		if v {
			dst = append(dst, c.centers[j])
		}
	}
	return dst
}

// Connected reports whether the tangency graph on the unit discs is connected
// (equals config.Geometric.Connected).
func (c *Cache) Connected() bool {
	if c.connDirty {
		c.recomputeConnected()
	}
	return c.connected
}

// OnHullCount returns the number of robots on the convex hull boundary
// (equals config.Geometric.OnHullCount).
func (c *Cache) OnHullCount() int {
	if c.hullDirty {
		c.recomputeHull()
	}
	return c.onHull
}

// AllOnHull reports whether every robot center lies on the convex hull
// boundary (equals config.Geometric.AllOnHull).
func (c *Cache) AllOnHull() bool { return c.OnHullCount() == c.n }

// HullArea returns the area of the convex hull of the centers, bit-identical
// to config.Geometric.HullArea (same corners in the same order through the
// same PolygonArea sum).
func (c *Cache) HullArea() float64 {
	if c.hullDirty {
		c.recomputeHull()
	}
	return c.hullArea
}

// HullCorners returns the hull corner vertices, CCW, bit-identical to
// geom.ConvexHull on the current centers. The slice aliases the cache and is
// only valid until the next Move/Reset-triggered recompute.
func (c *Cache) HullCorners() []geom.Vec {
	if c.hullDirty {
		c.recomputeHull()
	}
	return c.corners
}

// Spread returns the maximum pairwise center distance, bit-identical to
// config.Geometric.Spread (same loop order, same comparison).
func (c *Cache) Spread() float64 {
	g := c.centers
	maxD := 0.0
	for i := 0; i < len(g); i++ {
		for j := i + 1; j < len(g); j++ {
			if d := g[i].Dist(g[j]); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// pairVisible answers one ordered visibility query from scratch.
func (c *Cache) pairVisible(i, j int) bool {
	return c.model.VisibleScratch(&c.vsc, c.centers, i, j)
}

// rebuildVisibility recomputes the whole matrix.
func (c *Cache) rebuildVisibility() {
	c.invis = 0
	for i := 0; i < c.n; i++ {
		row := c.vis[i*c.n : (i+1)*c.n]
		for j := range row {
			v := i == j || c.pairVisible(i, j)
			row[j] = v
			if !v {
				c.invis++
			}
		}
	}
}

// setVis updates one ordered matrix entry, maintaining the invisible-pair
// count. i != j.
func (c *Cache) setVis(i, j int, v bool) {
	idx := i*c.n + j
	if c.vis[idx] != v {
		if v {
			c.invis--
		} else {
			c.invis++
		}
		c.vis[idx] = v
	}
}

// recomputeHull refreshes corners, area and boundary count from the current
// centers into the reused scratch.
func (c *Cache) recomputeHull() {
	c.corners, c.onHull = c.hullSc.HullWithOnHullCount(c.centers)
	c.hullArea = geom.PolygonArea(c.corners)
	c.hullDirty = false
}

// recomputeConnected refreshes the connectivity flag: a DFS over the tangency
// graph with edges tested on the fly (geom.DiscsTangent with the same
// unit-radius contact tolerance as config.Geometric.Touching), no adjacency
// lists materialized. Reachability does not depend on traversal order, so the
// flag matches config.Geometric.Connected exactly.
func (c *Cache) recomputeConnected() {
	c.connDirty = false
	n := c.n
	if n == 0 {
		c.connected = false
		return
	}
	if n == 1 {
		c.connected = true
		return
	}
	for i := range c.seen {
		c.seen[i] = false
	}
	c.stack = append(c.stack[:0], 0)
	c.seen[0] = true
	count := 1
	for len(c.stack) > 0 {
		cur := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		cc := c.centers[cur]
		for nb := 0; nb < n; nb++ {
			if c.seen[nb] || nb == cur {
				continue
			}
			if geom.DiscsTangent(cc, c.centers[nb], geom.UnitRadius, config.ContactEps) {
				c.seen[nb] = true
				count++
				c.stack = append(c.stack, nb)
			}
		}
	}
	c.connected = count == n
}
