package config

import (
	"errors"
	"fmt"
	"math"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// ContactEps is the tolerance within which two unit discs are considered
// tangent (touching). It is also the tolerance used for overlap detection:
// centers closer than 2-ContactEps constitute an (illegal) overlap.
const ContactEps = 1e-7

// ErrOverlap is returned by Validate when two robot discs overlap.
var ErrOverlap = errors.New("config: robot discs overlap")

// Geometric is a geometric configuration: the centers of the n robots.
// Index identity is preserved across the whole execution (the robots
// themselves are anonymous; indices exist only for bookkeeping, exactly like
// the paper's "index used only for reference purposes").
type Geometric []geom.Vec

// Clone returns a deep copy of the configuration.
func (g Geometric) Clone() Geometric {
	out := make(Geometric, len(g))
	copy(out, g)
	return out
}

// Validate checks that the configuration is physically realizable: all
// coordinates finite and no two closed unit discs sharing more than a
// boundary point (centers at distance >= 2-ContactEps).
func (g Geometric) Validate() error {
	for i, c := range g {
		if !c.IsFinite() {
			return fmt.Errorf("config: robot %d has non-finite center %v", i, c)
		}
	}
	for i := 0; i < len(g); i++ {
		for j := i + 1; j < len(g); j++ {
			if g[i].Dist(g[j]) < 2*geom.UnitRadius-ContactEps {
				return fmt.Errorf("%w: robots %d and %d at distance %.9f",
					ErrOverlap, i, j, g[i].Dist(g[j]))
			}
		}
	}
	return nil
}

// Touching reports whether robots i and j are tangent (their discs touch).
func (g Geometric) Touching(i, j int) bool {
	if i == j {
		return false
	}
	return geom.DiscsTangent(g[i], g[j], geom.UnitRadius, ContactEps)
}

// ContactGraph returns the adjacency lists of the tangency graph.
func (g Geometric) ContactGraph() [][]int {
	adj := make([][]int, len(g))
	for i := range g {
		for j := range g {
			if g.Touching(i, j) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// Connected reports whether the configuration is connected in the paper's
// sense: the tangency graph on the discs is connected (every robot touches
// another robot and all robots form one connected formation). A single robot
// is connected by convention; an empty configuration is not.
func (g Geometric) Connected() bool {
	n := len(g)
	if n == 0 {
		return false
	}
	if n == 1 {
		return true
	}
	adj := g.ContactGraph()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == n
}

// FullyVisible reports whether every robot can see every other robot under
// the given visibility model.
func (g Geometric) FullyVisible(m *vision.Model) bool {
	return m.FullyVisible(g)
}

// OnHullCount returns the number of robots whose centers lie on the boundary
// of the convex hull of all centers.
func (g Geometric) OnHullCount() int {
	return len(geom.ConvexHullWithCollinear(g))
}

// AllOnHull reports whether every robot center lies on the convex hull
// boundary.
func (g Geometric) AllOnHull() bool { return g.OnHullCount() == len(g) }

// HullArea returns the area of the convex hull of the robot centers.
func (g Geometric) HullArea() float64 { return geom.PolygonArea(geom.ConvexHull(g)) }

// Gathered reports whether the configuration satisfies the gathering goal of
// Definition 1 (geometric part): connected and fully visible.
func (g Geometric) Gathered(m *vision.Model) bool {
	return g.Connected() && g.FullyVisible(m)
}

// Spread returns the maximum pairwise center distance (the diameter of the
// configuration), a convenient scalar measure of how spread out the robots
// are.
func (g Geometric) Spread() float64 {
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

// MinPairDistance returns the minimum pairwise center distance, or +Inf for
// fewer than two robots.
func (g Geometric) MinPairDistance() float64 {
	minD := math.Inf(1)
	for i := 0; i < len(g); i++ {
		for j := i + 1; j < len(g); j++ {
			if d := g[i].Dist(g[j]); d < minD {
				minD = d
			}
		}
	}
	return minD
}

// BoundingBox returns the axis-aligned bounding box of the robot discs
// (not just the centers): min and max corners.
func (g Geometric) BoundingBox() (min, max geom.Vec) {
	if len(g) == 0 {
		return geom.Vec{}, geom.Vec{}
	}
	min = geom.V(math.Inf(1), math.Inf(1))
	max = geom.V(math.Inf(-1), math.Inf(-1))
	for _, c := range g {
		min.X = math.Min(min.X, c.X-geom.UnitRadius)
		min.Y = math.Min(min.Y, c.Y-geom.UnitRadius)
		max.X = math.Max(max.X, c.X+geom.UnitRadius)
		max.Y = math.Max(max.Y, c.Y+geom.UnitRadius)
	}
	return min, max
}
