package geom

import (
	"fmt"
	"math"
)

// Eps is the default tolerance for geometric predicates (orientation,
// collinearity, point equality). It is intentionally small compared to the
// algorithm's structural margins (which are at least 1/(2n) for any practical
// n).
const Eps = 1e-9

// Vec is a point or vector in the plane. The zero value is the origin.
type Vec struct {
	X float64
	Y float64
}

// V is a convenience constructor for Vec.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Neg returns -v.
func (v Vec) Neg() Vec { return Vec{-v.X, -v.Y} }

// Dot returns the dot product v . w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product v x w.
// It is positive when w is counter-clockwise from v.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec) Norm2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 { return v.Sub(w).Norm2() }

// Unit returns v normalized to length 1. If v is (numerically) the zero
// vector it returns the zero vector.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n < Eps {
		return Vec{}
	}
	return Vec{v.X / n, v.Y / n}
}

// Perp returns v rotated by +90 degrees (counter-clockwise).
func (v Vec) Perp() Vec { return Vec{-v.Y, v.X} }

// PerpCW returns v rotated by -90 degrees (clockwise).
func (v Vec) PerpCW() Vec { return Vec{v.Y, -v.X} }

// Rotate returns v rotated by theta radians counter-clockwise about the
// origin.
func (v Vec) Rotate(theta float64) Vec {
	s, c := math.Sincos(theta)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// RotateAround returns v rotated by theta radians counter-clockwise about
// pivot p.
func (v Vec) RotateAround(p Vec, theta float64) Vec {
	return v.Sub(p).Rotate(theta).Add(p)
}

// Lerp returns the linear interpolation between v and w at parameter t
// (t=0 gives v, t=1 gives w).
func (v Vec) Lerp(w Vec, t float64) Vec {
	return Vec{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// Angle returns the angle of v in radians in (-pi, pi], measured
// counter-clockwise from the positive x axis.
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Eq reports whether v and w coincide within Eps in both coordinates.
func (v Vec) Eq(w Vec) bool {
	return math.Abs(v.X-w.X) <= Eps && math.Abs(v.Y-w.Y) <= Eps
}

// EqWithin reports whether v and w coincide within tol in Euclidean distance.
func (v Vec) EqWithin(w Vec, tol float64) bool { return v.Dist(w) <= tol }

// IsFinite reports whether both coordinates are finite (not NaN, not Inf).
func (v Vec) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsNaN(v.Y) && !math.IsInf(v.X, 0) && !math.IsInf(v.Y, 0)
}

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("(%.6g, %.6g)", v.X, v.Y) }

// Midpoint returns the midpoint of v and w.
func Midpoint(v, w Vec) Vec { return Vec{(v.X + w.X) / 2, (v.Y + w.Y) / 2} }

// Centroid returns the arithmetic mean of the given points. It returns the
// origin for an empty slice.
func Centroid(pts []Vec) Vec {
	if len(pts) == 0 {
		return Vec{}
	}
	var s Vec
	for _, p := range pts {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(pts)))
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
