"""Polygon representations, exact conversions between them, and simplex lifts.

H-form stores rows a1*x + a2*y <= b as primitive integer triples: each row is
scaled by a positive rational until gcd(|a1|, |a2|, |b|) == 1.  V-form stores
vertices counterclockwise starting at the lexicographic minimum.  Conversions
are exact in both directions; nothing here ever touches a float.

Every sign test in building a polygon runs on integers.  A point is the
homogeneous triple (X, Y, D) for (X/D, Y/D), with D > 0 and gcd 1, so equal
points are equal triples: two rows meet at one such triple, it lies inside a
row (e1, e2, f) when e1*X + e2*Y <= f*D, and three points turn
counterclockwise when the 3x3 determinant of their triples is positive.
Rationals are built only for the vertices that are kept.

Containment is an integer test too, in any dimension: a point becomes its
homogeneous state (x, D), and it lies in the polytope when a.x <= b*D for
every row (a, b).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .ratgeo import AffineMap2, Point2, dehomogenize, homogeneous

__all__ = [
    "DegenerateHull",
    "UnboundedOrEmpty",
    "BadDimension",
    "canonical_row",
    "HPolygon",
    "VPolygon",
    "hull2d",
    "v_to_h",
    "h_to_v",
    "remove_redundant",
    "transform_polygon",
    "LiftedPolytope",
    "LiftedPoint",
    "product_with_simplex",
    "simplex_vertices",
    "lifted_vertices",
    "lifted_contains",
]


class DegenerateHull(ValueError):
    """Fewer than three distinct points, or all of them collinear."""


class UnboundedOrEmpty(ValueError):
    """Rows fail to describe a bounded, full-dimensional polygon."""


class BadDimension(ValueError):
    """Dimension argument outside the supported range."""


def canonical_row(a1: Fraction, a2: Fraction, b: Fraction) -> tuple[int, int, int]:
    """Scale a halfplane row by a positive rational to coprime integers.

    The whole triple is reduced together, so integer inputs stay comparable
    bit for bit and the inequality's orientation is preserved.
    """
    if a1 == 0 and a2 == 0:
        raise ValueError("row has zero normal")
    m = lcm(a1.denominator, a2.denominator, b.denominator)
    n1 = a1.numerator * (m // a1.denominator)
    n2 = a2.numerator * (m // a2.denominator)
    nb = b.numerator * (m // b.denominator)
    g = gcd(n1, n2, nb)
    return (n1 // g, n2 // g, nb // g)


def _orientation(p: tuple[int, int, int], q: tuple[int, int, int], r: tuple[int, int, int]) -> int:
    """Determinant of the homogeneous points (x, y, w), w > 0, as rows.

    Positive exactly when p, q, r turn counterclockwise, zero when collinear.
    """
    (px, py, pw), (qx, qy, qw), (rx, ry, rw) = p, q, r
    return px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx)


def _lex_order(p: tuple[int, int, int], q: tuple[int, int, int]) -> int:
    """Compare the points of two homogeneous triples by (x, y)."""
    for i in (0, 1):
        d = p[i] * q[2] - q[i] * p[2]
        if d:
            return -1 if d < 0 else 1
    return 0


def _sorted_by_angle(dirs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Distinct directions in counterclockwise order from the +x axis."""

    def half(v: tuple[int, int]) -> int:
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        c = a[0] * b[1] - a[1] * b[0]
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(dirs, key=functools.cmp_to_key(cmp))


def _normals_positively_span(rows: tuple[tuple[int, int, int], ...]) -> bool:
    """True iff the region has no recession direction, i.e. is bounded.

    Normals are reduced to primitive directions first, so parallel rows of
    different scale (x <= 1 and 2x <= 3) count as one direction.
    """
    primitive = set()
    for a1, a2, _ in rows:
        g = gcd(a1, a2)
        primitive.add((a1 // g, a2 // g))
    dirs = _sorted_by_angle(list(primitive))
    if len(dirs) < 3:
        return False
    for i, a in enumerate(dirs):
        b = dirs[(i + 1) % len(dirs)]
        if a[0] * b[1] - a[1] * b[0] <= 0:
            return False
    return True


def _feasible_intersections(rows: tuple[tuple[int, int, int], ...]) -> set[tuple[int, int, int]]:
    """Canonical homogeneous triples of the pairwise row intersections inside every row."""
    pts: set[tuple[int, int, int]] = set()
    for i, (a1, a2, b) in enumerate(rows):
        for c1, c2, d in rows[i + 1:]:
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = b * c2 - d * a2
            y = a1 * d - c1 * b
            if det < 0:
                x, y, det = -x, -y, -det
            if all(e1 * x + e2 * y <= f * det for e1, e2, f in rows):
                g = gcd(x, y, det)
                pts.add((x // g, y // g, det // g))
    return pts


def _hull_of_rows(rows: tuple[tuple[int, int, int], ...]) -> "VPolygon":
    """Vertex polygon of a canonical row system; raises UnboundedOrEmpty."""
    if not _normals_positively_span(rows):
        raise UnboundedOrEmpty("row normals do not positively span the plane")
    try:
        hull = _hull_of_triples(_feasible_intersections(rows))
    except DegenerateHull:
        raise UnboundedOrEmpty("feasible region is empty or not full-dimensional") from None
    return VPolygon(tuple(Point2(*dehomogenize(t)) for t in hull))


def _contains(rows, coords) -> bool:
    """True when a.x <= b*D for every row (a, b), with (x, D) the coordinates' state."""
    *x, D = homogeneous(coords)
    return all(sum(map(mul, a, x)) <= b * D for a, b in rows)


@dataclass(frozen=True)
class HPolygon:
    """Bounded full-dimensional polygon as a minimal halfplane system.

    Rows are canonicalized on construction and validated: no duplicate
    halfplanes, no redundant rows, bounded and full-dimensional.  Feed raw row
    soup through remove_redundant instead when minimality is not known.
    """

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple(canonical_row(*r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 3:
            raise UnboundedOrEmpty("a polygon needs at least three rows")
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate halfplane rows")
        hull = _hull_of_rows(rows)
        if len(hull.vertices) != len(rows):
            raise ValueError("redundant row; use remove_redundant first")
        object.__setattr__(self, "_hull", hull)

    @property
    def m(self) -> int:
        return len(self.rows)

    def contains(self, p: Point2) -> bool:
        return _contains(self.inequality_rows(), self.coordinates(p))

    def inequality_rows(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """The rows as (coefficients, bound) pairs."""
        return tuple(((a1, a2), b) for a1, a2, b in self.rows)

    def coordinates(self, p: Point2) -> tuple[Fraction, Fraction]:
        return (p.x, p.y)

    def point(self, coords) -> Point2:
        return Point2(*coords)


@dataclass(frozen=True)
class VPolygon:
    """Strictly convex vertex list, counterclockwise from the lex-min vertex."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise DegenerateHull("a polygon needs at least three vertices")
        t = [homogeneous((p.x, p.y)) for p in v]
        if any(_orientation(t[i - 2], t[i - 1], t[i]) <= 0 for i in range(len(t))):
            raise ValueError("vertices not in strictly convex ccw order")
        if v[0] != min(v):
            raise ValueError("vertex list must start at the lexicographic minimum")


def _hull_of_triples(points) -> list[tuple[int, int, int]]:
    """Monotone chain over distinct canonical homogeneous triples.

    Returns the hull's corners counterclockwise from the lexicographic
    minimum; collinear points are dropped.  Raises DegenerateHull when fewer
    than three points remain or all of them lie on one line.
    """
    pts = sorted(points, key=functools.cmp_to_key(_lex_order))
    if len(pts) < 3:
        raise DegenerateHull("need at least three distinct points")

    def build(seq: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        chain: list[tuple[int, int, int]] = []
        for p in seq:
            while len(chain) >= 2 and _orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    return hull


def hull2d(points: list[Point2] | tuple[Point2, ...]) -> VPolygon:
    """Convex hull by monotone chain; collinear points are dropped.

    Raises DegenerateHull when fewer than three distinct points remain or all
    of them lie on one line.
    """
    # reversed: of equal points the first one given is kept
    by_triple = {homogeneous((p.x, p.y)): p for p in reversed(points)}
    return VPolygon(tuple(by_triple[t] for t in _hull_of_triples(by_triple)))


def v_to_h(v: VPolygon) -> HPolygon:
    """Minimal halfplane system, one row per edge in boundary order."""
    rows = []
    n = len(v.vertices)
    for i in range(n):
        p, q = v.vertices[i], v.vertices[(i + 1) % n]
        dx, dy = q.x - p.x, q.y - p.y
        # outward normal of a ccw edge
        rows.append(canonical_row(dy, -dx, dy * p.x - dx * p.y))
    return HPolygon(tuple(rows))


def h_to_v(h: HPolygon) -> VPolygon:
    """Vertices of a valid HPolygon (computed once, at construction)."""
    return h._hull  # noqa: SLF001 - cache owned by this module


def remove_redundant(rows) -> HPolygon:
    """Minimal HPolygon from arbitrary rows of a bounded full-dim region.

    Duplicate and redundant rows are dropped; UnboundedOrEmpty is raised when
    the rows do not bound a full-dimensional polygon.
    """
    canon = tuple(dict.fromkeys(canonical_row(*r) for r in rows))
    if len(canon) < 3:
        raise UnboundedOrEmpty("a polygon needs at least three rows")
    return v_to_h(_hull_of_rows(canon))


def transform_polygon(m: AffineMap2, h: HPolygon) -> HPolygon:
    """Image polygon {H x + t : x in h}; requires m invertible.

    Row a with bound b becomes a (H^-1) with bound b + a H^-1 t, which keeps
    the system exact and minimal (invertible maps preserve edges).
    """
    inv = m.inverse()
    rows = []
    for a1, a2, b in h.rows:
        n1 = inv.m00 * a1 + inv.m10 * a2
        n2 = inv.m01 * a1 + inv.m11 * a2
        rows.append((n1, n2, b + n1 * m.tx + n2 * m.ty))
    return HPolygon(tuple(rows))


@dataclass(frozen=True)
class LiftedPoint:
    """Point of a lifted polytope: planar part plus simplex coordinates."""

    base: Point2
    simplex: tuple[Fraction, ...]


@dataclass(frozen=True)
class LiftedPolytope:
    """Product of a polygon with a standard simplex conv(0, e_1, .., e_extra).

    extra_dims == 0 is the polygon itself in a trivial wrapper.  For
    extra_dims >= 1 the facets are the base rows, the extra_dims nonnegativity
    rows and the simplex sum row: base.m + extra_dims + 1 in total.
    """

    base: HPolygon
    extra_dims: int

    def __post_init__(self) -> None:
        if self.extra_dims < 0:
            raise BadDimension("extra_dims must be nonnegative")

    @property
    def dim(self) -> int:
        return 2 + self.extra_dims

    @property
    def facet_count(self) -> int:
        if self.extra_dims == 0:
            return self.base.m
        return self.base.m + self.extra_dims + 1

    def inequality_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Full-dimensional H-description as (coefficients, bound) pairs."""
        e = self.extra_dims
        rows = [(a + (0,) * e, b) for a, b in self.base.inequality_rows()]
        for i in range(e):
            coeff = [0, 0] + [0] * e
            coeff[2 + i] = -1
            rows.append((tuple(coeff), 0))
        if e:
            rows.append(((0, 0) + (1,) * e, 1))
        return tuple(rows)

    def contains(self, p: LiftedPoint) -> bool:
        return lifted_contains(self, p)

    def coordinates(self, p: LiftedPoint) -> tuple[Fraction, ...]:
        return (p.base.x, p.base.y) + p.simplex

    def point(self, coords) -> LiftedPoint:
        return LiftedPoint(Point2(coords[0], coords[1]), tuple(coords[2:]))


def product_with_simplex(h: HPolygon, d: int) -> LiftedPolytope:
    """Lift a polygon to dimension d >= 2 by multiplying with a (d-2)-simplex.

    The product has the facets of both factors: m + d - 1 for d >= 3 (the
    simplex has d - 1) and m for d = 2, where the simplex is a point.  Every
    vertex lies on exactly d facets, so the lift of a polygon is simple.
    """
    if d < 2:
        raise BadDimension("target dimension must be at least 2")
    return LiftedPolytope(base=h, extra_dims=d - 2)


def simplex_vertices(extra_dims: int) -> tuple[tuple[int, ...], ...]:
    """Vertices of conv(0, e_1, .., e_extra) as coordinate tuples."""
    if extra_dims < 0:
        raise BadDimension("extra_dims must be nonnegative")
    if extra_dims == 0:
        return ((),)
    verts: list[tuple[int, ...]] = [(0,) * extra_dims]
    for i in range(extra_dims):
        unit = [0] * extra_dims
        unit[i] = 1
        verts.append(tuple(unit))
    return tuple(verts)


def lifted_vertices(lp: LiftedPolytope) -> tuple[LiftedPoint, ...]:
    """All vertices of the product: base vertex times simplex vertex."""
    base = h_to_v(lp.base).vertices
    return tuple(
        LiftedPoint(v, s) for v in base for s in simplex_vertices(lp.extra_dims)
    )


def lifted_contains(lp: LiftedPolytope, p: LiftedPoint) -> bool:
    if len(p.simplex) != lp.extra_dims:
        raise BadDimension(
            f"point has {len(p.simplex)} simplex coordinates, polytope has {lp.extra_dims}"
        )
    return _contains(lp.inequality_rows(), lp.coordinates(p))
