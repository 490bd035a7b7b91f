"""Polygon representations, exact conversions between them, and simplex lifts.

H-form stores rows a1*x + a2*y <= b as primitive integer triples: each row is
scaled by a positive rational until gcd(|a1|, |a2|, |b|) == 1.  V-form stores
the vertices' triples (below) counterclockwise starting at the lexicographic
minimum.  Conversions are exact in both directions; nothing here ever touches
a float.

Every sign test in building a polygon runs on integers.  A point is the
homogeneous triple (X, Y, D) for (X/D, Y/D), with D > 0 and gcd 1, so equal
points are equal triples: it lies inside a row (e1, e2, f) when
e1*X + e2*Y <= f*D, and three points turn counterclockwise when the 3x3
determinant of their triples is positive.  One cross product turns two rows
into the triple of their corner and two vertices into the row of their edge.
A vertex polygon is the cycle of its vertices' triples; its points, as
rationals, are built on first read.

A polygon built from its vertex cycle, a tuple of triples, is checked in
O(m): the triples are canonical, turn strictly counterclockwise, wind once and
start at the lexicographic minimum (VPolygon's check).  That makes the cycle
the vertex list of a convex polygon P in boundary order, and its edge rows, the
meets of consecutive vertices, each carry an edge with P on its inner side.  A
convex polygon is the intersection of the halfplanes of its edges, so these
rows describe P: bounded and full-dimensional, no row redundant (each carries
an edge), none repeated (the edges of a cycle that winds once have distinct
normal directions), and the hull is the cycle.  v_to_h builds its polygons
this way: HPolygon given the cycle checks only that its rows are the cycle's
edge rows.

Rows alone become a polygon by one algorithm, the peel, after sorting them by
the angle of their normal, O(m log m) for m rows.  It drops rows and rechecks
their neighbours as Graham's scan does points.  It keeps the tightest of
parallel rows and, if their normals positively span (else the region is
unbounded or empty), sets them on a ring in angular order, each turn to the
next less than a half turn, with each corner, where a row meets the row before
it, computed once.  A row (a1, a2, b) passes when its edge, from its corner to
the next, has positive length along (-a2, a1), its direction with its inner
side on the left.  The first round tests every row: on a minimal system it is
the whole check.  A row r that fails, between live neighbours q and s, is
dropped if q turns to s by less than a half turn: r's normal is then a
positive combination of theirs, and were the apex of their wedge strictly
outside r, r's line would cut both of its sides, at the corners with q and s
in that order, so the apex and the whole wedge lie in r.  By this wedge lemma
the region stays as it was; s's corner becomes its meet with q, and q and s
are tested in the next round (as is a failed row whose corners changed since
its test).  If q turns to s by a half turn or more, q, r and s have no common
interior, nor has the region: else they would bound a triangle with an edge of
positive length on each row, or a strip of positive width that r crosses along
a positive length.  Neighbours of a row of three turn by more than a half
turn, so the ring keeps three rows.  Each drop puts two rows in the next
round, so the rounds test at most 3m rows and compute m corners plus one per
row dropped: O(m) after the sort.

When a round finds no row to drop, every live row's edge has positive length,
and the turns, each less than a half turn as the angles rise, add up to one
full turn: the corners joined in order turn left at each corner and wind once.
They are the vertex cycle of a strictly convex polygon P, with one edge on
each row and P on its inner side, so as above the live rows describe P, none
redundant, and the ring rotated to the lex-min corner lists P's vertices and
edge rows in boundary order.  Conversely the rows of a minimal system, in
angular order, are its polygon's edges in boundary order, each of positive
length, so the peel drops nothing: HPolygon accepts exactly the systems the
peel keeps whole, and remove_redundant returns the rows it keeps.

Every polytope here, a polygon or a lift, holds its rows in one format: the
flat canonical integer row (a_1, .., a_d, b) for a.x <= b, the polygon's
triples being the case d = 2.  Containment is an integer test in any
dimension: a point becomes its homogeneous state (x, D), and it lies in the
polytope when a.x <= b*D for every row.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .ratgeo import AffineMap2, Point2, SingularMap, dehomogenize, homogeneous

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
    if type(a1) is int and type(a2) is int and type(b) is int:
        g = gcd(a1, a2, b)
        return (a1 // g, a2 // g, b // g)
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


_LEX = functools.cmp_to_key(_lex_order)


def _cross(r: tuple[int, ...], s: tuple[int, ...]) -> int:
    """Cross product of the normals of two rows: positive when s turns counterclockwise from r."""
    return r[0] * s[1] - r[1] * s[0]


# orders rows whose normals lie in one half turn by angle, counterclockwise
_ANGLE = functools.cmp_to_key(lambda r, s: _cross(s, r))


def _by_angle(rows: tuple[tuple[int, int, int], ...]) -> list[tuple[int, int, int]]:
    """The rows, counterclockwise by the angle of their normal from the +x axis:
    those at angles in [0, pi), then those in [pi, 2*pi), each half sorted apart."""
    upper = [r for r in rows if (r[1], r[0]) > (0, 0)]
    lower = [r for r in rows if (r[1], r[0]) < (0, 0)]
    return sorted(upper, key=_ANGLE) + sorted(lower, key=_ANGLE)


def _meet(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gcd-reduced cross product of two triples, read with the row (a1, a2, b) as
    the line a1*X + a2*Y = b*W.

    For two rows, v counterclockwise from u, it is the canonical triple of the
    point where they meet.  For two points, v counterclockwise after u on the
    boundary of a region, it is the canonical row of the edge from u to v.
    """
    (u1, u2, u3), (v1, v2, v3) = u, v
    x, y, w = u3 * v2 - u2 * v3, u1 * v3 - u3 * v1, u1 * v2 - u2 * v1
    g = gcd(x, y, w)
    return (x // g, y // g, w // g)


def _hull_of_rows(rows: tuple[tuple[int, int, int], ...]) -> "VPolygon":
    """Vertex polygon, its edge rows included, of canonical rows' region by the
    module docstring's peel, O(m) after the angle sort; its edges are the rows
    kept.  Raises UnboundedOrEmpty when the region is not a bounded,
    full-dimensional polygon."""
    lines: list[tuple[int, int, int]] = []
    for r in _by_angle(rows):
        # of rows of one direction (x <= 1 and 2x <= 3), keep the smallest b / gcd(a1, a2)
        if lines and _cross(lines[-1], r) == 0 and lines[-1][0] * r[0] + lines[-1][1] * r[1] > 0:
            (a1, a2, b), (c1, c2, d) = lines[-1], r
            if d * gcd(a1, a2) < b * gcd(c1, c2):
                lines[-1] = r
        else:
            lines.append(r)
    n = len(lines)
    if n < 3 or any(_cross(lines[i - 1], lines[i]) <= 0 for i in range(n)):
        raise UnboundedOrEmpty("row normals do not positively span the plane")
    # the ring: lines[before[i]] and lines[after[i]] are live row i's neighbours, and
    # corner[i] is where row i meets lines[before[i]], the start of its edge
    before, after = [n - 1, *range(n - 1)], [*range(1, n), 0]
    corner = [_meet(lines[i - 1], lines[i]) for i in range(n)]
    todo = range(n)
    while todo:
        # the rows of todo whose edge, from their corner to the next, has no positive length
        short = [i for i in todo for (a1, a2, _), (px, py, pw), (qx, qy, qw)
                 in [(lines[i], corner[i], corner[after[i]])]
                 if (a1 * qy - a2 * qx) * pw <= (a1 * py - a2 * px) * qw]
        todo = set()
        for i in short:
            if i in todo:
                continue  # a neighbour was dropped since the test: test it again
            j, k = before[i], after[i]
            if _cross(lines[j], lines[k]) <= 0:
                raise UnboundedOrEmpty("feasible region is empty or not full-dimensional")
            after[j], before[k] = k, j
            corner[k] = _meet(lines[j], lines[k])
            todo |= {j, k}
    live = [i for i in range(n) if after[before[i]] == i]
    # the lex-min vertex, the one (-1, -eps) points out of, starts the first edge
    # whose normal points below the x axis
    first = next(f for f, i in enumerate(live) if lines[i][1] < 0)
    live = live[first:] + live[:first]
    hull = object.__new__(VPolygon)
    object.__setattr__(hull, "triples", tuple([corner[i] for i in live]))
    object.__setattr__(hull, "edges", tuple([lines[i] for i in live]))
    return hull


def _inside(rows, state) -> bool:
    """True when a.x <= b*D for every flat row (a_1, .., a_d, b), with (x, D) the state."""
    *x, D = state
    return all(sum(map(mul, r, x)) <= r[-1] * D for r in rows)


@dataclass(frozen=True)
class HPolygon:
    """Bounded full-dimensional polygon as a minimal halfplane system.

    Rows are canonicalized on construction and validated: no duplicate
    halfplanes, no redundant rows, bounded and full-dimensional.  Feed raw row
    soup through remove_redundant instead when minimality is not known.  The
    peel of the module docstring gives the vertex polygon, its edge rows
    included, or names the fault; a system it drops a row from is redundant.
    Given cycle, a checked vertex polygon, the rows must be its edge rows in
    order and the cycle is the vertex polygon, with no peel (v_to_h).
    """

    rows: tuple[tuple[int, int, int], ...]
    cycle: InitVar[VPolygon | None] = None

    def __post_init__(self, cycle) -> None:
        if cycle is not None:
            # rows that are the edge rows of a vertex cycle VPolygon has checked
            # describe its polygon (module docstring), so the cycle is the hull
            if self.rows != cycle.edges:
                raise ValueError("rows are not the edge rows of the vertex cycle")
            object.__setattr__(self, "_hull", cycle)
            return
        rows = tuple([canonical_row(*r) for r in self.rows])
        object.__setattr__(self, "rows", rows)
        if len(rows) < 3:
            raise UnboundedOrEmpty("a polygon needs at least three rows")
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate halfplane rows")
        hull = _hull_of_rows(rows)
        if len(hull.edges) != len(rows):
            raise ValueError("redundant row; use remove_redundant first")
        object.__setattr__(self, "_hull", hull)

    @property
    def m(self) -> int:
        return len(self.rows)

    def contains(self, p: Point2) -> bool:
        return _inside(self.rows, self.state(p))

    def coordinates(self, p: Point2) -> tuple[Fraction, Fraction]:
        return (p.x, p.y)

    def state(self, p: Point2) -> tuple[int, int, int]:
        """The homogeneous state (X, Y, D) of the point p."""
        return homogeneous((p.x, p.y))

    def point(self, coords) -> Point2:
        return Point2(*coords)



def _check_ccw(t: tuple[tuple[int, int, int], ...]) -> None:
    """Raise unless the triples are canonical and turn strictly
    counterclockwise, once around, from the lexicographic minimum."""
    if any(w <= 0 or gcd(x, y, w) != 1 for x, y, w in t):
        raise ValueError("vertex triples must be canonical: D > 0 and gcd 1")
    if len(t) < 3:
        raise DegenerateHull("a polygon needs at least three vertices")
    # the fan around t[0] too: a pentagram turns left everywhere but winds twice
    if any(_orientation(t[i - 2], t[i - 1], t[i]) <= 0 for i in range(len(t))) or any(
        _orientation(t[0], t[i], t[i + 1]) <= 0 for i in range(1, len(t) - 1)
    ):
        raise ValueError("vertices not in strictly convex ccw order")
    if any(_lex_order(p, t[0]) < 0 for p in t):
        raise ValueError("vertex list must start at the lexicographic minimum")


@dataclass(frozen=True)
class VPolygon:
    """Strictly convex polygon as the canonical triples (X, Y, D) of its
    vertices, counterclockwise from the lex-min vertex.

    The vertices as points and the edge rows are built on first read.
    """

    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        _check_ccw(self.triples)

    @classmethod
    def of_points(cls, points) -> "VPolygon":
        """The polygon whose vertex list is points, in that order."""
        return cls(tuple([homogeneous((p.x, p.y)) for p in points]))

    @functools.cached_property
    def vertices(self) -> tuple[Point2, ...]:
        return tuple([Point2(*dehomogenize(t)) for t in self.triples])

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The canonical edge rows, the one leaving the i-th vertex i-th."""
        t = self.triples
        return tuple([_meet(p, q) for p, q in zip(t, t[1:] + t[:1])])


def _hull_of_triples(points) -> list[tuple[int, int, int]]:
    """Monotone chain over distinct canonical homogeneous triples.

    Returns the hull's corners counterclockwise from the lexicographic
    minimum; collinear points are dropped.  Raises DegenerateHull when fewer
    than three points remain or all of them lie on one line.
    """
    pts = sorted(points, key=_LEX)
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
    return VPolygon(tuple(_hull_of_triples({homogeneous((p.x, p.y)) for p in points})))


def v_to_h(v: VPolygon) -> HPolygon:
    """Minimal halfplane system, one row per edge in boundary order.

    With VPolygon's own check, this is the module docstring's O(m) check of a
    vertex cycle.
    """
    return HPolygon(v.edges, v)


def h_to_v(h: HPolygon) -> VPolygon:
    """Vertices of a valid HPolygon (computed once, at construction)."""
    return h._hull  # noqa: SLF001 - cache owned by this module


def remove_redundant(rows) -> HPolygon:
    """Minimal HPolygon from arbitrary rows of a bounded full-dim region, by
    the peel of the module docstring, O(m) after the angle sort.

    Duplicate and redundant rows are dropped, and the rows the peel keeps are
    the edge rows in boundary order, from the lex-min vertex, with the vertex
    polygon read off its ring; UnboundedOrEmpty is raised when the rows do not
    bound a full-dimensional polygon.
    """
    canon = tuple(dict.fromkeys(canonical_row(*r) for r in rows))
    if len(canon) < 3:
        raise UnboundedOrEmpty("a polygon needs at least three rows")
    return v_to_h(_hull_of_rows(canon))


def _affine_matrix(m: AffineMap2) -> tuple[int, ...]:
    """(A, B, E, C, D, F, L): m as the integer matrix [[A, B, E], [C, D, F],
    [0, 0, L]] on homogeneous triples, L > 0 the common denominator."""
    return homogeneous((m.m00, m.m01, m.tx, m.m10, m.m11, m.ty))


def _map_triples(mat: tuple[int, ...], ts) -> list[tuple[int, int, int]]:
    """The canonical triples of the images of the points of ts."""
    A, B, E, C, D, F, L = mat
    out = []
    for x, y, w in ts:
        X, Y, W = A * x + B * y + E * w, C * x + D * y + F * w, L * w
        g = gcd(X, Y, W)
        out.append((X // g, Y // g, W // g))
    return out


def _map_rows(mat: tuple[int, ...], rows) -> list[tuple[int, int, int]]:
    """The canonical rows of the images of the halfplanes of rows; raises
    SingularMap unless the matrix is invertible.

    A row (a1, a2, b) is the covector (a1, a2, -b) on triples, and maps
    through adj(M) times the sign of det M: a positive multiple of M^-1, so
    the image keeps its side.
    """
    A, B, E, C, D, F, L = mat
    det = A * D - B * C
    if det == 0:
        raise SingularMap("map is not invertible")
    s = 1 if det > 0 else -1
    k11, k12, k21, k22 = s * L * D, -s * L * C, -s * L * B, s * L * A
    kb, k1, k2 = s * det, s * (E * D - B * F), s * (A * F - C * E)
    out = []
    for a1, a2, b in rows:
        n1, n2, nb = a1 * k11 + a2 * k12, a1 * k21 + a2 * k22, b * kb + a1 * k1 + a2 * k2
        g = gcd(n1, n2, nb)
        out.append((n1 // g, n2 // g, nb // g))
    return out


def transform_polygon(m: AffineMap2, h: HPolygon) -> HPolygon:
    """Image polygon {H x + t : x in h}; requires m invertible.

    m acts on homogeneous triples as one integer matrix M.  The rows, in
    h.rows order, map through M's adjugate, and HPolygon builds the image from
    them.  Invertible maps preserve edges, so no image row is redundant.
    """
    return HPolygon(tuple(_map_rows(_affine_matrix(m), h.rows)))


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
    rows and the simplex sum row: base.m + extra_dims + 1 in total, built
    once into rows as flat integer rows.
    """

    base: HPolygon
    extra_dims: int
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.extra_dims < 0:
            raise BadDimension("extra_dims must be nonnegative")
        e = self.extra_dims
        rows = [(a1, a2, *(0,) * e, b) for a1, a2, b in self.base.rows]
        rows += [(0, 0, *[-y for y in unit], 0) for unit in simplex_vertices(e)[1:]]
        if e:
            rows.append((0, 0, *(1,) * e, 1))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def dim(self) -> int:
        return 2 + self.extra_dims

    @property
    def facet_count(self) -> int:
        return len(self.rows)

    def contains(self, p: LiftedPoint) -> bool:
        return _inside(self.rows, self.state(p))

    def coordinates(self, p: LiftedPoint) -> tuple[Fraction, ...]:
        return (p.base.x, p.base.y) + p.simplex

    def state(self, p: LiftedPoint) -> tuple[int, ...]:
        """The homogeneous state (x, D) of the point p; raises BadDimension
        unless p has one simplex coordinate per simplex dimension."""
        if len(p.simplex) != self.extra_dims:
            raise BadDimension(
                f"point has {len(p.simplex)} simplex coordinates, polytope has {self.extra_dims}"
            )
        return homogeneous(self.coordinates(p))

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
    units = tuple([tuple([int(i == j) for j in range(extra_dims)]) for i in range(extra_dims)])
    return ((0,) * extra_dims,) + units
