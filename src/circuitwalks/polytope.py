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

A polygon is built from its vertex cycle, a tuple of triples, and its rows
by one O(m) check: the cycle's triples are canonical, turn strictly
counterclockwise, wind once and start at the lexicographic minimum (VPolygon's
check), and the rows are, as a set and in number, the cycle's edge rows, the
meets of consecutive vertices.
The first makes the cycle the vertex list of a convex polygon P in boundary
order; the second makes the rows P's edges, each with P on its inner side.  A
convex polygon is the intersection of the halfplanes of its edges, so the
rows describe P: bounded and full-dimensional, no row redundant (each carries
an edge), none repeated (the edges of a cycle that winds once have distinct
normal directions), and the hull is the cycle.  v_to_h, transform_polygon
and the constructions build their polygons this way.

Rows alone become vertices by one O(m) pass after sorting them by the angle
of their normal, O(m log m) for m rows.  The pass tests that every turn from
one normal to the next, the last back to the first included, is strictly
counterclockwise, and that on every row (a1, a2, b) the corners where it
meets the rows before and after it bound an edge of positive length along
(-a2, a1), its direction with its inner side on the left.  The turns, each
less than a half turn as the angles rise, add up to one full turn, so the
corners joined in order turn left at each corner and wind once: they are the
vertex cycle of a strictly convex polygon P, with one edge on each row and P
on its inner side.  As above, the rows then describe P, none redundant, and
rotated with the corners to the lex-min, they are its edge rows in order.
Conversely the rows of a minimal system, in angular order, are its polygon's
edges in boundary order and pass both tests: the pass accepts exactly the
minimal systems, the only ones HPolygon accepts.

The peel reduces any row system to its minimal one, or names its fault, by
the pass's edge test, dropping and rechecking rows as Graham's scan does
points.  It keeps the tightest of parallel rows and, if their normals
positively span (else the region is unbounded or empty), sets them on a ring
in angular order, each turn to the next less than a half turn.  A row r
popped from a worklist of them all stays when its edge between its live
neighbours q and s has positive length.  Else if q turns to s by less than a
half turn, r's normal is a positive combination of theirs: were the apex of
their wedge strictly outside r, r's line would cut both of its sides, at the
corners with q and s in that order, so the apex and the whole wedge lie in r.
By this wedge lemma r is dropped, the region unchanged, and q and s are
pushed again.  If q turns to s by a half turn or more, q, r and s have no
common interior, nor has the region: else they would bound a triangle that
the pass accepts, or a strip of positive width that r crosses along a
positive length.  Neighbours of a row of three turn by more than a half
turn, so the ring keeps three rows; when the worklist runs out, every live
row was tested since its neighbours last changed, and the ring passes the
pass.  Each drop pushes two rows: at most 3m pops, O(m) after the sort.

Every polytope here, a polygon or a lift, holds its rows in one format: the
flat canonical integer row (a_1, .., a_d, b) for a.x <= b, the polygon's
triples being the case d = 2.  Containment is an integer test in any
dimension: a point becomes its homogeneous state (x, D), and it lies in the
polytope when a.x <= b*D for every row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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


def _normals_positively_span(lines: list[tuple[int, int, int]]) -> bool:
    """True iff every turn from one row's normal to the next, the last back to
    the first included, is strictly counterclockwise; on rows in angular order,
    one per normal direction, iff the region has no recession direction."""
    return len(lines) >= 3 and all(_cross(lines[i - 1], lines[i]) > 0 for i in range(len(lines)))


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


def _edge_corners(lines: list[tuple[int, int, int]]) -> "VPolygon | None":
    """The vertex polygon, its edges included, of rows in angular order that are
    exactly a convex polygon's edges, else None: the pass of the module docstring."""
    if not _normals_positively_span(lines):
        return None
    # corners[i] is where lines[i]'s edge starts, corners[i + 1] where it ends
    corners = [_meet(lines[i - 1], lines[i]) for i in range(len(lines))]
    for (a1, a2, _), (px, py, pw), (qx, qy, qw) in zip(lines, corners, corners[1:] + corners[:1]):
        if (a1 * qy - a2 * qx) * pw <= (a1 * py - a2 * px) * qw:
            return None
    first = corners.index(min(corners, key=_LEX))
    hull = object.__new__(VPolygon)
    object.__setattr__(hull, "triples", tuple(corners[first:] + corners[:first]))
    object.__setattr__(hull, "edges", tuple(lines[first:] + lines[:first]))
    return hull


def _hull_of_rows(rows: tuple[tuple[int, int, int], ...]) -> "VPolygon":
    """Vertex polygon of canonical rows' region by the module docstring's peel, for
    remove_redundant and to name a rejected system's fault; raises UnboundedOrEmpty."""
    lines: list[tuple[int, int, int]] = []
    for r in _by_angle(rows):
        # of rows of one direction (x <= 1 and 2x <= 3), keep the smallest b / gcd(a1, a2)
        if lines and _cross(lines[-1], r) == 0 and lines[-1][0] * r[0] + lines[-1][1] * r[1] > 0:
            (a1, a2, b), (c1, c2, d) = lines[-1], r
            if d * gcd(a1, a2) < b * gcd(c1, c2):
                lines[-1] = r
        else:
            lines.append(r)
    if not _normals_positively_span(lines):
        raise UnboundedOrEmpty("row normals do not positively span the plane")
    # the ring: lines[before[i]] and lines[after[i]] are live row i's neighbours
    n = len(lines)
    before, after = [n - 1, *range(n - 1)], [*range(1, n), 0]
    todo = list(range(n))
    while todo:
        i = todo.pop()
        j, k = before[i], after[i]
        if after[j] != i:
            continue  # dropped since it was pushed
        q, r, s = lines[j], lines[i], lines[k]
        (a1, a2, _), (px, py, pw), (qx, qy, qw) = r, _meet(q, r), _meet(r, s)
        if (a1 * qy - a2 * qx) * pw > (a1 * py - a2 * px) * qw:
            continue
        if _cross(q, s) <= 0:
            raise UnboundedOrEmpty("feasible region is empty or not full-dimensional")
        after[j], before[k] = k, j
        todo += (j, k)
    return _edge_corners([lines[i] for i in range(n) if after[before[i]] == i])


def _from_lex_min(t: list) -> tuple:
    """The cycle of triples t, rotated to start at its lexicographic minimum."""
    first = t.index(min(t, key=_LEX))
    return tuple(t[first:] + t[:first])


def _hpolygon_of_cycle(v: "VPolygon", rows: tuple | None = None) -> "HPolygon":
    """HPolygon of the vertex polygon v and its canonical edge rows, by default
    in boundary order; raises ValueError when rows are not its edge rows.

    With VPolygon's own check, this is the cycle check of the module docstring.
    """
    if rows is None:
        rows = v.edges
    elif len(rows) != len(v.edges) or set(rows) != set(v.edges):
        raise ValueError("rows are not the edge rows of the vertex cycle")
    h = object.__new__(_HPolygon)
    object.__setattr__(h, "rows", rows)
    object.__setattr__(h, "_hull", v)
    return h


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
    O(m) pass of the module docstring decides minimality and gives the vertex
    polygon, its edge rows included; the peel runs only to name the fault of a
    system the pass rejects.
    """

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple([canonical_row(*r) for r in self.rows])
        object.__setattr__(self, "rows", rows)
        if len(rows) < 3:
            raise UnboundedOrEmpty("a polygon needs at least three rows")
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate halfplane rows")
        hull = _edge_corners(_by_angle(rows))
        if hull is None:
            _hull_of_rows(rows)  # raises, unless a row is redundant
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


# The benchmark's traced mode (cwbench/tracing.py) rebinds the name HPolygon in
# this module and in constructions; the private constructors use the class.
_HPolygon = HPolygon


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
    """Minimal halfplane system, one row per edge in boundary order."""
    return _hpolygon_of_cycle(v)


def h_to_v(h: HPolygon) -> VPolygon:
    """Vertices of a valid HPolygon (computed once, at construction)."""
    return h._hull  # noqa: SLF001 - cache owned by this module


def remove_redundant(rows) -> HPolygon:
    """Minimal HPolygon from arbitrary rows of a bounded full-dim region, by
    the peel of the module docstring, O(m) after the angle sort.

    Duplicate and redundant rows are dropped, and the rows kept are the edge
    rows in boundary order; UnboundedOrEmpty is raised when the rows do not
    bound a full-dimensional polygon.
    """
    canon = tuple(dict.fromkeys(canonical_row(*r) for r in rows))
    if len(canon) < 3:
        raise UnboundedOrEmpty("a polygon needs at least three rows")
    return _hpolygon_of_cycle(_hull_of_rows(canon))


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
    h.rows order, map through M's adjugate and the vertices through M; a map
    that reverses orientation reverses the cycle.  Invertible maps preserve
    edges, so the image rows are the image cycle's edge rows, as the cycle
    check confirms.
    """
    mat = _affine_matrix(m)
    rows = _map_rows(mat, h.rows)
    t = _map_triples(mat, h_to_v(h).triples)
    if mat[0] * mat[4] < mat[1] * mat[3]:
        t.reverse()
    return _hpolygon_of_cycle(VPolygon(_from_lex_min(t)), tuple(rows))


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
