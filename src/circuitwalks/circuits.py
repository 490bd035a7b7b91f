"""Circuit directions of polygons and lifted polytopes, and exact moves along them.

A circuit is a primitive integer vector, kept up to sign in canonical form
(first nonzero entry positive); a directed circuit is one of the two signs.
For a full-dimensional polygon the circuits are exactly the edge-parallel
directions: kernels of single rows of the H-description.  The kernel of a
block-diagonal system splits, so the circuits of a product with a simplex are
the circuits of each factor padded with zeros: the polygon's edge slopes
(0s in the simplex coordinates), the simplex axes e_i and the differences
e_i - e_j.  Planar circuits (Direction2) and lifted ones (LiftedCircuit) thus
answer the same questions: their vector, canonical(), flipped() and the sort
order of their vectors.

A circuit move travels from a feasible point along a circuit direction as far
as the polytope allows; a monotone walk chains such moves while a fixed cost
strictly increases.  Everything here is exact: rows are flat integer rows
(a_1, .., a_d, b) for a.x <= b, a point is the homogeneous state
(x_1, .., x_d, D) for x/D (D > 0, gcd 1), and the moved state costs one gcd.
maximal_moves defines the maximal step in any dimension d, by an integer
min-ratio test over the slacks b*D - a.x of the rows that block g, each
computed on first use.  The polygon search runs on chord_moves, which
bisects the front chain instead and computes one slack (Chazelle and
Dobkin, 1987).  The optimum and the edge walk compare the cost
on the vertices' triples, and build points only for what they return.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul, sub

from .polytope import (
    BadDimension,
    HPolygon,
    LiftedPoint,
    LiftedPolytope,
    h_to_v,
    simplex_vertices,
)
from .ratgeo import Direction2, Point2, dehomogenize, homogeneous, primitive_direction, rat

__all__ = [
    "NotACircuit",
    "NotAVertex",
    "AmbiguousOptimum",
    "UnboundedDirection",
    "Walk",
    "enumerate_circuits",
    "blocking_rows",
    "maximal_moves",
    "chord_moves",
    "maximal_step",
    "max_step",
    "monotone_directions",
    "optimal_value",
    "monotone_edge_walk",
    "LiftedCircuit",
    "LiftedCost",
    "check_lifted_cost",
    "enumerate_lifted_circuits",
    "lifted_max_step",
    "lifted_move",
    "monotone_lifted_directions",
    "lifted_optimal_value",
]


class NotACircuit(ValueError):
    """Direction is not parallel to any edge of the polygon."""


class NotAVertex(ValueError):
    """Operation requires a vertex of the polygon as its start."""


class AmbiguousOptimum(ValueError):
    """The cost attains its maximum on more than one vertex."""


class UnboundedDirection(ValueError):
    """No row blocks the direction, so the maximal step does not exist."""


@dataclass(frozen=True)
class Walk:
    """A walk: n points joined by n-1 primitive step directions."""

    points: tuple
    steps: tuple

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a walk has at least one point")
        if len(self.steps) != len(self.points) - 1:
            raise ValueError("need exactly one step between consecutive points")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


def enumerate_circuits(h: HPolygon) -> tuple[Direction2, ...]:
    """All circuit directions of the polygon, one per edge slope: canonical and
    sorted, computed once per polygon and kept with it."""
    if "_circuits" not in h.__dict__:
        slopes = {primitive_direction(-a2, a1).canonical() for a1, a2, _ in h.rows}
        object.__setattr__(h, "_circuits", tuple(sorted(slopes)))
    return h.__dict__["_circuits"]


def blocking_rows(rows, g) -> tuple[tuple[int, int], ...]:
    """(index, a.g) of each flat row (a_1, .., a_d, b) with a.g > 0: the rows
    that can stop a move along the integer vector g of length d.

    Raises UnboundedDirection when no row blocks g (impossible for a valid
    bounded polytope, kept for defensive callers).
    """
    blocking = []
    for i, r in enumerate(rows):
        ag = sum(map(mul, r, g))  # map stops at g's end, before b
        if ag > 0:
            blocking.append((i, ag))
    if not blocking:
        raise UnboundedDirection(f"nothing blocks {tuple(g)}")
    return tuple(blocking)


def maximal_moves(rows, state, moves):
    """Maximal move from the state (x, D) along each (label, g, blocking) of moves.

    rows are flat rows (a_1, .., a_d, b), the state must lie inside them, g
    is an integer vector and blocking its blocking_rows.  A row's slack
    b*D - a.x is computed the first time a move's blocking rows hold it, so a
    single move pays only for its own; the step along g is slack / (D * ag)
    for the binding row, found by comparing ratios by cross-multiplication;
    of tied rows the first in blocking order binds.  Yields (label, slack,
    ag, row, successor) per move, in order, where row is the binding row's
    index (the moved point lies on it) and successor is the state of the
    moved point, or None when the step has length zero.
    """
    *x, D = state
    slacks = [None] * len(rows)
    for label, g, blocking in moves:
        row = None
        for i, a in blocking:
            s = slacks[i]
            if s is None:
                r = rows[i]
                s = slacks[i] = r[-1] * D - sum(map(mul, r, x))
            if row is None or s * ag < slack * a:
                row, slack, ag = i, s, a
        if not slack:
            yield label, slack, ag, row, None
            continue
        # x/D + slack/(D*ag) * g over the common denominator D*ag
        moved = [xi * ag + slack * gi for xi, gi in zip(x, g)]
        moved.append(D * ag)
        k = gcd(*moved)
        yield label, slack, ag, row, tuple([v // k for v in moved])


def _chain_frame(h: HPolygon) -> tuple:
    """(L, scaled, edge, corner), the part of _chain_pairs that depends on the
    polygon alone.

    L is the vertices' common denominator and scaled[k] is L times vertex k;
    edge[k] is (row, a1, a2, b) of the edge leaving vertex k and corner[k]
    that of the smaller row at vertex k, both listed twice around.
    """
    v = h_to_v(h)
    t = v.triples
    index = {row: i for i, row in enumerate(h.rows)}
    edge = [(index[row],) + row for row in v.edges] * 2
    corner = list(map(min, edge[-1:] + edge, edge))
    L = lcm(*[w for _, _, w in t])
    return L, [(x * (L // w), y * (L // w)) for x, y, w in t], edge, corner


def _span(phi, a: int, b: int) -> tuple[int, int]:
    """(k, m): m edges from the last vertex of phi's extremum at a to the first of that at b."""
    n = len(phi)
    k = (a + (phi[(a + 1) % n] == phi[a])) % n
    return k, (b - (phi[b - 1] == phi[b]) - k) % n


def _chain_pairs(frame, gs) -> list:
    """(front chain of g, front chain of -g) for each integer vector g of gs,
    both cut from one pass of phi_g over the polygon's _chain_frame.

    The front chain of g is the polygon's edges whose rows block g,
    counterclockwise, as (L, values, edges, corners): values[j] is L*phi_g at
    its j-th vertex, L the vertices' common denominator; edges[j] is (row, a1,
    a2, b) of the edge from vertex j to j + 1, corners[j] that of the row
    binding at j.
    """
    L, scaled, edge, corner = frame

    def chain(values, k, m):
        return (L, values, edge[k:k + m], [edge[k], *corner[k + 1:k + m], edge[k + m - 1]])

    pairs = []
    for g1, g2 in gs:
        phi = [g1 * y - g2 * x for x, y in scaled]
        # phi_g rises along the front chain, from the last vertex of least phi_g to
        # the first of greatest, and falls along the back chain, where phi_-g = -phi_g rises
        lo, hi = phi.index(min(phi)), phi.index(max(phi))
        (k, m), (kb, mb) = _span(phi, lo, hi), _span(phi, hi, lo)
        phi += phi
        pairs.append((chain(phi[k:k + m + 1], k, m),
                      chain([-v for v in phi[kb:kb + mb + 1]], kb, mb)))
    return pairs


def chord_moves(state, moves):
    """maximal_moves on a polygon, for each (label, g, g's front chain) of moves.

    A move along g keeps phi_g(x) = g1*x2 - g2*x1 and ends on the front chain,
    along which phi_g rises strictly (by a.g > 0 per unit of an edge's (-a2, a1)),
    so bisecting the chain's values finds the edge or vertex it ends on; only
    that row's slack is computed.  At a vertex inside the chain the smaller of
    its two row indices binds, as the first in maximal_moves' blocking order.
    """
    x, y, D = state
    for label, (g1, g2), (L, values, edges, corners) in moves:
        q, r = divmod((g1 * y - g2 * x) * L, D)
        j = bisect_right(values, q) - 1
        row, a1, a2, b = edges[j] if r or values[j] != q else corners[j]
        slack = b * D - a1 * x - a2 * y
        ag = a1 * g1 + a2 * g2
        if not slack:
            yield label, 0, ag, row, None
            continue
        x2, y2, D2 = x * ag + slack * g1, y * ag + slack * g2, D * ag
        k = gcd(x2, y2, D2)
        yield label, slack, ag, row, (x2 // k, y2 // k, D2 // k)


def maximal_step(rows, coords, g) -> tuple[Fraction, tuple[Fraction, ...] | None]:
    """Length and end coordinates of the maximal move from a point along g.

    rows are the flat rows (a_1, .., a_d, b) of a bounded polytope containing
    the point; the end is None when the step has length zero.
    """
    state = homogeneous(coords)
    _, slack, ag, _, moved = next(maximal_moves(rows, state, ((g, g, blocking_rows(rows, g)),)))
    return rat(slack, state[-1] * ag), None if moved is None else dehomogenize(moved)


def _circuit_blocking(h, g):
    """blocking_rows(h.rows, g.vector) when g, a Direction2 on a polygon or a
    LiftedCircuit of a lift's dimension, is a circuit of h, else None.  One
    pass of a.g over the rows decides both, with no circuit built: a planar g
    is a circuit exactly when some row has a.g = 0 (it spans that row's
    kernel), and a lifted one when it is such a g padded with zeros (a.g = 0
    on a base row, a lift's first rows), +-e_i or +-(e_i - e_j), the rule
    enumerate_lifted_circuits encodes."""
    lifted = isinstance(h, LiftedPolytope)
    if (not isinstance(g, LiftedCircuit if lifted else Direction2)
            or len(g.vector) != len(h.rows[0]) - 1):
        return None
    g1, g2, *y = v = g.vector
    ag = [sum(map(mul, row, v)) for row in h.rows]  # map stops at v's end, before b
    if g1 or g2:
        circuit = not any(y) and 0 in ag[:h.base.m if lifted else h.m]
    else:
        circuit = sorted(filter(None, y)) in ([-1], [1], [-1, 1])
    return tuple([(i, a) for i, a in enumerate(ag) if a > 0]) if circuit else None


def _step(h, p, g):
    """Length and end point of the maximal move from p along the circuit g of h.

    h is a polygon or a lift; the end is None when the move has length zero.
    Raises NotACircuit when g is not a circuit of h.
    """
    if _circuit_blocking(h, g) is None:
        raise NotACircuit(f"{g.vector} is not a circuit of the polytope")
    lam, end = maximal_step(h.rows, h.coordinates(p), g.vector)
    return lam, None if end is None else h.point(end)


def max_step(h: HPolygon, p: Point2, g: Direction2) -> Fraction:
    """Largest lam >= 0 with p + lam*g still inside h.  Requires p inside h.

    Raises NotACircuit unless g is parallel to an edge of h.
    """
    return _step(h, p, g)[0]


def monotone_directions(circuits, c) -> tuple:
    """Directed circuits with strictly positive c-gain, in sort order.

    circuits are canonical Direction2s or LiftedCircuits, and c a Direction2,
    a LiftedCost or any cost vector; a zero cost yields no directions
    (degenerate costs are rejected upstream).
    """
    # a positive integer multiple of c has the same gain signs
    weights = homogeneous(getattr(c, "vector", c))[:-1]
    out = []
    for g in circuits:
        gain = sum(map(mul, weights, g.vector))
        if gain > 0:
            out.append(g)
        elif gain < 0:
            out.append(g.flipped())
    return tuple(sorted(out))


def _optimum(h: HPolygon, c: Direction2) -> tuple[tuple[int, int], tuple]:
    """The maximum of c over h as (num, den), den > 0, and the triples of every
    vertex attaining it, in boundary order.

    Values c.(X, Y)/W are compared on the vertices' triples by cross-multiplying (W > 0).
    """
    t = h_to_v(h).triples
    dx, dy = c.dx, c.dy
    vals = [(dx * x + dy * y, w) for x, y, w in t]
    num, den = vals[0]
    for n, w in vals:
        if n * den > num * w:
            num, den = n, w
    return (num, den), tuple([p for p, (n, w) in zip(t, vals) if n * den == num * w])


def optimal_value(h: HPolygon, c: Direction2) -> tuple[Fraction, tuple[Point2, ...]]:
    """Maximum of c over h and every vertex attaining it, in boundary order:
    _optimum's result as a rational and points."""
    (num, den), argmax = _optimum(h, c)
    return Fraction(num, den), tuple([Point2(*dehomogenize(p)) for p in argmax])


def monotone_edge_walk(h: HPolygon, s: Point2, c: Direction2):
    """Edge walk along the vertex cycle from vertex s to the unique c-maximal vertex.

    Along the boundary c rises strictly from its minimum (a vertex or a flat
    edge) to the maximum on both sides, so only s can have two improving
    neighbours.  The walk leaves s towards the larger gain, an exact tie going
    to the lexicographically smaller step direction, and then follows the
    cycle in that direction up to the maximum.  Gains are compared on the
    vertices' triples by cross-multiplying, and points are built only for the
    walk.  Edges are circuits, so the result is a monotone circuit walk of at
    most m - 1 steps.
    """
    _, argmax = _optimum(h, c)
    if len(argmax) > 1:
        raise AmbiguousOptimum("cost attains its maximum on an edge")
    t = h_to_v(h).triples
    p = homogeneous((s.x, s.y))
    if p not in t:
        raise NotAVertex(f"({s.x}, {s.y}) is not a vertex")
    n, i = len(t), t.index(p)
    xs, ys, ws = p

    def side(d):
        # the gain c.(q - s) times W_q * W_s, W_q, and the step from s to the neighbour q
        x, y, w = t[(i + d) % n]
        dx, dy = x * ws - xs * w, y * ws - ys * w
        return c.dx * dx + c.dy * dy, w, primitive_direction(dx, dy)

    (g1, w1, e1), (g2, w2, e2) = side(1), side(-1)
    # the larger gain g / (W_q * W_s) by cross-multiplying, then the smaller step
    d = 1 if (g1 * w2, e2) > (g2 * w1, e1) else -1
    ring = [t[(i + k * d) % n] for k in range((t.index(argmax[0]) - i) * d % n + 1)]
    steps = tuple([primitive_direction(x1 * w0 - x0 * w1, y1 * w0 - y0 * w1)
                   for (x0, y0, w0), (x1, y1, w1) in zip(ring, ring[1:])])
    return Walk((s, *[Point2(*dehomogenize(q)) for q in ring[1:]]), steps)


# -- lifted variants ---------------------------------------------------------


@dataclass(frozen=True, order=True)
class LiftedCircuit:
    """Directed circuit of a polygon-times-simplex product: its primitive integer vector.

    The first two coordinates are the planar part, the rest the simplex part.
    By the product rule a circuit is one of three kinds: \"base\", a planar
    circuit g padded with zeros; \"axis\", +-e_i in the simplex coordinates;
    \"diff\", e_i - e_j.  Ordering is that of the vectors.
    """

    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.vector):
            raise ValueError("circuit vector must be nonzero")
        if gcd(*self.vector) != 1:
            raise ValueError(f"{self.vector} is not primitive")

    @property
    def kind(self) -> str:
        if any(self.vector[:2]):
            return "base"
        return "axis" if sum(map(abs, self.vector)) == 1 else "diff"

    @property
    def g(self) -> Direction2 | None:
        """Direction of the planar part; None when it is zero."""
        return primitive_direction(*self.vector[:2]) if any(self.vector[:2]) else None

    def canonical(self) -> "LiftedCircuit":
        """The one of +-vector whose first nonzero entry is positive."""
        return self if next(v for v in self.vector if v) > 0 else self.flipped()

    def flipped(self) -> "LiftedCircuit":
        return LiftedCircuit(tuple([-v for v in self.vector]))


@dataclass(frozen=True)
class LiftedCost:
    """Linear cost on a lifted polytope: planar part plus one weight per simplex coordinate."""

    base: Direction2
    simplex: tuple[Fraction, ...]

    @property
    def vector(self) -> tuple:
        return self.base.vector + self.simplex


def check_lifted_cost(lp: LiftedPolytope, c: LiftedCost) -> None:
    """Raise BadDimension unless c has one simplex weight per simplex coordinate of lp."""
    if len(c.simplex) != lp.extra_dims:
        raise BadDimension(
            f"cost has {len(c.simplex)} simplex weights, polytope has {lp.extra_dims}"
        )


def enumerate_lifted_circuits(lp: LiftedPolytope) -> tuple[LiftedCircuit, ...]:
    """Canonical circuits of the product: each factor's circuits padded with zeros.

    The base slopes come first, then the simplex's edge directions: e_i, then
    e_i - e_j for i < j.
    """
    e = lp.extra_dims
    unit = simplex_vertices(e)[1:]
    simplex = list(unit) + [(*map(sub, y, z),) for y, z in combinations(unit, 2)]
    base = [g.vector + (0,) * e for g in enumerate_circuits(lp.base)]
    return tuple([LiftedCircuit(v) for v in base + [(0, 0) + y for y in simplex]])


def lifted_max_step(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> Fraction:
    """Largest feasible step length from p along the directed lifted circuit."""
    return _step(lp, p, circ)[0]


def lifted_move(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> LiftedPoint | None:
    """Maximal move from p along the lifted circuit; None when it has length zero."""
    return _step(lp, p, circ)[1]


# one body serves both: a lifted circuit and cost have integer vectors like planar ones
monotone_lifted_directions = monotone_directions


def lifted_optimal_value(
    lp: LiftedPolytope, c: LiftedCost
) -> tuple[Fraction, tuple[LiftedPoint, ...]]:
    """Maximum of c over the product and the vertices attaining it.

    The cost is separable over the product, so its maximum is the base
    optimum plus the largest simplex weight, where the apex 0 weighs 0.  The
    maximal vertices are the base's maximal vertices times the simplex's,
    listed by base vertex, then by simplex vertex.
    Raises BadDimension unless c has one weight per simplex coordinate.
    """
    check_lifted_cost(lp, c)
    best, base = optimal_value(lp.base, c.base)
    # weights of the simplex vertices 0, e_1, .., e_extra
    weights = (0,) + c.simplex
    top = max(weights)
    corners = [
        (*map(Fraction, s),) for s, w in zip(simplex_vertices(lp.extra_dims), weights) if w == top
    ]
    return best + top, tuple([LiftedPoint(v, s) for v in base for s in corners])
