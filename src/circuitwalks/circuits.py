"""Circuit directions of polygons and lifted polytopes, and exact moves along them.

For a full-dimensional polygon the circuits are exactly the edge-parallel
directions: kernels of single rows of the H-description.  A product with a
simplex adds the simplex's axis directions and axis differences.  A circuit
move travels from a feasible point along a circuit direction as far as the
polytope allows; a monotone walk chains such moves while a fixed cost strictly
increases.  Everything here is exact, and one integer kernel computes every
maximal step, in any dimension d: rows are integer pairs (a, b) for a.x <= b,
a point is the homogeneous state (x_1, .., x_d, D) for x/D (D > 0, gcd 1),
each row's slack b*D - a.x is an integer, ratios are compared by
cross-multiplying, and the moved state costs one gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from operator import mul

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
    "CircuitSet",
    "enumerate_circuits",
    "blocking_rows",
    "maximal_moves",
    "maximal_step",
    "max_step",
    "circuit_move",
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
class CircuitSet:
    """Canonical undirected circuit directions, sorted lexicographically."""

    directions: tuple[Direction2, ...]

    def __post_init__(self) -> None:
        if list(self.directions) != sorted(set(g.canonical() for g in self.directions)):
            raise ValueError("directions must be canonical, sorted and distinct")

    def __iter__(self):
        return iter(self.directions)

    def __len__(self) -> int:
        return len(self.directions)

    def __contains__(self, g: Direction2) -> bool:
        return g.canonical() in set(self.directions)


def enumerate_circuits(h: HPolygon) -> CircuitSet:
    """All circuit directions of the polygon: one per edge slope."""
    dirs = {primitive_direction(-a2, a1).canonical() for a1, a2, _ in h.rows}
    return CircuitSet(tuple(sorted(dirs)))


def blocking_rows(rows, g) -> tuple[tuple[int, int], ...]:
    """(index, a.g) of each row (a, b) with a.g > 0: the rows that can stop a move along g.

    Raises UnboundedDirection when no row blocks g (impossible for a valid
    bounded polytope, kept for defensive callers).
    """
    blocking = []
    for i, (a, _) in enumerate(rows):
        ag = sum(map(mul, a, g))
        if ag > 0:
            blocking.append((i, ag))
    if not blocking:
        raise UnboundedDirection(f"nothing blocks {tuple(g)}")
    return tuple(blocking)


def maximal_moves(rows, state, moves):
    """Maximal move from the state (x, D) along each (label, g, blocking) of moves.

    rows are the (a, b) pairs, the state must lie inside them, g is an
    integer vector and blocking its blocking_rows.  Every row's slack
    b*D - a.x is computed once; the step along g is slack / (D * ag) for the
    binding row, found by comparing ratios by cross-multiplication.  Yields
    (label, slack, ag, successor) per move, in order, where successor is the
    state of the moved point, or None when the step has length zero.
    """
    *x, D = state
    slacks = [b * D - sum(map(mul, a, x)) for a, b in rows]
    for label, g, blocking in moves:
        candidates = iter(blocking)
        i, ag = next(candidates)
        slack = slacks[i]
        for i, a in candidates:
            if slacks[i] * ag < slack * a:
                slack, ag = slacks[i], a
        if not slack:
            yield label, slack, ag, None
            continue
        # x/D + slack/(D*ag) * g over the common denominator D*ag
        moved = [xi * ag + slack * gi for xi, gi in zip(x, g)]
        moved.append(D * ag)
        k = gcd(*moved)
        yield label, slack, ag, tuple([v // k for v in moved])


def maximal_step(rows, coords, g) -> tuple[Fraction, tuple[Fraction, ...] | None]:
    """Length and end coordinates of the maximal move from a point along g.

    rows are (a, b) pairs of a bounded polytope containing the point; the end
    is None when the step has length zero.
    """
    state = homogeneous(coords)
    _, slack, ag, moved = next(maximal_moves(rows, state, ((g, g, blocking_rows(rows, g)),)))
    return rat(slack, state[-1] * ag), None if moved is None else dehomogenize(moved)


def max_step(h: HPolygon, p: Point2, g: Direction2) -> Fraction:
    """Largest lam >= 0 with p + lam*g still inside h.  Requires p inside h.

    Raises UnboundedDirection when no row blocks g (impossible for a valid
    bounded polygon, kept for defensive callers).
    """
    return maximal_step(h.inequality_rows(), h.coordinates(p), (g.dx, g.dy))[0]


def circuit_move(h: HPolygon, p: Point2, g: Direction2) -> Point2 | None:
    """Maximal move from p along circuit g; None when it has length zero."""
    if g not in enumerate_circuits(h):
        raise NotACircuit(f"({g.dx}, {g.dy}) is not parallel to any edge")
    end = maximal_step(h.inequality_rows(), h.coordinates(p), (g.dx, g.dy))[1]
    return None if end is None else h.point(end)


def monotone_directions(cs: CircuitSet, c) -> tuple[Direction2, ...]:
    """Directed circuits with strictly positive c-gain, sorted by (dx, dy).

    c may be a Direction2 or any (cx, cy) pair; a zero cost yields no
    directions (degenerate costs are rejected upstream).
    """
    cx, cy = (c.dx, c.dy) if isinstance(c, Direction2) else (c[0], c[1])
    out = []
    for g in cs:
        gain = cx * g.dx + cy * g.dy
        if gain > 0:
            out.append(g)
        elif gain < 0:
            out.append(g.flipped())
    return tuple(sorted(out))


def optimal_value(h: HPolygon, c: Direction2) -> tuple[Fraction, tuple[Point2, ...]]:
    """Maximum of c over h and every vertex attaining it, in boundary order."""
    verts = h_to_v(h).vertices
    vals = [c.dx * v.x + c.dy * v.y for v in verts]
    best = max(vals)
    return best, tuple(v for v, val in zip(verts, vals) if val == best)


def monotone_edge_walk(h: HPolygon, s: Point2, c: Direction2):
    """Greedy edge walk from vertex s to the unique c-maximal vertex.

    Each step moves to a strictly improving neighbor, preferring the larger
    gain and breaking exact ties by the lexicographically smaller step
    direction.  Edges are circuits, so the result is a monotone circuit walk
    of at most m steps.
    """
    from .search import Walk  # deferred: search imports this module

    verts = h_to_v(h).vertices
    n = len(verts)
    value = {v: c.dx * v.x + c.dy * v.y for v in verts}
    best, argmax = optimal_value(h, c)
    if len(argmax) > 1:
        raise AmbiguousOptimum("cost attains its maximum on an edge")
    if s not in value:
        raise NotAVertex(f"({s.x}, {s.y}) is not a vertex")
    index = {v: i for i, v in enumerate(verts)}
    points = [s]
    steps = []
    current = s
    while value[current] != best:
        i = index[current]
        options = []
        for nb in (verts[(i + 1) % n], verts[(i - 1) % n]):
            gain = value[nb] - value[current]
            if gain > 0:
                step = primitive_direction(nb.x - current.x, nb.y - current.y)
                options.append((gain, step, nb))
        # a non-maximal vertex of a polygon with a unique optimum always
        # has a strictly improving neighbor
        gain, step, nxt = max(options, key=lambda o: (o[0], (-o[1].dx, -o[1].dy)))
        points.append(nxt)
        steps.append(step)
        current = nxt
        if len(points) > n:
            raise AssertionError("edge walk failed to terminate")
    return Walk(tuple(points), tuple(steps))


# -- lifted variants ---------------------------------------------------------


@dataclass(frozen=True)
class LiftedCircuit:
    """Circuit of a polygon-times-simplex product.

    kind \"base\": the planar circuit g paired with zero simplex movement.
    kind \"axis\": sign * e_i in the simplex coordinates.
    kind \"diff\": e_i - e_j in the simplex coordinates.
    Directed instances carry sign or index order; canonical() strips both.
    """

    kind: str
    g: Direction2 | None = None
    i: int = -1
    j: int = -1
    sign: int = 1

    def __post_init__(self) -> None:
        if self.kind == "base":
            if self.g is None:
                raise ValueError("base circuit needs a planar direction")
        elif self.kind == "axis":
            if self.i < 0 or self.sign not in (1, -1):
                raise ValueError("axis circuit needs an index and a sign")
        elif self.kind == "diff":
            if self.i < 0 or self.j < 0 or self.i == self.j:
                raise ValueError("diff circuit needs two distinct indices")
        else:
            raise ValueError(f"unknown circuit kind {self.kind!r}")

    def canonical(self) -> "LiftedCircuit":
        if self.kind == "base":
            return replace(self, g=self.g.canonical())
        if self.kind == "axis":
            return replace(self, sign=1)
        if self.i > self.j:
            return replace(self, i=self.j, j=self.i)
        return self

    def flipped(self) -> "LiftedCircuit":
        if self.kind == "base":
            return replace(self, g=self.g.flipped())
        if self.kind == "axis":
            return replace(self, sign=-self.sign)
        return replace(self, i=self.j, j=self.i)

    def vector(self, extra_dims: int) -> tuple[int, ...]:
        """Coordinates in dimension 2 + extra_dims; doubles as the sort key."""
        y = [0] * extra_dims
        if self.kind == "base":
            return (self.g.dx, self.g.dy) + tuple(y)
        if self.kind == "axis":
            y[self.i] = self.sign
        else:
            y[self.i] = 1
            y[self.j] = -1
        return (0, 0) + tuple(y)


@dataclass(frozen=True)
class LiftedCost:
    """Linear cost on a lifted polytope: planar part plus one weight per simplex coordinate."""

    base: Direction2
    simplex: tuple[Fraction, ...]


def check_lifted_cost(lp: LiftedPolytope, c: LiftedCost) -> None:
    """Raise BadDimension unless c has one simplex weight per simplex coordinate of lp."""
    if len(c.simplex) != lp.extra_dims:
        raise BadDimension(
            f"cost has {len(c.simplex)} simplex weights, polytope has {lp.extra_dims}"
        )


def enumerate_lifted_circuits(lp: LiftedPolytope) -> tuple[LiftedCircuit, ...]:
    """Canonical circuits of the product: base slopes, axes, axis differences."""
    out = [LiftedCircuit("base", g=g) for g in enumerate_circuits(lp.base)]
    out += [LiftedCircuit("axis", i=i) for i in range(lp.extra_dims)]
    out += [
        LiftedCircuit("diff", i=i, j=j)
        for i in range(lp.extra_dims)
        for j in range(i + 1, lp.extra_dims)
    ]
    return tuple(out)


def _lifted_step(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit):
    if circ.canonical() not in enumerate_lifted_circuits(lp):
        raise NotACircuit(f"{circ} is not a circuit of the lift with extra_dims={lp.extra_dims}")
    return maximal_step(lp.inequality_rows(), lp.coordinates(p), circ.vector(lp.extra_dims))


def lifted_max_step(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> Fraction:
    """Largest feasible step length from p along the directed lifted circuit."""
    return _lifted_step(lp, p, circ)[0]


def lifted_move(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> LiftedPoint | None:
    """Maximal move from p along the lifted circuit; None when it has length zero."""
    end = _lifted_step(lp, p, circ)[1]
    return None if end is None else lp.point(end)


def monotone_lifted_directions(
    circs: tuple[LiftedCircuit, ...], c: LiftedCost, extra_dims: int
) -> tuple[LiftedCircuit, ...]:
    """Directed lifted circuits with positive gain, sorted by coordinate vector."""
    # a positive integer multiple of c has the same gain signs
    weights = homogeneous((c.base.dx, c.base.dy) + c.simplex)[:-1]
    out = []
    for circ in circs:
        gain = sum(map(mul, weights, circ.vector(extra_dims)))
        if gain > 0:
            out.append(circ)
        elif gain < 0:
            out.append(circ.flipped())
    return tuple(sorted(out, key=lambda circ: circ.vector(extra_dims)))


def lifted_optimal_value(
    lp: LiftedPolytope, c: LiftedCost
) -> tuple[Fraction, tuple[LiftedPoint, ...]]:
    """Maximum of c over the product and the vertices attaining it.

    The cost is separable over the product, so its maximum is the base
    optimum plus the largest simplex weight, where the apex 0 weighs 0.  The
    maximal vertices are the base's maximal vertices times the simplex's,
    listed in lifted_vertices order: base vertex first, then simplex vertex.
    Raises BadDimension unless c has one weight per simplex coordinate.
    """
    check_lifted_cost(lp, c)
    best, base = optimal_value(lp.base, c.base)
    # weights of the simplex vertices 0, e_1, .., e_extra
    weights = (0,) + c.simplex
    top = max(weights)
    corners = [
        tuple(map(Fraction, s)) for s, w in zip(simplex_vertices(lp.extra_dims), weights) if w == top
    ]
    return best + top, tuple(LiftedPoint(v, s) for v in base for s in corners)
