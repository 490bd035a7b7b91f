"""Circuit directions of polygons and lifted polytopes, and exact moves along them.

For a full-dimensional polygon the circuits are exactly the edge-parallel
directions: kernels of single rows of the H-description.  A circuit move
travels from a feasible point along a circuit direction as far as the polygon
allows; a monotone walk chains such moves while a fixed cost strictly
increases.  Everything here is exact.  A maximal step is one integer
min-ratio test: the point is written as (X/D, Y/D), each blocking row's slack
b*D - a1*X - a2*Y is an integer, and ratios are compared by cross-multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm

from .polytope import HPolygon, LiftedPoint, LiftedPolytope, h_to_v, lifted_vertices
from .ratgeo import Direction2, Point2, Rat, primitive_direction, rat

__all__ = [
    "NotACircuit",
    "NotAVertex",
    "AmbiguousOptimum",
    "UnboundedDirection",
    "Infeasible",
    "INFEASIBLE",
    "CircuitSet",
    "enumerate_circuits",
    "blocking_rows",
    "homogeneous_step",
    "homogeneous",
    "max_step",
    "circuit_move",
    "monotone_directions",
    "optimal_value",
    "monotone_edge_walk",
    "LiftedCircuit",
    "LiftedCost",
    "enumerate_lifted_circuits",
    "lifted_max_step",
    "lifted_move",
    "monotone_lifted_directions",
    "lifted_value",
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


class Infeasible:
    """Result of a circuit move whose maximal step length is zero."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "INFEASIBLE"


INFEASIBLE = Infeasible()


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


def blocking_rows(h: HPolygon, g: Direction2) -> tuple[tuple[int, int, int, int], ...]:
    """Rows (a1, a2, b, a.g) of h with a.g > 0: the rows that can stop a move along g.

    Raises UnboundedDirection when no row blocks g (impossible for a valid
    bounded polygon, kept for defensive callers).
    """
    rows = []
    for a1, a2, b in h.rows:
        ag = a1 * g.dx + a2 * g.dy
        if ag > 0:
            rows.append((a1, a2, b, ag))
    if not rows:
        raise UnboundedDirection(f"nothing blocks ({g.dx}, {g.dy})")
    return tuple(rows)


def homogeneous_step(rows, X: int, Y: int, D: int) -> tuple[int, int]:
    """Maximal step from the point (X/D, Y/D), D > 0, along the blocked direction.

    rows come from blocking_rows.  Returns (slack, ag) of a binding row, where
    slack = b*D - a1*X - a2*Y; the step length is slack / (D * ag).  Ratios
    are compared by cross-multiplication, so everything stays in integers.
    Requires the point inside the polygon.
    """
    rows = iter(rows)
    a1, a2, b, best_ag = next(rows)
    best = b * D - a1 * X - a2 * Y
    for a1, a2, b, ag in rows:
        slack = b * D - a1 * X - a2 * Y
        if slack * best_ag < best * ag:
            best, best_ag = slack, ag
    return best, best_ag


def homogeneous(p: Point2) -> tuple[int, int, int]:
    """The point as integers (X, Y, D) with p == (X/D, Y/D), D > 0 and gcd 1."""
    x, y = p.x, p.y
    D = lcm(x.denominator, y.denominator)
    return (x.numerator * (D // x.denominator), y.numerator * (D // y.denominator), D)


def max_step(h: HPolygon, p: Point2, g: Direction2) -> Rat:
    """Largest lam >= 0 with p + lam*g still inside h.  Requires p inside h.

    Raises UnboundedDirection when no row blocks g (impossible for a valid
    bounded polygon, kept for defensive callers).
    """
    X, Y, D = homogeneous(p)
    slack, ag = homogeneous_step(blocking_rows(h, g), X, Y, D)
    return rat(slack, D * ag)


def circuit_move(h: HPolygon, p: Point2, g: Direction2) -> Point2 | Infeasible:
    """Maximal move from p along circuit g; INFEASIBLE when it has length zero."""
    if all(a1 * g.dx + a2 * g.dy != 0 for a1, a2, _ in h.rows):
        raise NotACircuit(f"({g.dx}, {g.dy}) is not parallel to any edge")
    lam = max_step(h, p, g)
    if lam == 0:
        return INFEASIBLE
    return Point2(p.x + lam * g.dx, p.y + lam * g.dy)


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


def optimal_value(h: HPolygon, c: Direction2) -> tuple[Rat, tuple[Point2, ...]]:
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
    """Linear cost on a lifted polytope: planar part plus simplex weights."""

    base: Direction2
    simplex: tuple[Rat, ...]


def lifted_value(c: LiftedCost, p: LiftedPoint) -> Rat:
    v = c.base.dx * p.base.x + c.base.dy * p.base.y
    for w, y in zip(c.simplex, p.simplex):
        v += w * y
    return v


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


def _check_lifted(lp: LiftedPolytope, circ: LiftedCircuit) -> None:
    if circ.kind == "base":
        if all(a1 * circ.g.dx + a2 * circ.g.dy != 0 for a1, a2, _ in lp.base.rows):
            raise NotACircuit(f"({circ.g.dx}, {circ.g.dy}) is not parallel to any base edge")
    elif max(circ.i, circ.j) >= lp.extra_dims:
        raise NotACircuit(f"simplex index out of range for extra_dims={lp.extra_dims}")


def lifted_max_step(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> Rat:
    """Largest feasible step length from p along the directed lifted circuit."""
    _check_lifted(lp, circ)
    if circ.kind == "base":
        return max_step(lp.base, p.base, circ.g)
    if circ.kind == "axis":
        if circ.sign > 0:
            return rat(1) - sum(p.simplex)
        return p.simplex[circ.i]
    return p.simplex[circ.j]


def lifted_move(lp: LiftedPolytope, p: LiftedPoint, circ: LiftedCircuit) -> LiftedPoint | Infeasible:
    lam = lifted_max_step(lp, p, circ)
    if lam == 0:
        return INFEASIBLE
    if circ.kind == "base":
        base = Point2(p.base.x + lam * circ.g.dx, p.base.y + lam * circ.g.dy)
        return LiftedPoint(base, p.simplex)
    y = list(p.simplex)
    if circ.kind == "axis":
        y[circ.i] += circ.sign * lam
    else:
        y[circ.i] += lam
        y[circ.j] -= lam
    return LiftedPoint(p.base, tuple(y))


def monotone_lifted_directions(
    circs: tuple[LiftedCircuit, ...], c: LiftedCost, extra_dims: int
) -> tuple[LiftedCircuit, ...]:
    """Directed lifted circuits with positive gain, sorted by coordinate vector."""
    out = []
    for circ in circs:
        vec = circ.vector(extra_dims)
        gain = c.base.dx * vec[0] + c.base.dy * vec[1]
        for w, vy in zip(c.simplex, vec[2:]):
            gain += w * vy
        if gain > 0:
            out.append(circ)
        elif gain < 0:
            out.append(circ.flipped())
    return tuple(sorted(out, key=lambda circ: circ.vector(extra_dims)))


def lifted_optimal_value(lp: LiftedPolytope, c: LiftedCost) -> tuple[Rat, tuple[LiftedPoint, ...]]:
    """Maximum of c over the product and the vertices attaining it."""
    verts = lifted_vertices(lp)
    vals = [lifted_value(c, v) for v in verts]
    best = max(vals)
    return best, tuple(v for v, val in zip(verts, vals) if val == best)
