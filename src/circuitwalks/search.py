"""Shortest monotone circuit walks by exact breadth-first search.

One integer kernel serves polygons and their simplex lifts alike.  A search
state in dimension d is the homogeneous integer vector (x_1, .., x_d, D)
standing for the point x/D, kept canonical (D > 0, gcd 1) so the vector itself
is the deduplication key.  The rows are integer (a, b) pairs for a.x <= b;
each monotone direction's blocking rows are computed once per search, every
row's slack once per state, and a move is one integer min-ratio test plus one
gcd.  The goal test is an integer comparison, and points are only built for
the returned walk.  The walk validator runs on the same kernel.

The last layer is not expanded when the optimum is a unique vertex t: a
maximal move from p along a monotone circuit g ends at t exactly when t - p is
a positive multiple of g (a longer step would raise c above its maximum), so
each state costs one subtraction, one gcd and one lookup, and the first hit in
frontier order is the walk the expansion would return.  This runs only while
len(parent) + len(frontier) * len(moves) <= node_cap, so the cap trips exactly
where it would have; otherwise, or when the optimum is a face, the layer is
expanded like the others.

The frontier is expanded in lexicographic direction order with first-discovery
wins, so among all shortest walks the returned one carries the
lexicographically smallest sequence of step directions; reruns cannot change
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Union

from .circuits import (
    AmbiguousOptimum,
    NotAVertex,
    blocking_rows,
    check_lifted_cost,
    enumerate_circuits,
    enumerate_lifted_circuits,
    lifted_optimal_value,
    maximal_moves,
    maximal_step,
    monotone_directions,
    monotone_edge_walk,
    monotone_lifted_directions,
    optimal_value,
)
# Not called here; the benchmark's traced mode (cwbench/tracing.py) rebinds them in this module.
from .circuits import lifted_max_step, lifted_move, max_step  # noqa: F401
from .polytope import HPolygon, LiftedPolytope, h_to_v
from .ratgeo import AffineMap2, Direction2, Point2, dehomogenize, homogeneous, primitive_direction

__all__ = [
    "Walk",
    "SearchConfig",
    "Found",
    "NotFoundWithinDepth",
    "NodeCapExceeded",
    "DistanceResult",
    "shortest_monotone_walk",
    "transform_walk",
    "ValidationReport",
    "is_valid_monotone_walk",
    "approx_monotone_walk",
]


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


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int
    node_cap: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.node_cap < 1:
            raise ValueError("node_cap must be positive")


@dataclass(frozen=True)
class Found:
    walk: Walk


@dataclass(frozen=True)
class NotFoundWithinDepth:
    """The search completed: no monotone walk of at most `depth` steps reaches
    the optimum, certifying that the distance exceeds it."""

    depth: int


@dataclass(frozen=True)
class NodeCapExceeded:
    """Aborted after discovering more states than allowed.

    The first completed_depth layers were fully expanded before the cap
    tripped, so no walk of at most completed_depth steps reaches the optimum;
    nothing is certified beyond that.
    """

    discovered: int
    completed_depth: int


DistanceResult = Union[Found, NotFoundWithinDepth, NodeCapExceeded]


def _circuits(h, c):
    """The circuits of h and the cost c in integer form.

    Returns the canonical circuits of h, the function giving a directed
    circuit's integer vector, the strictly c-increasing directed circuits in
    search order, c as a rational vector, and the function giving c's
    maximum over h.  Raises BadDimension when a lifted cost does not fit h.
    """
    if isinstance(h, LiftedPolytope):
        check_lifted_cost(h, c)
        e = h.extra_dims
        circuits = enumerate_lifted_circuits(h)
        monotone = monotone_lifted_directions(circuits, c, e)
        cost = (c.base.dx, c.base.dy) + c.simplex
        return circuits, lambda g: g.vector(e), monotone, cost, lifted_optimal_value
    circuits = enumerate_circuits(h)
    monotone = monotone_directions(circuits, c)
    return circuits, lambda g: (g.dx, g.dy), monotone, (c.dx, c.dy), optimal_value


def shortest_monotone_walk(h, s, c, cfg: SearchConfig) -> DistanceResult:
    """Shortest strictly c-increasing circuit walk from s to a c-maximal point.

    h is an HPolygon with s a Point2 and c a Direction2, or a LiftedPolytope
    with s a LiftedPoint and c a LiftedCost.  Returns Found with the
    lexicographically smallest shortest walk, NotFoundWithinDepth when the
    completed search proves the distance exceeds cfg.max_depth, or
    NodeCapExceeded when it gave up early.
    """
    if not h.contains(s):
        raise ValueError("start point is outside the polytope")
    _, vector, monotone, cost, optimum = _circuits(h, c)
    rows = h.inequality_rows()
    moves = tuple((g, vector(g), blocking_rows(rows, vector(g))) for g in monotone)
    opt, argmax = optimum(h, c)
    # c.x/D == opt  <=>  (c, -opt).(x, D) == 0, with (c, -opt) scaled to integers
    goal = homogeneous(cost + (-opt,))[:-1]
    root = homogeneous(h.coordinates(s))
    if sum(map(mul, goal, root)) == 0:
        return Found(Walk((s,), ()))
    target = homogeneous(h.coordinates(argmax[0])) if len(argmax) == 1 else None
    parent: dict = {root: None}
    frontier = [root]
    for depth in range(cfg.max_depth):
        if (
            target is not None
            and depth == cfg.max_depth - 1
            and len(parent) + len(frontier) * len(moves) <= cfg.node_cap
        ):
            hit = _last_step(frontier, target, {vec: g for g, vec, _ in moves})
            if hit is None:
                break
            parent[target] = hit
            return Found(_reconstruct(h, parent, s, target))
        nxt = []
        for p in frontier:
            for g, _, _, q in maximal_moves(rows, p, moves):
                if q is None or q in parent:
                    continue
                parent[q] = (p, g)
                if len(parent) > cfg.node_cap:
                    return NodeCapExceeded(discovered=len(parent), completed_depth=depth)
                if sum(map(mul, goal, q)) == 0:
                    return Found(_reconstruct(h, parent, s, q))
                nxt.append(q)
        if not nxt:
            break
        frontier = nxt
    return NotFoundWithinDepth(cfg.max_depth)


def _last_step(frontier, target, label):
    """First (p, g) in frontier order whose maximal move along g ends at target.

    target is the unique c-maximal vertex and label maps each monotone vector
    to its direction; the move ends at target exactly when target - p is a
    positive multiple of g.  None when no state of the frontier has one.
    """
    *t, T = target
    for p in frontier:
        *x, D = p
        diff = [ti * D - xi * T for ti, xi in zip(t, x)]
        k = gcd(*diff)
        g = label.get(tuple([v // k for v in diff]))
        if g is not None:
            return p, g
    return None


def _reconstruct(h, parent: dict, s, goal) -> Walk:
    """Walk from s to goal along the parent links; states become points here."""
    states = [goal]
    steps = []
    link = parent[goal]
    while link is not None:
        p, g = link
        states.append(p)
        steps.append(g)
        link = parent[p]
    points = [s] + [h.point(dehomogenize(q)) for q in reversed(states[:-1])]
    return Walk(tuple(points), tuple(reversed(steps)))


def transform_walk(m: AffineMap2, w: Walk) -> Walk:
    """Image of a planar walk under an invertible affine map."""
    m.inverse()  # fail fast on singular maps
    points = tuple(m.apply(p) for p in w.points)
    steps = tuple(
        primitive_direction(*m.apply_vector(g.dx, g.dy)) for g in w.steps
    )
    return Walk(points, steps)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of walk validation; falsy with the first failure pinpointed."""

    ok: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_valid_monotone_walk(h, c, w: Walk) -> ValidationReport:
    """Check a walk exactly: containment, circuit steps, maximality, monotonicity.

    Accepts the same (h, c) pairings as shortest_monotone_walk.  A step is a
    circuit when its canonical form is one of the enumerated circuits.  The
    first violated condition is reported with its step index.
    """
    if not h.contains(w.points[0]):
        return ValidationReport(False, None, "start point outside the polytope")
    circuits, vector, _, cost, _ = _circuits(h, c)
    circuits = set(circuits)
    rows = h.inequality_rows()
    for idx, g in enumerate(w.steps):
        if g.canonical() not in circuits:
            return ValidationReport(False, idx, "step is not a circuit direction")
        vec = vector(g)
        end = maximal_step(rows, h.coordinates(w.points[idx]), vec)[1]
        if end is None:
            return ValidationReport(False, idx, "step is infeasible (zero length)")
        if h.coordinates(w.points[idx + 1]) != end:
            return ValidationReport(False, idx, "step is not the maximal circuit move")
        if sum(map(mul, cost, vec)) <= 0:
            return ValidationReport(False, idx, "step does not strictly increase the cost")
    return ValidationReport(True)


def approx_monotone_walk(h: HPolygon, s: Point2, c: Direction2, depth: int,
                         node_cap: int = 10_000_000) -> Walk:
    """Monotone walk to the unique optimum within factor max(m/depth, 1).

    Exhaustive search up to `depth` returns an exact shortest walk when one
    exists; otherwise the greedy edge walk (at most m steps) is returned.
    Requires a vertex start and a unique c-maximal vertex.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _, argmax = optimal_value(h, c)
    if len(argmax) > 1:
        raise AmbiguousOptimum("cost attains its maximum on an edge")
    if s not in set(h_to_v(h).vertices):
        raise NotAVertex(f"({s.x}, {s.y}) is not a vertex")
    result = shortest_monotone_walk(h, s, c, SearchConfig(depth, node_cap))
    if isinstance(result, Found):
        return result.walk
    if isinstance(result, NodeCapExceeded):
        raise RuntimeError(
            f"node cap {node_cap} exceeded during approximation; raise it and retry"
        )
    return monotone_edge_walk(h, s, c)
