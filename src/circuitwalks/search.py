"""Shortest monotone circuit walks by exact breadth-first search.

A planar search state is a homogeneous integer triple (X, Y, D) standing for
the point (X/D, Y/D), kept canonical (D > 0, gcd 1) so the triple itself is
the deduplication key.  Each monotone direction's blocking rows are computed
once per search; a move is one integer min-ratio test plus one gcd, the goal
test is an integer comparison, and points are only built for the returned
walk.  Lifted searches keep exact lifted points as states.

The frontier is expanded in lexicographic direction order with first-discovery
wins, so among all shortest walks the returned one carries the
lexicographically smallest sequence of step directions; reruns and backends
cannot change the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from .circuits import (
    AmbiguousOptimum,
    LiftedCost,
    NotAVertex,
    blocking_rows,
    enumerate_circuits,
    enumerate_lifted_circuits,
    homogeneous,
    homogeneous_step,
    lifted_max_step,
    lifted_move,
    lifted_optimal_value,
    lifted_value,
    max_step,
    monotone_directions,
    monotone_edge_walk,
    monotone_lifted_directions,
    optimal_value,
)
from .polytope import HPolygon, LiftedPoint, LiftedPolytope, h_to_v, lifted_contains
from .ratgeo import AffineMap2, Direction2, Point2, primitive_direction, rat

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


class _PlanarSpace:
    """States are homogeneous integer triples (X, Y, D) for the point (X/D, Y/D)."""

    def __init__(self, h: HPolygon, c: Direction2):
        self.h = h
        self.moves = tuple(
            (g, blocking_rows(h, g))
            for g in monotone_directions(enumerate_circuits(h), c)
        )
        opt = optimal_value(h, c)[0]
        # c.p == opt  <=>  (cx*X + cy*Y) * opt_den == opt_num * D
        self.goal = (c.dx * opt.denominator, c.dy * opt.denominator, opt.numerator)

    def contains(self, p) -> bool:
        return self.h.contains(p)

    def state(self, p):
        return homogeneous(p)

    def point(self, state):
        X, Y, D = state
        return Point2(rat(X, D), rat(Y, D))

    def is_goal(self, state) -> bool:
        X, Y, D = state
        cx, cy, opt = self.goal
        return cx * X + cy * Y == opt * D

    def successors(self, state):
        X, Y, D = state
        for g, rows in self.moves:
            slack, ag = homogeneous_step(rows, X, Y, D)
            if slack > 0:
                # p + slack/(D*ag) * g over the common denominator D*ag
                nx, ny, nd = X * ag + slack * g.dx, Y * ag + slack * g.dy, D * ag
                k = gcd(nx, ny, nd)
                yield g, (nx // k, ny // k, nd // k)


class _LiftedSpace:
    def __init__(self, lp: LiftedPolytope, c: LiftedCost):
        self.lp = lp
        self.c = c
        self.dirs = monotone_lifted_directions(
            enumerate_lifted_circuits(lp), c, lp.extra_dims
        )
        self.opt = lifted_optimal_value(lp, c)[0]

    def contains(self, p) -> bool:
        return lifted_contains(self.lp, p)

    def state(self, p):
        return p

    def point(self, state):
        return state

    def is_goal(self, state) -> bool:
        return lifted_value(self.c, state) == self.opt

    def successors(self, p):
        for circ in self.dirs:
            lam = lifted_max_step(self.lp, p, circ)
            if lam > 0:
                q = lifted_move(self.lp, p, circ)
                yield circ, q


def shortest_monotone_walk(h, s, c, cfg: SearchConfig) -> DistanceResult:
    """Shortest strictly c-increasing circuit walk from s to a c-maximal point.

    h is an HPolygon with s a Point2 and c a Direction2, or a LiftedPolytope
    with s a LiftedPoint and c a LiftedCost.  Returns Found with the
    lexicographically smallest shortest walk, NotFoundWithinDepth when the
    completed search proves the distance exceeds cfg.max_depth, or
    NodeCapExceeded when it gave up early.
    """
    if isinstance(h, LiftedPolytope):
        space = _LiftedSpace(h, c)
    else:
        space = _PlanarSpace(h, c)
    if not space.contains(s):
        raise ValueError("start point is outside the polytope")
    root = space.state(s)
    if space.is_goal(root):
        return Found(Walk((s,), ()))
    parent: dict = {root: None}
    frontier = [root]
    for depth in range(cfg.max_depth):
        nxt = []
        for p in frontier:
            for g, q in space.successors(p):
                if q in parent:
                    continue
                parent[q] = (p, g)
                if len(parent) > cfg.node_cap:
                    return NodeCapExceeded(discovered=len(parent), completed_depth=depth)
                if space.is_goal(q):
                    return Found(_reconstruct(space, parent, s, q))
                nxt.append(q)
        if not nxt:
            break
        frontier = nxt
    return NotFoundWithinDepth(cfg.max_depth)


def _reconstruct(space, parent: dict, s, goal) -> Walk:
    """Walk from s to goal along the parent links; states become points here."""
    states = [goal]
    steps = []
    link = parent[goal]
    while link is not None:
        p, g = link
        states.append(p)
        steps.append(g)
        link = parent[p]
    points = [s] + [space.point(q) for q in reversed(states[:-1])]
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

    Accepts the same (h, c) pairings as shortest_monotone_walk.  The first
    violated condition is reported with its step index.
    """
    lifted = isinstance(h, LiftedPolytope)
    if lifted:
        inside = lambda p: lifted_contains(h, p)  # noqa: E731
        value = lambda p: lifted_value(c, p)  # noqa: E731
    else:
        inside = h.contains
        value = lambda p: c.dx * p.x + c.dy * p.y  # noqa: E731
    if not inside(w.points[0]):
        return ValidationReport(False, None, "start point outside the polytope")
    for idx, g in enumerate(w.steps):
        p, q = w.points[idx], w.points[idx + 1]
        if lifted:
            try:
                lam = lifted_max_step(h, p, g)
            except Exception as exc:
                return ValidationReport(False, idx, str(exc))
            moved = lifted_move(h, p, g) if lam > 0 else None
        else:
            if all(a1 * g.dx + a2 * g.dy != 0 for a1, a2, _ in h.rows):
                return ValidationReport(False, idx, "step is not a circuit direction")
            lam = max_step(h, p, g)
            moved = Point2(p.x + lam * g.dx, p.y + lam * g.dy) if lam > 0 else None
        if lam == 0:
            return ValidationReport(False, idx, "step is infeasible (zero length)")
        if q != moved:
            return ValidationReport(False, idx, "step is not the maximal circuit move")
        if value(q) <= value(p):
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
