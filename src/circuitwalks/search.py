"""Shortest monotone circuit walks by exact breadth-first search.

The search runs on polygons.  A search state is the homogeneous integer
triple (X, Y, D) standing for the point (X/D, Y/D), kept canonical (D > 0,
gcd 1) so the triple itself is the deduplication key.  A move is made by
chord_moves, a bisection of the direction's front chain.  Each state
carries the row it was moved onto (None at the start).  A state on a row
that blocks g has a zero move along g, so the instance keeps, per row, the
moves that row does not block, and a state tries only those.  The goal test
is an integer comparison, and points are only built for the returned walk.
The walk validator runs on maximal_moves, a min-ratio test over the blocking
rows in any dimension, and reads only the polytope's rows, the cost and the
walk, nothing the search prepared, so it checks a search's walk, a lift's
included, independently of the kernel that found it.  A planar step is a
circuit exactly when some row has a.g = 0, and each point is compared with
the computed end state by cross-multiplication.

A search is pruned by backward sets, growing whichever side of the search is
smaller, as in bidirectional search (Pohl, 1971).  A_r is the set of boundary
points that reach the optimum within r moves.  A_0 is the optimal
vertex t or edge.  A point y of A_r pulls back along a monotone circuit g when
y is the front end of its g-chord (the move from y along g has length zero):
the move from y along -g, made by chord_moves on g's back chain (the front
chain of -g), ends at the chord's back end x, and x joins A_{r+1},
with the whole side edge of g (parallel to it) when the chord is one.  A
closed interval of an edge on g's front chain pulls back to the arc of the
back ends of its chords.  The stored sets need only be supersets: every
point that reaches the optimum within r moves is in the stored A_r, and the
argument below allows any false positive of the closed intervals.  A state
discovered with r moves left is expanded only when it lies in A_r.  Backward
layers are built only while the newest one is smaller than the layer of
states it would filter.

The filter returns the same walk, and pruned states stay in the parent map,
so no state is discovered twice.  Call a state at depth j of the unfiltered
search live when it reaches the optimum within d - j moves.  By induction on
depth, each live state is discovered at the same depth, from the same parent,
in the same order among live states: its first discoverer is one move
further and so live too, hence kept.  Two kinds of expanded state are not in
the unfiltered frontier at their depth: a state first reached late, because
its early discoverers were pruned, and one the filter keeps at its own depth
only as a false positive of the closed intervals.  Neither reaches the
optimum in the moves left; a late state that did would be live at its
earlier depth, and its discoverer would have been kept.  So no successor of
either is live, since a live successor would put its discoverer one move
from it.  The goal is live, reached from the same parent, and no other
goal comes first, because its discoverer would be live and so earlier in
the unfiltered order too.  Without a node cap the two searches return the
same result; with one, the filtered search discovers fewer states and may
complete where the unfiltered one gives up, never with another answer.

The frontier is expanded in lexicographic direction order with first-discovery
wins, so among all shortest walks the returned one carries the
lexicographically smallest sequence of step directions; reruns cannot change
the answer.

A lift P x simplex is searched by the product rule.  A circuit of the
product moves one factor, only that factor's rows block it, and the cost is
separable, so a lifted monotone walk is a shuffle of a monotone walk of each
factor, optimal exactly when both are.  In barycentric terms (lam_0 =
1 - sum(y) at weight 0) every simplex circuit moves all the mass of one index
to another, monotone when the weight rises.  Each supported index below the
top weight must be emptied, one per step, so the simplex distance is their
number k; a step keeps a walk shortest exactly when it empties one onto a
supported or top-weight index, and the smallest such step each time gives
the smallest shortest simplex walk.  The base search runs to the depth less
k, and its walk is merged with the simplex walk by taking the smaller step
vector at each position.  The merge is the smallest shortest walk over all
pairs of factor walks, not only over the pair of smallest ones: a base and a
simplex vector never tie (only the first has a nonzero planar part), and the
smallest base walk starts with the smallest first step of any shortest base
walk and continues with the smallest walk from there, as does the simplex
walk, so after the smaller first step the rest is the same problem one step
shorter.  On a lift the node cap counts base states, and a capped result's
completed_depth is the base's plus k; so a capped lift may complete where a
search over the lifted states gives up, never with another answer.  The
simplex walk runs on the integer masses D - sum(y), y_1, .. of the start's
lifted state (x, y, D).

An instance, everything the search needs that depends on the polygon and the
cost alone, is prepared once and shared by the searches that follow on an
equal pair: each monotone direction's front and back chains, the moves per
row, the goal vector and the backward sets, which keep the layers they have
built, each with its merged spans, and their pullbacks.  The last pair
prepared is kept, compared by value, so a certificate's finds and proofs
from several starts share one instance, and a lift's finds and proofs
prepare its base polygon once.  A stored A_r gains nothing when later layers
are built, and each search counts the layers it filters with by the growth
rule above, replayed against the recorded layer sizes: it filters with
exactly the layers a search alone would build, so no result, a capped one
included, depends on the calls made before it.  The shared layers grow
during a search, so the searches of one process run one at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Union

from .circuits import (
    LiftedCircuit,
    Walk,
    _chain_frame,
    _chain_pairs,
    _circuit_blocking,
    _optimum,
    check_lifted_cost,
    chord_moves,
    enumerate_circuits,
    maximal_moves,
    monotone_directions,
    monotone_edge_walk,
)
# Not called here; the benchmark's traced mode (cwbench/tracing.py) rebinds them in this module.
from .circuits import (  # noqa: F401
    enumerate_lifted_circuits, lifted_max_step, lifted_move, lifted_optimal_value, max_step,
    monotone_lifted_directions, optimal_value)
from .polytope import HPolygon, LiftedPoint, LiftedPolytope, _inside, h_to_v
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


NODE_CAP = 10_000_000  # the default node cap of every search, the CLI's included


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int
    node_cap: int = NODE_CAP

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


class _Instance(NamedTuple):
    """What every search on one (polygon, cost) pair shares."""

    # row a state was moved onto, or None at the root -> its moves, in search order
    table: dict
    goal: tuple  # (c, -opt) scaled to integers, without its last entry
    back: "_Backward"


@functools.lru_cache(maxsize=1)
def _prepare(h, c) -> _Instance:
    """The instance of the polygon h under the cost c, built once per value of the pair."""
    monotone = monotone_directions(enumerate_circuits(h), c)
    (num, den), argmax = _optimum(h, c)
    vectors = [g.vector for g in monotone]
    frame = _chain_frame(h)
    fronts, backs = zip(*_chain_pairs(frame, vectors))
    moves = tuple([*zip(monotone, vectors, fronts)])
    back = _Backward(h, moves, backs, argmax, frame[2])
    # a state on a row has a zero move along each g the row blocks, so per row
    # the table holds only the moves the row's pulls do not name; the root
    # (row None) tries them all
    table = {None: moves}
    for row, pulls in back.pulls.items():
        blocked = {i for i, _, _ in pulls}
        table[row] = tuple([mv for i, mv in enumerate(moves) if i not in blocked])
    # c.x/D == num/den  <=>  (den*c, -num).(x, D) == 0
    goal = (den * c.dx, den * c.dy, -num)
    return _Instance(table, goal, back)


def shortest_monotone_walk(h, s, c, cfg: SearchConfig) -> DistanceResult:
    """Shortest strictly c-increasing circuit walk from s to a c-maximal point.

    h is an HPolygon with s a Point2 and c a Direction2, or a LiftedPolytope
    with s a LiftedPoint and c a LiftedCost.  Returns Found with the
    lexicographically smallest shortest walk, NotFoundWithinDepth when the
    completed search proves the distance exceeds cfg.max_depth, or
    NodeCapExceeded when it gave up early.  A lift is searched by the product
    rule (module docstring).
    """
    root = h.state(s)
    if not _inside(h.rows, root):
        raise ValueError("start point is outside the polytope")
    if not isinstance(h, LiftedPolytope):
        return _search(h, s, root, c, cfg.max_depth, cfg.node_cap)
    check_lifted_cost(h, c)
    simplex = _simplex_walk(root, c.simplex)
    k = len(simplex)
    if cfg.max_depth < k:
        return NotFoundWithinDepth(cfg.max_depth)
    base = _search(h.base, s.base, h.base.state(s.base), c.base,
                   cfg.max_depth - k, cfg.node_cap)
    if isinstance(base, Found):
        return Found(_shuffle(s, base.walk, simplex))
    if isinstance(base, NodeCapExceeded):
        return NodeCapExceeded(base.discovered, base.completed_depth + k)
    return NotFoundWithinDepth(cfg.max_depth)


def _search(h, s, root, c, max_depth, node_cap) -> DistanceResult:
    """The search on the polygon h from the point s, whose state root is inside h."""
    inst = _prepare(h, c)
    table, goal, back = inst.table, inst.goal, inst.back
    if sum(map(mul, goal, root)) == 0:
        return Found(Walk((s,), ()))
    built = 0  # the backward layers this search filters with
    parent: dict = {root: None}
    frontier = [(root, None)]  # each state with the row it was moved onto
    for depth in range(max_depth):
        nxt = []
        for p, on in frontier:
            for g, _, _, row, q in chord_moves(p, table[on]):
                if q is None or q in parent:
                    continue
                parent[q] = (p, g)
                if len(parent) > node_cap:
                    return NodeCapExceeded(discovered=len(parent), completed_depth=depth)
                if sum(map(mul, goal, q)) == 0:
                    return Found(_reconstruct(h, parent, s, q))
                nxt.append((q, row))
        left = max_depth - depth - 1
        if left:
            # layers are added while the newest is smaller than the states it
            # would filter, the rule a search alone on (h, c) would follow
            while built < left and back._size(built) < len(nxt):
                built += 1
            if left <= built:
                keep = back._lookup(left)
                nxt = [e for e in nxt if keep(*e)]
        if not nxt:
            break
        frontier = nxt
    return NotFoundWithinDepth(max_depth)


def _simplex_walk(state, weights) -> list:
    """The smallest shortest monotone walk of the simplex from the lifted
    state (x, y, D) under the weights, as (lifted step, simplex part it ends
    at) pairs: each step empties an index below the top weight onto a
    supported or top-weight one, the smallest such move first (module
    docstring).  Masses and weights are integers; only the ends are rational."""
    *y, D = state[2:]
    lam = [D - sum(y), *y]
    w = (0, *homogeneous(weights)[:-1])
    top = max(w)
    steps = []
    while True:
        moves = [(tuple([(i == b) - (i == a) for i in range(1, len(w))]), a, b)
                 for a in range(len(w)) if lam[a] and w[a] < top
                 for b in range(len(w)) if w[b] == top or (lam[b] and w[b] > w[a])]
        if not moves:
            return steps
        v, a, b = min(moves)
        lam[a], lam[b] = 0, lam[a] + lam[b]
        steps.append((LiftedCircuit((0, 0) + v), tuple([Fraction(m, D) for m in lam[1:]])))


def _shuffle(s, base: Walk, simplex) -> Walk:
    """The lifted walk from s that merges a base walk with a simplex walk of
    _simplex_walk, taking the smaller step vector at each position."""
    pad = (0,) * len(s.simplex)
    moves = [[(LiftedCircuit(g.vector + pad), p) for g, p in zip(base.steps, base.points[1:])],
             simplex]
    ends = [s.base, tuple(map(Fraction, s.simplex))]
    points, steps = [s], []
    while moves[0] or moves[1]:
        i = 1 if not moves[0] or (moves[1] and moves[1][0] < moves[0][0]) else 0
        g, ends[i] = moves[i].pop(0)
        steps.append(g)
        points.append(LiftedPoint(*ends))
    return Walk(tuple(points), tuple(steps))


# a span (t_lo, D_lo, t_hi, D_hi) by its start t_lo/D_lo, with D > 0
_BY_START = functools.cmp_to_key(lambda e, f: e[0] * f[1] - f[0] * e[1])


class _Backward:
    """Backward sets of a polygon under a cost, grown on demand from A_0, the
    triples ends of the optimal vertex or of the optimal edge's two vertices;
    edges is the chain frame's edge list, (row, a1, a2, b) listed twice around.

    The points of the stored A_r are canonical states, level holding the
    first r of each; the rest are closed intervals of edges with states as
    ends, kept as spans[r]: per row, the union of the intervals of layers up
    to r as disjoint spans sorted by start, each layer merged into the last.
    A state lies in A_r when it is a point of A_r or lies in a span of A_r on
    the row it was moved onto.  Every interval end is a point of its own
    layer or an earlier one: A_0's ends are vertices; side edges and arc
    pieces end at vertices, which add_arc adds as points; and a pulled arc
    ends at its source arc's ends or their pulls, which the points loop adds
    in the same layer or an earlier one.  A state equal to a span's end lies
    on the span's row, so it is that end and a point: whether _lookup takes
    the ends as closed or open never matters.
    """

    def __init__(self, h, moves, backs, ends, edges):
        self.rows = h.rows
        t = h_to_v(h).triples
        n = len(t)
        # edge k runs counterclockwise from t[k] to t[k + 1], on row edge[k]
        self.ring = ring = t + t[:1]
        self.edge = [e[0] for e in edges[:n]]
        self.pos = {row: k for k, row in enumerate(self.edge)}
        self.vertex = {v: k for k, v in enumerate(t)}
        # per row, the moves (i, -g, back chain of g) of each g = moves[i]
        # that the row blocks: a point inside the edge is the front end of its
        # g-chord exactly for those g
        self.pulls = {row: [] for row in self.edge}
        # per g, its side edges (parallel to g, next to its front chain) by front vertex
        self.side = []
        for i, ((_, (g1, g2), front), back) in enumerate(zip(moves, backs)):
            for row, *_ in front[2]:
                self.pulls[row].append((i, (-g1, -g2), back))
            side = {}
            first = self.pos[front[2][0][0]]
            for k in (first - 1, first + len(front[2])):
                row, a1, a2, _ = edges[k]
                if a1 * g1 + a2 * g2 == 0:
                    pair = ring[k % n], ring[k % n + 1]
                    side[pair[a1 * g2 - a2 * g1 > 0]] = (row, *pair)
            self.side.append(side)
        self.cache: dict = {}
        self.level = dict.fromkeys(ends, 0)
        # the points (each with a row through it) and, per row, the intervals
        # (lo, hi), lo before hi counterclockwise, new in the last layer
        self.fresh = ([(e, None) for e in ends], {})
        if len(ends) == 2:
            # the optimal edge; _optimum lists its two vertices in boundary order
            k = n - 1 if ends == (t[0], t[-1]) else self.vertex[ends[0]]
            self.fresh[1][self.edge[k]] = {(ring[k], ring[k + 1]): None}
        self.spans = [self._merge({}, self.fresh[1])]
        self.sizes = [len(ends) + len(self.fresh[1])]  # per built layer, its new points and intervals

    def _size(self, r: int) -> int:
        """The number of points and intervals new in layer r; builds the layers up to r."""
        while len(self.sizes) <= r:
            self._grow()
        return self.sizes[r]

    def _tau(self, row, state):
        """The edge parameter of a state on the row, times its D: the row's
        counterclockwise direction (-a2, a1) dotted with the point."""
        a1, a2, _ = self.rows[row]
        return a1 * state[1] - a2 * state[0]

    def _merge(self, spans, arcs):
        """The spans with the intervals of arcs, {row: {(lo, hi): None}}, merged
        in row by row; rows without a new interval share their old list."""
        spans = dict(spans)
        for row, pieces in arcs.items():
            ends = [(self._tau(row, lo), lo[2], self._tau(row, hi), hi[2]) for lo, hi in pieces]
            merged = []
            for e in sorted(spans.get(row, []) + ends, key=_BY_START):
                if not merged or e[0] * merged[-1][3] > merged[-1][2] * e[1]:
                    merged.append(e)
                elif e[2] * merged[-1][3] > merged[-1][2] * e[3]:
                    merged[-1] = merged[-1][:2] + e[2:]
            spans[row] = merged
        return spans

    def _pull(self, p, row):
        """{i: (binding row, end or None)} of the move from p along -g for each
        g = moves[i] whose chord through p ends at p; row is an edge through p."""
        out = self.cache.get(p)
        if out is None:
            k = self.vertex.get(p)
            if k is None:
                pulls = self.pulls[row]
            else:
                # a vertex is the front end for the g that either of its edges blocks
                pulls = {m[0]: m for m in self.pulls[self.edge[k - 1]] + self.pulls[self.edge[k]]}
                pulls = [pulls[i] for i in sorted(pulls)]
            out = {i: (brow, b) for i, _, _, brow, b in chord_moves(p, pulls)}
            self.cache[p] = out
        return out

    def _grow(self) -> None:
        r = len(self.sizes)
        level, vertex = self.level, self.vertex
        points, arcs = [], {}

        def add_point(q, row):
            if q not in level:
                level[q] = r
                points.append((q, row))

        def add_arc(row, lo, hi):
            if lo == hi:
                return
            pieces = arcs.setdefault(row, {})
            if (lo, hi) not in pieces:
                pieces[lo, hi] = None
                for e in (lo, hi):
                    if e in vertex:
                        add_point(e, row)

        new_points, new_arcs = self.fresh
        for p, row in new_points:
            for i, (brow, b) in self._pull(p, row).items():
                if b is not None:
                    add_point(b, brow)
                    if p in self.side[i]:
                        add_arc(*self.side[i][p])
        # moving the front end counterclockwise moves the back end clockwise,
        # so the arc runs counterclockwise from hi's back end to lo's
        t, edge, n = self.ring, self.edge, len(self.edge)
        for row, pieces in new_arcs.items():
            for lo, hi in pieces:
                back_lo, back_hi = self._pull(lo, row), self._pull(hi, row)
                for i, _, _ in self.pulls[row]:
                    (r_hi, b_hi), (r_lo, b_lo) = back_hi[i], back_lo[i]
                    b_hi, b_lo = b_hi or hi, b_lo or lo
                    k, end = self.pos[r_hi], self.pos[r_lo]
                    if k == end and self._tau(r_hi, b_hi) * b_lo[2] <= self._tau(r_hi, b_lo) * b_hi[2]:
                        add_arc(r_hi, b_hi, b_lo)
                        continue
                    add_arc(r_hi, b_hi, t[k + 1])
                    k = (k + 1) % n
                    while k != end:
                        add_arc(edge[k], t[k], t[k + 1])
                        k = (k + 1) % n
                    add_arc(r_lo, t[end], b_lo)
        self.fresh = (points, arcs)
        self.spans.append(self._merge(self.spans[-1], arcs))
        self.sizes.append(len(points) + sum(map(len, arcs.values())))

    def _lookup(self, r):
        """Test (state, row) -> bool of membership in the stored A_r: one
        dict lookup, then a bisection over the row's spans."""
        self._size(r)
        level, rows, spans = self.level, self.rows, self.spans[r]

        def keep(q, row):
            if level.get(q, r + 1) <= r:
                return True
            ivs = spans.get(row, ())
            a1, a2, _ = rows[row]
            x, y, D = q
            tq = a1 * y - a2 * x
            lo, hi = 0, len(ivs)
            while lo < hi:
                mid = (lo + hi) // 2
                if ivs[mid][0] * D <= tq * ivs[mid][1]:
                    lo = mid + 1
                else:
                    hi = mid
            return lo > 0 and tq * ivs[lo - 1][3] <= ivs[lo - 1][2] * D

        return keep


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
    points = tuple([m.apply(p) for p in w.points])
    steps = tuple([primitive_direction(*m.apply_vector(g.dx, g.dy)) for g in w.steps])
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
    circuit when _circuit_blocking finds it so on h's rows, with no circuit
    built, in the pass that gives its blocking rows, and monotone when c.g > 0
    on c's integer weights.  The first violated
    condition is reported with its step index.  Steps are made by
    maximal_moves; the end state (e, E) is the next point x when x*E == e,
    and is carried on as the next state.  Nothing the search prepared is
    read, and the search never runs maximal_moves, so the validator checks
    its walks independently.
    """
    rows = h.rows
    state = h.state(w.points[0])
    if not _inside(rows, state):
        return ValidationReport(False, None, "start point outside the polytope")
    if isinstance(h, LiftedPolytope):
        check_lifted_cost(h, c)
    # a positive integer multiple of c has the same gain signs
    weights = homogeneous(c.vector)[:-1]
    for idx, g in enumerate(w.steps):
        blocking = _circuit_blocking(h, g)
        if blocking is None:
            return ValidationReport(False, idx, "step is not a circuit direction")
        state = next(maximal_moves(rows, state, ((g, g.vector, blocking),)))[4]
        if state is None:
            return ValidationReport(False, idx, "step is infeasible (zero length)")
        coords, E = h.coordinates(w.points[idx + 1]), state[-1]
        if len(coords) != len(state) - 1 or any(
                q.numerator * E != e * q.denominator for q, e in zip(coords, state)):
            return ValidationReport(False, idx, "step is not the maximal circuit move")
        if sum(map(mul, weights, g.vector)) <= 0:
            return ValidationReport(False, idx, "step does not strictly increase the cost")
    return ValidationReport(True)


def approx_monotone_walk(h: HPolygon, s: Point2, c: Direction2, depth: int,
                         node_cap: int = NODE_CAP) -> Walk:
    """Monotone walk to the unique optimum within factor max(m/depth, 1).

    The edge walk (at most m - 1 steps) is built first: it raises
    AmbiguousOptimum unless the c-maximal vertex is unique and NotAVertex
    unless s is a vertex, so the instance is checked once.  Exhaustive search
    up to `depth` then returns an exact shortest walk when one exists, and the
    edge walk otherwise.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    fallback = monotone_edge_walk(h, s, c)
    result = shortest_monotone_walk(h, s, c, SearchConfig(depth, node_cap))
    if isinstance(result, Found):
        return result.walk
    if isinstance(result, NodeCapExceeded):
        raise RuntimeError(
            f"node cap {node_cap} exceeded during approximation; raise it and retry"
        )
    return fallback
