"""Shared fixtures plus a per-criterion verdict table for the acceptance tests."""

import functools
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

import pytest

from circuitwalks.circuits import (
    AmbiguousOptimum,
    NotAVertex,
    Walk,
    _chain_frame,
    _chain_pairs,
    blocking_rows,
    enumerate_circuits,
    enumerate_lifted_circuits,
    maximal_moves,
    optimal_value,
)
from circuitwalks.constructions import Feasible, Infeasible, PromiseViolated, build_slope_chain
from circuitwalks.polytope import (
    DegenerateHull,
    LiftedPoint,
    LiftedPolytope,
    UnboundedOrEmpty,
    VPolygon,
    canonical_row,
    h_to_v,
    hull2d,
    simplex_vertices,
    v_to_h,
)
from circuitwalks.ratgeo import (
    AffineMap2,
    Direction2,
    Point2,
    dehomogenize,
    homogeneous,
    primitive_direction,
    pullback_cost,
    rat,
)
from circuitwalks.search import Found, NodeCapExceeded, NotFoundWithinDepth

_acceptance = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    verdict = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    _acceptance.append((report.nodeid.split("::")[-1], verdict))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in sorted(_acceptance):
        terminalreporter.write_line(f"{verdict}  {name}")


def random_hull(rng: random.Random, max_points: int = 12, bound: int = 100) -> VPolygon:
    """Hull of a few random rational points; retries until it has an interior."""
    while True:
        pts = [
            Point2(
                rat(rng.randint(-bound, bound), rng.randint(1, bound)),
                rat(rng.randint(-bound, bound), rng.randint(1, bound)),
            )
            for _ in range(rng.randint(3, max_points))
        ]
        try:
            return hull2d(pts)
        except DegenerateHull:
            continue


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def random_hpolygon(rng: random.Random, max_points: int = 12, bound: int = 100):
    return v_to_h(random_hull(rng, max_points, bound))


def as_points(triples) -> tuple[Point2, ...]:
    """The points (X/D, Y/D) of canonical triples (X, Y, D), in order."""
    return tuple(Point2(*dehomogenize(t)) for t in triples)


def corner_anchors(corner) -> tuple[Point2, Point2]:
    """The images of u and w under a CornerTransform: its last and first triples, as points."""
    return as_points((corner.triples[-1], corner.triples[0]))


def front_chains(h, gs) -> list:
    """For each integer vector g of gs, the front chain of circuits._chain_pairs."""
    return [front for front, _ in _chain_pairs(_chain_frame(h), gs)]


def lifted_vertices(lp: LiftedPolytope) -> tuple[LiftedPoint, ...]:
    """All vertices of the product: base vertex times simplex vertex."""
    base = h_to_v(lp.base).vertices
    simplex = [(*map(Fraction, s),) for s in simplex_vertices(lp.extra_dims)]
    return tuple(LiftedPoint(v, s) for v in base for s in simplex)


def _exact(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _rank(vectors: list[list[Fraction]]) -> int:
    """Rank of a list of equal-length rational vectors, by exact elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def facet_incidences(lp: LiftedPolytope) -> list[frozenset[int]]:
    """Tight-vertex sets of the facet-defining rows of lp.rows.

    Vertices come from lifted_vertices(lp) and are named by their index
    there.  A row counts when every vertex satisfies it and the vertices
    tight at it span an affine (dim - 1)-space, tested by exact rank over
    Fraction.  Nothing here reads lp.facet_count, so the number of sets is an
    independent count of the facets among the rows.
    """
    points = [
        [_exact(v.base.x), _exact(v.base.y)] + [_exact(y) for y in v.simplex]
        for v in lifted_vertices(lp)
    ]
    facets = []
    for *coeffs, bound in lp.rows:
        values = [sum(a * x for a, x in zip(coeffs, p)) for p in points]
        if any(val > bound for val in values):
            continue
        tight = [i for i, val in enumerate(values) if val == bound]
        if not tight:
            continue
        first = points[tight[0]]
        spans = _rank([[x - x0 for x, x0 in zip(points[i], first)] for i in tight[1:]])
        if spans == lp.dim - 1:
            facets.append(frozenset(tight))
    return facets


# -- polygon construction over Fractions: the reference for the integer one ----


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def reference_feasible_intersections(rows) -> list[Point2]:
    """Pairwise row intersections inside every row, as Fraction points."""
    pts = set()
    for i in range(len(rows)):
        a1, a2, b = rows[i]
        for j in range(i + 1, len(rows)):
            c1, c2, d = rows[j]
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = rat(b * c2 - d * a2, det)
            y = rat(a1 * d - c1 * b, det)
            if all(e1 * x + e2 * y <= f for e1, e2, f in rows):
                pts.add(Point2(x, y))
    return list(pts)


def reference_check_vertices(v) -> None:
    """The VPolygon validation, by Fraction cross products."""
    if len(v) < 3:
        raise DegenerateHull("a polygon needs at least three vertices")
    n = len(v)
    for i in range(n):
        o, a, b = v[i], v[(i + 1) % n], v[(i + 2) % n]
        if _cross(o.x, o.y, a.x, a.y, b.x, b.y) <= 0:
            raise ValueError("vertices not in strictly convex ccw order")
    if v[0] != min(v):
        raise ValueError("vertex list must start at the lexicographic minimum")


def reference_hull2d(points) -> tuple[Point2, ...]:
    """Vertex tuple of hull2d, by monotone chain over Fraction points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateHull("need at least three distinct points")

    def build(seq):
        chain = []
        for p in seq:
            while (
                len(chain) >= 2
                and _cross(chain[-2].x, chain[-2].y, chain[-1].x, chain[-1].y, p.x, p.y) <= 0
            ):
                chain.pop()
            chain.append(p)
        return chain

    hull = build(pts)[:-1] + build(pts[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    reference_check_vertices(hull)
    return tuple(hull)


def reference_bounded(rows) -> bool:
    """True iff no direction v != 0 has a.v <= 0 for every row (a, b).

    Such a v, if any, can be taken perpendicular to some row's normal, so
    those are the only candidates tried.
    """
    candidates = [(s * -a2, s * a1) for a1, a2, _ in rows for s in (1, -1)]
    return not any(all(a1 * vx + a2 * vy <= 0 for a1, a2, _ in rows) for vx, vy in candidates)


def _reference_hull_of_rows(rows) -> tuple[Point2, ...]:
    if not reference_bounded(rows):
        raise UnboundedOrEmpty("row normals do not positively span the plane")
    try:
        return reference_hull2d(reference_feasible_intersections(rows))
    except DegenerateHull:
        raise UnboundedOrEmpty("feasible region is empty or not full-dimensional") from None


def reference_hpolygon(rows) -> tuple[Point2, ...]:
    """Vertex tuple of HPolygon(rows), raising what its constructor raises."""
    rows = tuple(canonical_row(*r) for r in rows)
    if len(rows) < 3:
        raise UnboundedOrEmpty("a polygon needs at least three rows")
    if len(set(rows)) != len(rows):
        raise ValueError("duplicate halfplane rows")
    hull = _reference_hull_of_rows(rows)
    if len(hull) != len(rows):
        raise ValueError("redundant row; use remove_redundant first")
    return hull


def reference_edge_rows(vertices) -> tuple[tuple[int, int, int], ...]:
    """Canonical row of each edge of a counterclockwise vertex tuple, from the
    first vertex on: the outward normal (dy, -dx) by Fraction arithmetic."""
    rows = []
    for p, q in zip(vertices, vertices[1:] + vertices[:1]):
        dx, dy = q.x - p.x, q.y - p.y
        rows.append(canonical_row(dy, -dx, dy * p.x - dx * p.y))
    return tuple(rows)


def reference_remove_redundant(rows) -> tuple[Point2, ...]:
    """Vertex tuple of remove_redundant(rows), raising what it raises."""
    canon = tuple(dict.fromkeys(canonical_row(*r) for r in rows))
    if len(canon) < 3:
        raise UnboundedOrEmpty("a polygon needs at least three rows")
    return _reference_hull_of_rows(canon)


# -- greedy edge walk: the reference for the walk along the vertex cycle -------


def reference_edge_walk(h, s: Point2, c: Direction2) -> Walk:
    """Greedy edge walk from vertex s to the unique c-maximal vertex.

    Each step moves to a strictly improving neighbor, preferring the larger
    gain and breaking exact ties by the lexicographically smaller step
    direction, until the value reaches the maximum.
    """
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
        gain, step, nxt = max(options, key=lambda o: (o[0], (-o[1].dx, -o[1].dy)))
        points.append(nxt)
        steps.append(step)
        current = nxt
        if len(points) > n:
            raise AssertionError("edge walk failed to terminate")
    return Walk(tuple(points), tuple(steps))


# -- lifted optimum vertex by vertex: the reference for the separable one -------


def reference_lifted_optimal_value(lp: LiftedPolytope, c):
    """Maximum of the lifted cost c over lifted_vertices(lp) and the vertices
    attaining it, from the cost's value at every vertex of the product."""

    def value(p):
        v = c.base.dx * p.base.x + c.base.dy * p.base.y
        for w, y in zip(c.simplex, p.simplex):
            v += w * y
        return v

    verts = lifted_vertices(lp)
    vals = [value(v) for v in verts]
    best = max(vals)
    return best, tuple(v for v, val in zip(verts, vals) if val == best)


# -- forward BFS on maximal_moves: the second proof of the search's answers ------


def bfs_walk(h, s, c, cfg):
    """The search's answer by an unfiltered forward BFS on maximal_moves.

    h is a polygon or a lift, searched over its own rows in any
    dimension: a lift's states and circuits are lifted ones, with no product
    rule, and its optimum is the best vertex of the product.  The monotone
    circuits are tried in sorted order and the first discovery of a state
    wins.  Discovered states, the start included, count against cfg.node_cap
    as in the search, so a capped result is the search's unless the search's
    backward filter, or on a lift its count of base states only, keeps it
    under the cap.  Nothing is shared with the search's move kernel, move
    tables, backward filter or product rule.
    """
    rows, moves, goal = _bfs_instance(h, c)
    root = h.state(s)
    if sum(map(mul, goal, root)) == 0:
        return Found(Walk((s,), ()))
    parent = {root: None}
    frontier = [root]
    for depth in range(cfg.max_depth):
        nxt = []
        for p in frontier:
            for g, _, _, _, q in maximal_moves(rows, p, moves):
                if q is None or q in parent:
                    continue
                parent[q] = (p, g)
                if len(parent) > cfg.node_cap:
                    return NodeCapExceeded(len(parent), depth)
                if sum(map(mul, goal, q)) == 0:
                    points, steps = [], []
                    while parent[q] is not None:
                        points.append(h.point(dehomogenize(q)))
                        q, g = parent[q]
                        steps.append(g)
                    return Found(Walk((s, *reversed(points)), tuple(reversed(steps))))
                nxt.append(q)
        if not nxt:
            break
        frontier = nxt
    return NotFoundWithinDepth(cfg.max_depth)


@functools.lru_cache(maxsize=1)
def _bfs_instance(h, c):
    """bfs_walk's rows, moves (label, vector, blocking rows) and goal vector
    for the polytope h under the cost c, kept for the last pair."""
    rows = h.rows
    if isinstance(h, LiftedPolytope):
        circuits, opt = enumerate_lifted_circuits(h), reference_lifted_optimal_value(h, c)[0]
    else:
        circuits, opt = enumerate_circuits(h), optimal_value(h, c)[0]
    cost = c.vector
    gains = [(sum(map(mul, cost, g.vector)), g) for g in circuits]
    directed = sorted(g if gain > 0 else g.flipped() for gain, g in gains if gain)
    moves = tuple([(g, g.vector, blocking_rows(rows, g.vector)) for g in directed])
    # c.x/D == opt  <=>  (c, -opt).(x, D) == 0, with (c, -opt) scaled to integers
    goal = homogeneous((*cost, -opt))[:-1]
    return rows, moves, goal


# -- lifted circuits by kind: the reference for the integer-vector ones ---------


@dataclass(frozen=True)
class ReferenceLiftedCircuit:
    """Circuit of a polygon-times-simplex product, stored by kind.

    kind "base": the planar circuit g paired with zero simplex movement.
    kind "axis": sign * e_i in the simplex coordinates.
    kind "diff": e_i - e_j in the simplex coordinates.
    Directed instances carry sign or index order; canonical() strips both.
    """

    kind: str
    g: Direction2 | None = None
    i: int = -1
    j: int = -1
    sign: int = 1

    def canonical(self):
        if self.kind == "base":
            return replace(self, g=self.g.canonical())
        if self.kind == "axis":
            return replace(self, sign=1)
        if self.i > self.j:
            return replace(self, i=self.j, j=self.i)
        return self

    def flipped(self):
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


def reference_lifted_circuits(lp: LiftedPolytope, base_circuits):
    """Canonical circuits of the product by kind: base slopes, axes, axis differences."""
    e = lp.extra_dims
    out = [ReferenceLiftedCircuit("base", g=g) for g in base_circuits]
    out += [ReferenceLiftedCircuit("axis", i=i) for i in range(e)]
    out += [ReferenceLiftedCircuit("diff", i=i, j=j) for i in range(e) for j in range(i + 1, e)]
    return out


def reference_monotone_lifted(circuits, c, extra_dims: int):
    """Directed circuits with positive gain under the rational cost c, sorted by vector."""
    cost = (c.base.dx, c.base.dy) + tuple(c.simplex)
    out = []
    for circ in circuits:
        gain = sum(w * v for w, v in zip(cost, circ.vector(extra_dims)))
        if gain > 0:
            out.append(circ)
        elif gain < 0:
            out.append(circ.flipped())
    return sorted(out, key=lambda circ: circ.vector(extra_dims))


# -- image polygons over Fractions: the reference for the integer matrix --------


def reference_transform_polygon(m: AffineMap2, h) -> tuple[tuple, tuple[Point2, ...]]:
    """Rows and vertex tuple of transform_polygon(m, h), raising what it raises.

    Row a with bound b becomes a (H^-1) with bound b + a H^-1 t, by the
    Fraction inverse of the map, and the vertices come from reference_hpolygon.
    """
    inv = m.inverse()
    rows = []
    for a1, a2, b in h.rows:
        n1 = inv.m00 * a1 + inv.m10 * a2
        n2 = inv.m01 * a1 + inv.m11 * a2
        rows.append(canonical_row(n1, n2, b + n1 * m.tx + n2 * m.ty))
    return tuple(rows), reference_hpolygon(rows)


# -- the reduction polygon through image polygons and a hull: the reference ----


def reference_corner_transform(pell, inst, C: int) -> dict:
    """Fields of build_corner_transform(pell, inst, C), with image the vertex
    tuple of the image polygon.

    The image polygons come from reference_transform_polygon, and the slopes
    from a walk around the squeezed polygon's vertices that skips the edge
    joining u's and w's images.
    """
    ck = C * inst.k
    outer = {pell.u, pell.w}
    alpha = min((1 - abs(v.y)) / v.x for v in pell.v.vertices if v not in outer) / 4
    beta = rat(1, 6 * ck)
    rot = AffineMap2(-1, -1, 1, -1)
    pre = AffineMap2.scaling(1, beta).compose(rot.compose(AffineMap2.scaling(alpha, 1)))
    slopes = _reference_ring_walk(
        reference_transform_polygon(pre, pell.h)[1], pre.apply(pell.u), pre.apply(pell.w),
        lambda p, q: (q.y - p.y) / (q.x - p.x),
    )
    s1 = min(slopes)
    box = (s1 / inst.a[-1]) ** ((ck + 1) // 2 + 1)
    gamma = box / 4
    scaled = AffineMap2.scaling(gamma, gamma).compose(pre)
    shift = AffineMap2.translation(-scaled.apply(pell.u).x, inst.S - scaled.apply(pell.t).y)
    full = shift.compose(scaled)
    w2 = full.apply(pell.w)
    return dict(
        map=full, alpha=alpha, beta=beta, gamma=gamma, box=box, s1=s1,
        epsilon=w2.y - inst.S, chain_slopes=tuple(sorted(slopes)),
        image=reference_transform_polygon(full, pell.h)[1], u_image=full.apply(pell.u),
        w_image=w2, t_image=full.apply(pell.t),
    )


def _reference_ring_walk(ring, u, w, edge):
    """edge(p, q) for each counterclockwise edge of ring except the one joining u and w."""
    out = []
    for i in range(len(ring)):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        if {p, q} != {u, w}:
            out.append(edge(p, q))
    return out


def reference_reduction_vertices(pell, corner: dict, inst):
    """Vertices of the reduction polygon and its sorted corner circuits.

    corner holds reference_corner_transform's fields for pell and inst.  The
    vertices are the hull of the intended points, which must all be vertices;
    the corner circuits come from a walk around the corner's image polygon.
    """
    chain = build_slope_chain(inst, pullback_cost(corner["map"], pell.c0))
    apex = Point2(rat(1), inst.S + corner["epsilon"])
    expected = {Point2(rat(0), rat(0)), apex, *as_points(chain.triples)}
    expected |= {corner["map"].apply(p) for p in pell.v.vertices}
    v = hull2d(list(expected))
    assert set(v.vertices) == expected, "some intended vertex fell inside the hull"
    directions = _reference_ring_walk(
        corner["image"], corner["u_image"], corner["w_image"],
        lambda p, q: primitive_direction(q.x - p.x, q.y - p.y).canonical(),
    )
    return v.vertices, tuple(sorted(directions))


def reference_essr(inst, r_bound: int):
    """brute_force_essr's verdict by a scan of the multiplicity vectors in lexicographic order.

    r_i runs to min(r_bound, S // a_i), which keeps the order of every vector
    that can hit S.  Vectors of more than max(k, r_bound) elements are skipped;
    the first one that hits S with a count other than k wins over the first
    that hits S with k elements.
    """
    cap = max(inst.k, r_bound)
    witness = None
    for r in itertools.product(*[range(min(r_bound, inst.S // w) + 1) for w in inst.a]):
        used = sum(r)
        if used > cap or sum(m * w for m, w in zip(r, inst.a)) != inst.S:
            continue
        if used != inst.k:
            return PromiseViolated(r)
        if witness is None:
            witness = r
    return Feasible(witness) if witness is not None else Infeasible()
