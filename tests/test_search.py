import functools
import gc
import itertools
import random
import weakref
from operator import mul

import pytest

from circuitwalks.circuits import (
    AmbiguousOptimum,
    LiftedCircuit,
    LiftedCost,
    NotAVertex,
    blocking_rows,
    chord_moves,
    enumerate_circuits,
    enumerate_lifted_circuits,
    lifted_optimal_value,
    max_step,
    maximal_moves,
    monotone_directions,
    monotone_lifted_directions,
    optimal_value,
)
from circuitwalks.constructions import (
    SubsetSumInstance,
    build_p_ell,
    build_reduction,
    lift_instance,
    reduction_witness_walk,
)
from circuitwalks.polytope import (
    BadDimension,
    DegenerateHull,
    HPolygon,
    LiftedPoint,
    LiftedPolytope,
    VPolygon,
    h_to_v,
    hull2d,
    product_with_simplex,
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
    rat,
)
from circuitwalks.search import (
    Found,
    NodeCapExceeded,
    NotFoundWithinDepth,
    SearchConfig,
    Walk,
    approx_monotone_walk,
    is_valid_monotone_walk,
    shortest_monotone_walk,
    transform_walk,
)
from circuitwalks import circuits, polytope, search
from circuitwalks.formats import InstanceFile, read_instance, write_instance
from circuitwalks.search import _prepare

from conftest import (
    bfs_walk, corner_anchors, front_chains, random_hull, reference_lifted_optimal_value)


def P(x, y):
    return Point2(rat(x), rat(y))


class TestWalk:
    def test_lengths(self):
        w = Walk(points=(P(0, 0), P(1, 1)), steps=(Direction2(1, 1),))
        assert w.length == 1 and w.start == P(0, 0) and w.end == P(1, 1)

    def test_singleton(self):
        w = Walk(points=(P(0, 0),), steps=())
        assert w.length == 0 and w.start == w.end

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            Walk(points=(P(0, 0), P(1, 1)), steps=())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Walk(points=(), steps=())


class TestConfig:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            SearchConfig(-1)

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            SearchConfig(1, node_cap=0)


class TestShortestWalk:
    def test_family_distances(self):
        for ell in (1, 2, 3):
            art = build_p_ell(ell)
            r = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(ell))
            assert isinstance(r, Found) and r.walk.length == ell
            miss = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(ell - 1))
            assert isinstance(miss, NotFoundWithinDepth) and miss.depth == ell - 1

    def test_first_walk_is_reproducible(self):
        art = build_p_ell(2)
        a = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2))
        b = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(5))
        assert a.walk == b.walk
        assert a.walk.steps == (Direction2(2, -1), Direction2(1, -4))
        assert a.walk.points == (P(0, 1), Point2(rat(1), rat(1, 2)), Point2(rat(9, 8), rat(0)))

    def test_start_at_optimum(self):
        art = build_p_ell(2)
        r = shortest_monotone_walk(art.h, art.t, art.c0, SearchConfig(0))
        assert isinstance(r, Found) and r.walk.length == 0

    def test_start_outside_rejected(self):
        art = build_p_ell(2)
        with pytest.raises(ValueError):
            shortest_monotone_walk(art.h, P(50, 50), art.c0, SearchConfig(1))

    def test_node_cap_counts_discovered(self):
        art = build_p_ell(2)
        r = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2, node_cap=2))
        assert isinstance(r, NodeCapExceeded) and r.discovered == 3
        assert r.completed_depth == 0
        # the start and its two successors fit; the first second-layer state trips
        r = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2, node_cap=3))
        assert isinstance(r, NodeCapExceeded) and r.discovered == 4
        assert r.completed_depth == 1
        assert isinstance(
            shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(1)), NotFoundWithinDepth
        )

    def test_interior_start_allowed(self):
        art = build_p_ell(1)
        r = shortest_monotone_walk(art.h, P(rat(1, 4), 0), art.c0, SearchConfig(2))
        assert isinstance(r, Found)
        assert r.walk.end.x == 1

    def test_lifted_dispatch(self):
        art = build_p_ell(2)
        lp, s, c = lift_instance(art.h, art.u, art.c0, 3)
        r = shortest_monotone_walk(lp, s, c, SearchConfig(2))
        assert isinstance(r, Found) and r.walk.length == 2


class TestValidation:
    def walk(self):
        art = build_p_ell(2)
        return art, shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2)).walk

    def test_accepts_search_output(self):
        art, walk = self.walk()
        report = is_valid_monotone_walk(art.h, art.c0, walk)
        assert report and report.reason is None

    def test_rejects_short_step(self):
        art, walk = self.walk()
        mid = Point2(rat(1, 2), rat(3, 4))  # halfway along the first move
        tampered = Walk(points=(walk.points[0], mid, walk.points[2]), steps=walk.steps)
        report = is_valid_monotone_walk(art.h, art.c0, tampered)
        assert not report and report.step == 0
        assert "maximal" in report.reason

    def test_rejects_decreasing(self):
        art, walk = self.walk()
        backwards = Walk(
            points=tuple(reversed(walk.points)),
            steps=tuple(s.flipped() for s in reversed(walk.steps)),
        )
        assert not is_valid_monotone_walk(art.h, art.c0, backwards)

    def test_rejects_outside_start(self):
        art, walk = self.walk()
        shifted = Walk(
            points=(P(-5, 0),) + walk.points[1:],
            steps=walk.steps,
        )
        report = is_valid_monotone_walk(art.h, art.c0, shifted)
        assert not report and report.step is None

    def test_rejects_zero_length_step(self):
        art, _ = self.walk()
        stuck = Walk(
            points=(art.t, art.t),
            steps=(Direction2(1, 4),),
        )
        report = is_valid_monotone_walk(art.h, art.c0, stuck)
        assert not report

    def test_rejects_non_circuit_step(self):
        art, walk = self.walk()
        crooked = Walk(points=(art.u, art.t), steps=(Direction2(9, -8),))
        report = is_valid_monotone_walk(art.h, art.c0, crooked)
        assert not report and "circuit" in report.reason

    def test_rejects_zero_gain_step(self):
        # (0, 1) is a maximal circuit move from (1, 0) that leaves the cost x unchanged
        square = v_to_h(VPolygon.of_points((P(0, 0), P(1, 0), P(1, 1), P(0, 1))))
        walk = Walk((P(0, 0), P(1, 0), P(1, 1)), (Direction2(1, 0), Direction2(0, 1)))
        report = is_valid_monotone_walk(square, Direction2(1, 0), walk)
        assert not report and report.step == 1
        assert report.reason == "step does not strictly increase the cost"


class TestLiftedValidation:
    """The validator on a lift of P_2 to d = 4, cost x plus simplex weights (1, 2)."""

    def setup_method(self):
        art = build_p_ell(2)
        self.lp = product_with_simplex(art.h, 4)
        self.c = LiftedCost(art.c0, (rat(1), rat(2)))
        self.u = art.u

    def at(self, y0, y1):
        return LiftedPoint(self.u, (rat(y0), rat(y1)))

    def check(self, points, steps):
        return is_valid_monotone_walk(self.lp, self.c, Walk(tuple(points), tuple(steps)))

    def test_accepts_axis_diff_and_base_steps(self):
        up, shift = LiftedCircuit((0, 0, 1, 0)), LiftedCircuit((0, 0, -1, 1))
        walk = shortest_monotone_walk(self.lp, self.at(0, 1), self.c, SearchConfig(2)).walk
        report = self.check(
            (self.at(0, 0), self.at(1, 0), self.at(0, 1)) + walk.points[1:],
            (up, shift) + walk.steps,
        )
        assert report and report.reason is None
        assert {step.kind for step in walk.steps} == {"base"}

    def test_rejects_non_circuit_steps(self):
        for step in (LiftedCircuit((0, 0, 0, 0, 1)), LiftedCircuit((1, 2, 0, 0))):
            report = self.check((self.at(0, 0), self.at(1, 0)), (step,))
            assert not report and report.step == 0 and "circuit" in report.reason

    def test_rejects_short_step(self):
        report = self.check((self.at(0, 0), self.at(rat(1, 2), 0)), (LiftedCircuit((0, 0, 1, 0)),))
        assert not report and report.step == 0 and "maximal" in report.reason

    def test_rejects_zero_length_step(self):
        up = LiftedCircuit((0, 0, 1, 0))
        report = self.check((self.at(0, 0), self.at(1, 0), self.at(1, 0)), (up, up))
        assert not report and report.step == 1 and "zero length" in report.reason

    def test_rejects_non_increasing_step(self):
        down = LiftedCircuit((0, 0, -1, 0))
        report = self.check((self.at(1, 0), self.at(0, 0)), (down,))
        assert not report and report.step == 0 and "increase" in report.reason


class TestTransformWalk:
    def test_scaling_keeps_validity(self):
        from circuitwalks.polytope import transform_polygon
        from circuitwalks.ratgeo import pullback_cost

        art = build_p_ell(2)
        walk = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2)).walk
        m = AffineMap2(rat(2), rat(1), rat(0), rat(3), rat(-1), rat(5))
        image = transform_walk(m, walk)
        assert image.points == tuple(m.apply(p) for p in walk.points)
        h2 = transform_polygon(m, art.h)
        c2 = pullback_cost(m, art.c0)
        assert is_valid_monotone_walk(h2, c2, image)

    def test_singular_map_rejected(self):
        art = build_p_ell(2)
        walk = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2)).walk
        with pytest.raises(Exception):
            transform_walk(AffineMap2(rat(1), rat(1), rat(1), rat(1)), walk)


class TestApprox:
    def test_exact_when_depth_suffices(self):
        art = build_p_ell(3)
        walk = approx_monotone_walk(art.h, art.u, art.c0, 3)
        assert walk.length == 3

    def test_fallback_reaches_optimum(self):
        art = build_p_ell(4)
        walk = approx_monotone_walk(art.h, art.u, art.c0, 1)
        assert walk.end == art.t
        assert is_valid_monotone_walk(art.h, art.c0, walk)

    def test_depth_must_be_positive(self):
        art = build_p_ell(2)
        with pytest.raises(ValueError):
            approx_monotone_walk(art.h, art.u, art.c0, 0)

    # On the unit square, cost (0, 1) is maximal on an edge and (1/2, 0) is no vertex.
    SQUARE = v_to_h(VPolygon.of_points((P(0, 0), P(1, 0), P(1, 1), P(0, 1))))

    def _raised(self, s, c, depth, node_cap=10_000_000):
        with pytest.raises(ValueError) as info:
            approx_monotone_walk(self.SQUARE, s, c, depth, node_cap)
        return type(info.value), str(info.value)

    def test_depth_checked_before_optimum(self):
        assert self._raised(P(rat(1, 2), 0), Direction2(0, 1), 0) == (
            ValueError, "depth must be at least 1")

    def test_optimum_checked_before_vertex(self):
        assert self._raised(P(rat(1, 2), 0), Direction2(0, 1), 1) == (
            AmbiguousOptimum, "cost attains its maximum on an edge")

    def test_vertex_checked_before_node_cap(self):
        assert self._raised(P(rat(1, 2), 0), Direction2(1, 1), 1, node_cap=0) == (
            NotAVertex, "(1/2, 0) is not a vertex")
        assert self._raised(P(0, 0), Direction2(1, 1), 1, node_cap=0) == (
            ValueError, "node_cap must be positive")


class TestRandomPolygons:
    def test_boundary_walks_found_and_valid(self):
        rng = random.Random(1105)
        for _ in range(25):
            ring = random_hull(rng, max_points=8, bound=30)
            h = v_to_h(ring)
            c = Direction2(1, 0)
            start = min(ring.vertices)
            r = shortest_monotone_walk(h, start, c, SearchConfig(len(ring.vertices)))
            assert isinstance(r, Found)
            assert is_valid_monotone_walk(h, c, r.walk)

    def test_walks_never_use_non_monotone_steps(self):
        rng = random.Random(77)
        ring = random_hull(rng, max_points=10, bound=50)
        h = v_to_h(ring)
        c = Direction2(3, -2)
        allowed = set(monotone_directions(enumerate_circuits(h), c))
        start = max(ring.vertices, key=lambda p: -(3 * p.x - 2 * p.y))
        r = shortest_monotone_walk(h, start, c, SearchConfig(len(ring.vertices)))
        assert isinstance(r, Found)
        assert set(r.walk.steps) <= allowed


# -- differential check against the rational search ---------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rational_step(rows, x, g):
    """Plain rational min-ratio over the flat rows (a_1, .., a_d, b) that block
    the vector g; _dot stops at the end of x and g, before b."""
    return min((r[-1] - _dot(r, x)) / rat(_dot(r, g)) for r in rows if _dot(r, g) > 0)


def _rational_problem(h, c):
    """Rows, monotone (label, vector) pairs, cost vector, optimum and the
    point <-> coordinates maps of a polygon or a lift, in rational terms."""
    if isinstance(h, LiftedPolytope):
        dirs = monotone_lifted_directions(enumerate_lifted_circuits(h), c)
        return (
            h.rows,
            [(g, g.vector) for g in dirs],
            (c.base.dx, c.base.dy) + tuple(c.simplex),
            reference_lifted_optimal_value(h, c)[0],
            lambda p: (p.base.x, p.base.y) + tuple(p.simplex),
            lambda x: LiftedPoint(Point2(x[0], x[1]), x[2:]),
        )
    dirs = monotone_directions(enumerate_circuits(h), c)
    return (
        h.rows,
        [(g, (g.dx, g.dy)) for g in dirs],
        (c.dx, c.dy),
        optimal_value(h, c)[0],
        lambda p: (p.x, p.y),
        lambda x: Point2(*x),
    )


def reference_walk(h, s, c, cfg):
    """Breadth-first search over exact rational points, one rational min-ratio
    per move: the reference the integer search must reproduce exactly.  h is
    a polygon or a lift; lifted rows come from h.rows and lifted
    steps from the LiftedCircuit vectors."""
    rows, dirs, cost, opt, coords, point = _rational_problem(h, c)
    start = coords(s)
    if _dot(cost, start) == opt:
        return Found(Walk((s,), ()))
    parent = {start: None}
    frontier = [start]
    for depth in range(cfg.max_depth):
        nxt = []
        for x in frontier:
            for g, vec in dirs:
                lam = _rational_step(rows, x, vec)
                if lam <= 0:
                    continue
                y = tuple(xi + lam * gi for xi, gi in zip(x, vec))
                if y in parent:
                    continue
                parent[y] = (x, g)
                if len(parent) > cfg.node_cap:
                    return NodeCapExceeded(len(parent), depth)
                if _dot(cost, y) == opt:
                    states, steps = [y], []
                    while parent[states[-1]] is not None:
                        prev, step = parent[states[-1]]
                        states.append(prev)
                        steps.append(step)
                    points = [s] + [point(z) for z in reversed(states[:-1])]
                    return Found(Walk(tuple(points), tuple(reversed(steps))))
                nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return NotFoundWithinDepth(cfg.max_depth)


# Trials of TestDifferential.test_random_lifts whose capped reference run gives
# up where the search completes: on a lift the cap counts the base polygon's
# states only.  Each gives the uncapped answer.
LIFTS_COMPLETED_UNDER_CAP = (5, 35, 40, 45, 60, 65, 75, 95, 100, 130, 145)

LIFT_WEIGHTS = [rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 3), rat(1), rat(3, 2), rat(2)]


def assert_same_search(h, s, c, cfg):
    """The search, bfs_walk and reference_walk agree: same result type, depth and walk."""
    got = shortest_monotone_walk(h, s, c, cfg)
    want = reference_walk(h, s, c, cfg)
    assert got == want
    assert bfs_walk(h, s, c, cfg) == want
    return got


class TestDifferential:
    def test_family_levels(self):
        for ell in range(1, 6):
            art = build_p_ell(ell)
            for start in (art.u, art.w):
                for depth in (ell - 1, ell, ell + 1):
                    assert_same_search(art.h, start, art.c0, SearchConfig(depth))
                assert_same_search(art.h, start, art.c0, SearchConfig(ell, node_cap=3 * ell))

    def test_reductions(self):
        for a, S, k in (((2, 3), 5, 2), ((2, 4), 5, 2), ((1, 2), 3, 2), ((15,), 15, 1)):
            red = build_reduction(SubsetSumInstance(a=a, S=S, k=k), 2)
            for start in (red.s, *corner_anchors(red.corner)):
                for depth in (red.ck - 1, red.ck):
                    assert_same_search(red.h, start, red.c, SearchConfig(depth))

    def test_random_hulls(self):
        rng = random.Random(2510)
        outcomes = set()
        for trial in range(300):
            ring = random_hull(rng, max_points=8, bound=30)
            h = v_to_h(ring)
            verts = h_to_v(h).vertices
            i = rng.randrange(len(verts))
            p, q = verts[i], verts[(i + 1) % len(verts)]
            midpoint = Point2((p.x + q.x) / 2, (p.y + q.y) / 2)
            c = primitive_direction(rng.choice([1, 2, 3, -1]), rng.choice([-2, -1, 0, 1, 5]))
            cap = rng.choice([2, 3, 5]) if trial % 5 == 0 else 10_000
            for start in (p, midpoint):
                depth = rng.randint(0, len(verts))
                r = assert_same_search(h, start, c, SearchConfig(depth, node_cap=cap))
                outcomes.add(type(r))
        assert outcomes == {Found, NotFoundWithinDepth, NodeCapExceeded}

    def test_family_lifts(self):
        for ell in range(1, 5):
            art = build_p_ell(ell)
            for d in range(2, 9):
                for start in (art.u, art.w):
                    lp, s, c = lift_instance(art.h, start, art.c0, d)
                    for depth in (ell - 1, ell):
                        assert_same_search(lp, s, c, SearchConfig(depth))

    def test_random_lifts(self):
        rng = random.Random(4242)
        outcomes = set()
        kinds = set()
        for trial in range(160):
            lp, s, c = _random_lift(rng)
            cap = rng.choice([2, 5, 20]) if trial % 5 == 0 else 3000
            depth = rng.randint(0, 4)
            r = shortest_monotone_walk(lp, s, c, SearchConfig(depth, node_cap=cap))
            want = reference_walk(lp, s, c, SearchConfig(depth, node_cap=cap))
            uncapped = reference_walk(lp, s, c, SearchConfig(depth))
            if trial in LIFTS_COMPLETED_UNDER_CAP:
                assert isinstance(want, NodeCapExceeded) and r == uncapped
            elif isinstance(r, NodeCapExceeded):
                # completed_depth is the base's plus the simplex distance:
                # never less than the reference's, and no walk is that short
                assert isinstance(want, NodeCapExceeded)
                assert want.completed_depth <= r.completed_depth < depth
                assert not isinstance(uncapped, Found) or uncapped.walk.length > r.completed_depth
            else:
                assert r == want
            outcomes.add(type(r))
            if isinstance(r, Found):
                kinds |= {step.kind for step in r.walk.steps}
        assert outcomes == {Found, NotFoundWithinDepth, NodeCapExceeded}
        assert kinds == {"base", "axis", "diff"}


def _random_lift(rng, wall=False):
    """A random polygon lifted to d = 2..5, a start at a vertex or an edge
    midpoint of the polygon times a vertex, an edge midpoint or the centre of
    the simplex, and a random cost.  With wall, the polygon gets a vertical
    edge at x = -21, left of every random point."""
    ring = random_hull(rng, max_points=6, bound=20)
    if wall:
        ring = hull2d(ring.vertices + (P(-21, -1), P(-21, 1)))
    h = v_to_h(ring)
    lp = product_with_simplex(h, rng.randint(2, 5))
    e = lp.extra_dims
    verts = h_to_v(h).vertices
    i = rng.randrange(len(verts))
    p, q = verts[i], verts[(i + 1) % len(verts)]
    base = rng.choice([p, Point2((p.x + q.x) / 2, (p.y + q.y) / 2)])
    corners = simplex_vertices(e)
    y0, y1 = rng.sample(corners, 2) if e else ((), ())
    simplex = rng.choice([
        tuple(rat(y) for y in y0),  # a vertex of the simplex
        tuple(rat(a + b, 2) for a, b in zip(y0, y1)),  # an edge midpoint
        tuple(rat(1, e + 2) for _ in range(e)),  # an interior point
    ])
    c = LiftedCost(
        primitive_direction(rng.choice([1, 2, -1]), rng.choice([-1, 0, 1, 3])),
        tuple(rng.choice(LIFT_WEIGHTS) for _ in range(e)),
    )
    return lp, LiftedPoint(base, simplex), c


class TestSimplexWalks:
    """Lifts whose base part starts at the base optimum walk in the simplex
    only: the closed-form simplex walk against the rational lifted search."""

    def test_against_the_reference(self):
        rng = random.Random(2202)
        kinds = set()
        lengths = set()
        for e in range(1, 6):
            for _ in range(3):
                h = v_to_h(random_hull(rng, max_points=6, bound=20))
                lp = product_with_simplex(h, e + 2)
                base = primitive_direction(rng.choice([1, 2, -1]), rng.choice([-1, 0, 1, 3]))
                # one weight drawn again and again: ties among the simplex vertices
                w = rng.choice(LIFT_WEIGHTS)
                c = LiftedCost(base, tuple(rng.choice([w, w, rng.choice(LIFT_WEIGHTS)])
                                           for _ in range(e)))
                t = optimal_value(h, base)[1][0]
                corners = [tuple(rat(y) for y in v) for v in simplex_vertices(e)]
                starts = corners + [tuple((a + b) / 2 for a, b in zip(y0, y1))
                                    for y0, y1 in itertools.combinations(corners, 2)]
                starts.append(tuple(rat(1, e + 2) for _ in range(e)))
                starts.append(tuple(rat(rng.randint(0, 3), 4 * e) for _ in range(e)))
                for y in starts:
                    for depth in range(e + 2):
                        r = assert_same_search(lp, LiftedPoint(t, y), c, SearchConfig(depth))
                        if isinstance(r, Found):
                            kinds |= {step.kind for step in r.walk.steps}
                            lengths.add(r.walk.length)
        assert kinds == {"axis", "diff"}
        assert lengths == {0, 1, 2, 3, 4, 5}


def simplex_bfs(y, weights):
    """The smallest shortest monotone walk of the simplex conv(0, e_1, .., e_n)
    from the point y under the weights, by breadth-first search over rational
    points: the edge directions e_i and e_i - e_j with both signs, those that
    raise the weights tried in sorted order, and the first discovery of a
    point wins.  Returns (step vector, point after it) per step."""
    n = len(y)
    units = simplex_vertices(n)[1:]
    edges = list(units) + [tuple(a - b for a, b in zip(u, v))
                           for u, v in itertools.combinations(units, 2)]
    dirs = sorted(v for g in edges for v in (g, tuple(-a for a in g))
                  if sum(map(mul, weights, v)) > 0)
    top = max((0, *weights))

    def move(z, v):
        # the largest t with z + t*v in the simplex: every z_i >= 0 and sum(z) <= 1
        bounds = [zi / -vi for zi, vi in zip(z, v) if vi < 0]
        if sum(v) > 0:
            bounds.append((1 - sum(z)) / sum(v))
        t = min(bounds)
        return tuple(zi + t * vi for zi, vi in zip(z, v)) if t else None

    start = tuple(rat(v) for v in y)
    parent = {start: None}
    frontier = [start]
    goal = start if sum(map(mul, weights, start)) == top else None
    while goal is None:
        nxt = []
        for z in frontier:
            for v in dirs:
                q = move(z, v)
                if q is None or q in parent:
                    continue
                parent[q] = (z, v)
                nxt.append(q)
                if goal is None and sum(map(mul, weights, q)) == top:
                    goal = q
            if goal is not None:
                break
        assert nxt, "the simplex optimum is always reachable"
        frontier = nxt
    walk = []
    while parent[goal] is not None:
        prev, v = parent[goal]
        walk.append((v, goal))
        goal = prev
    return walk[::-1]


def _simplex_cases():
    """(y, weights) for n = 1..6: starts at vertices, on edges, inside and at
    the barycentre, under weights with ties, zeros and negatives."""
    rng = random.Random(3131)
    for n in range(1, 7):
        corners = [tuple(rat(v) for v in c) for c in simplex_vertices(n)]
        y0, y1 = rng.sample(corners, 2)
        starts = [corners[0], corners[-1], rng.choice(corners),
                  tuple((a + b) / 2 for a, b in zip(y0, y1)),
                  tuple((2 * a + b) / 3 for a, b in zip(y0, y1)),
                  tuple(rat(rng.randint(1, 5), 6 * n) for _ in range(n)),
                  tuple(rat(1, n + 1) for _ in range(n))]
        w = rng.choice(LIFT_WEIGHTS)
        weights = [(w,) * n, (rat(0),) * n, tuple(-rat(rng.randint(1, 3)) for _ in range(n)),
                   tuple(rng.choice([w, w, rat(0), rng.choice(LIFT_WEIGHTS)]) for _ in range(n)),
                   tuple(rng.choice(LIFT_WEIGHTS) for _ in range(n))]
        for y in starts:
            for c in weights:
                yield y, c


class TestIntegerSimplexWalk:
    """The simplex walk on integer masses against a breadth-first search of
    the simplex, alone and as the simplex factor of the lifted search."""

    def test_against_simplex_bfs(self):
        lengths = set()
        for y, weights in _simplex_cases():
            # a base part with its own denominators, so D is not the simplex's alone
            state = homogeneous((rat(1, 3), rat(-2, 7), *y))
            got = search._simplex_walk(state, weights)
            assert [(step.vector, end) for step, end in got] == [
                ((0, 0) + v, end) for v, end in simplex_bfs(y, weights)]
            lengths.add(len(got))
        assert lengths == set(range(7))

    def test_lifted_search_is_base_search_plus_simplex_bfs(self):
        for ell in (3, 4, 5):
            art = build_p_ell(ell)
            base = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(ell)).walk
            for y, weights in _simplex_cases():
                n = len(y)
                lp = product_with_simplex(art.h, n + 2)
                s, c = LiftedPoint(art.u, y), LiftedCost(art.c0, weights)
                simplex = simplex_bfs(y, weights)
                depth = ell + len(simplex)
                found = shortest_monotone_walk(lp, s, c, SearchConfig(depth))
                assert shortest_monotone_walk(lp, s, c, SearchConfig(depth - 1)) == \
                    NotFoundWithinDepth(depth - 1)
                # the two factor walks merged, the smaller step vector first
                moves = [[(g.vector + (0,) * n, p) for g, p in zip(base.steps, base.points[1:])],
                         [((0, 0) + v, end) for v, end in simplex]]
                ends, points, steps = [art.u, tuple(rat(v) for v in y)], [s], []
                while moves[0] or moves[1]:
                    i = min([i for i in (0, 1) if moves[i]], key=lambda i: moves[i][0][0])
                    v, ends[i] = moves[i].pop(0)
                    steps.append(LiftedCircuit(v))
                    points.append(LiftedPoint(*ends))
                assert found == Found(Walk(tuple(points), tuple(steps)))
                assert is_valid_monotone_walk(lp, c, found.walk)


def assert_same_optimum(lp, c):
    got = lifted_optimal_value(lp, c)
    want = reference_lifted_optimal_value(lp, c)
    assert got == want and type(got[0]) is type(want[0])
    return got


class TestLiftedOptimum:
    """The separable optimum against the cost's value at every vertex."""

    def test_family_lifts(self):
        for ell in range(1, 5):
            art = build_p_ell(ell)
            for d in range(2, 9):
                lp, _, c = lift_instance(art.h, art.u, art.c0, d)
                assert_same_optimum(lp, c)

    def test_random_lifts(self):
        rng = random.Random(1729)
        faces = set()
        for _ in range(200):
            h = v_to_h(random_hull(rng, max_points=6, bound=20))
            lp = product_with_simplex(h, rng.randint(2, 6))
            a1, a2, _ = rng.choice(h.rows)
            base = rng.choice([
                primitive_direction(a1, a2),  # the outward normal: an edge is maximal
                primitive_direction(rng.choice([1, 2, -1]), rng.choice([-1, 0, 1, 3])),
            ])
            # one weight drawn again and again: ties among the simplex vertices
            w = rng.choice(LIFT_WEIGHTS)
            simplex = tuple(
                rng.choice([w, w, rng.choice(LIFT_WEIGHTS)]) for _ in range(lp.extra_dims)
            )
            _, argmax = assert_same_optimum(lp, LiftedCost(base, simplex))
            faces.add((len({v.base for v in argmax}) > 1, len({v.simplex for v in argmax}) > 1))
        assert faces == {(False, False), (False, True), (True, False), (True, True)}

    def test_wrong_weight_count_rejected(self):
        h = build_p_ell(2).h
        for d in range(3, 7):
            lp = product_with_simplex(h, d)
            for n in (0, d - 3, d - 1):  # no weights, one too few, one too many
                with pytest.raises(BadDimension):
                    lifted_optimal_value(lp, LiftedCost(Direction2(1, 0), (rat(-1),) * n))


class TestLiftedCostDimension:
    """A lifted cost has one weight per simplex coordinate; the search and the
    validator reject any other count instead of misreading the goal."""

    def setup_method(self):
        art = build_p_ell(3)
        self.lp, self.s, self.c = lift_instance(art.h, art.u, art.c0, 4)
        base, weights = self.c.base, self.c.simplex
        self.bad = (
            LiftedCost(base, ()),
            LiftedCost(base, weights[:-1]),
            LiftedCost(base, weights + (rat(1),)),
        )

    def test_search_rejects(self):
        # twice, each bad cost after the good one was prepared: no exception is cached
        for _ in range(2):
            assert shortest_monotone_walk(self.lp, self.s, self.c, SearchConfig(3)).walk.length == 3
            for c in self.bad:
                with pytest.raises(BadDimension):
                    shortest_monotone_walk(self.lp, self.s, c, SearchConfig(3))

    def test_validator_rejects(self):
        walk = shortest_monotone_walk(self.lp, self.s, self.c, SearchConfig(3)).walk
        for w in (walk, Walk((self.s,), ())):
            assert is_valid_monotone_walk(self.lp, self.c, w)
            for c in self.bad:
                with pytest.raises(BadDimension):
                    is_valid_monotone_walk(self.lp, c, w)

    def test_start_is_checked_first(self):
        # a start of the wrong length, then one outside, each before the cost is read
        short = LiftedPoint(self.s.base, self.s.simplex[:-1])
        outside = LiftedPoint(self.s.base, (rat(1),) * len(self.s.simplex))
        for c in (self.c,) + self.bad:
            _prepare.cache_clear()
            with pytest.raises(BadDimension, match="point has 1 simplex coordinates"):
                shortest_monotone_walk(self.lp, short, c, SearchConfig(3))
            with pytest.raises(BadDimension, match="point has 1 simplex coordinates"):
                is_valid_monotone_walk(self.lp, c, Walk((short,), ()))
            with pytest.raises(ValueError, match="start point is outside the polytope") as info:
                shortest_monotone_walk(self.lp, outside, c, SearchConfig(3))
            assert type(info.value) is ValueError
            report = is_valid_monotone_walk(self.lp, c, Walk((outside,), ()))
            assert not report and report.reason == "start point outside the polytope"
            assert _prepare.cache_info().currsize == 0


def _last_layer(h, s, c, depth):
    """States discovered before the last of `depth` layers of the rational
    reference search, its frontier, and the states discovered after it."""
    rows, dirs, _, _, coords, _ = _rational_problem(h, c)
    seen = {coords(s)}
    frontier = [coords(s)]
    for _ in range(depth):
        before, last = len(seen), len(frontier)
        nxt = []
        for x in frontier:
            for _, vec in dirs:
                lam = _rational_step(rows, x, vec)
                y = tuple(xi + lam * gi for xi, gi in zip(x, vec))
                if lam > 0 and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return before, last, len(seen)


# (ell, start, depth, cap) of the node cap comparisons below in which the
# backward filter discovers fewer states, so the search completes where
# bfs_walk and the reference, which expand every state, give up.
COMPLETED_BY_PRUNING = {
    (3, "u", 2, 4), (3, "u", 2, 9), (3, "u", 3, 17), (3, "w", 2, 4), (3, "w", 2, 9),
    (4, "u", 3, 15), (4, "u", 3, 32), (4, "u", 4, 58), (4, "w", 3, 15), (4, "w", 3, 32),
}


class TestLastLayer:
    """Node caps around the last layer, where bfs_walk expands every state
    and the search only those in the stored A_1, and optima on an edge or a
    face of a lift."""

    def test_node_cap_around_the_guard(self):
        tripped = set()
        completed = set()
        for ell in (3, 4):
            art = build_p_ell(ell)
            moves = len(monotone_directions(enumerate_circuits(art.h), art.c0))
            for name, start in (("u", art.u), ("w", art.w)):
                for depth in (ell - 1, ell):
                    before, frontier, after = _last_layer(art.h, start, art.c0, depth)
                    guard = before + frontier * moves
                    for cap in (before, after - 1, guard - 1, guard, guard + 1):
                        key = (ell, name, depth, cap)
                        cfg = SearchConfig(depth, cap)
                        if key in COMPLETED_BY_PRUNING:
                            r = bfs_walk(art.h, start, art.c0, cfg)
                            assert r == reference_walk(art.h, start, art.c0, cfg)
                            # a capped run that completes gives the uncapped answer
                            pruned = shortest_monotone_walk(art.h, start, art.c0, cfg)
                            assert pruned == reference_walk(art.h, start, art.c0, SearchConfig(depth))
                            completed.add(key)
                        else:
                            r = assert_same_search(art.h, start, art.c0, cfg)
                        if isinstance(r, NodeCapExceeded):
                            tripped.add(r.completed_depth == depth - 1)
        assert tripped == {True}
        assert completed == COMPLETED_BY_PRUNING

    def test_cost_parallel_to_top_edge(self):
        rng = random.Random(6061)
        for _ in range(40):
            ring = random_hull(rng, max_points=8, bound=30)
            h = v_to_h(ring)
            a1, a2, _ = rng.choice(h.rows)
            c = primitive_direction(a1, a2)  # the outward normal: c is maximal on that edge
            assert len(optimal_value(h, c)[1]) == 2
            for start in ring.vertices:
                for depth in range(len(ring.vertices)):
                    assert_same_search(h, start, c, SearchConfig(depth))

    def test_random_lift_with_a_face_optimum(self):
        rng = random.Random(7331)
        found = 0
        for _ in range(40):
            h = v_to_h(random_hull(rng, max_points=6, bound=20))
            e = rng.randint(2, 4)
            lp = product_with_simplex(h, e + 2)
            w = rat(rng.randint(1, 5), rng.randint(2, 7))
            c = LiftedCost(
                primitive_direction(rng.choice([1, 2, -1]), rng.choice([-1, 0, 1, 3])),
                (w, w) + tuple(rat(-rng.randint(1, 3), 3) for _ in range(e - 2)),
            )
            assert len(lifted_optimal_value(lp, c)[1]) > 1
            base = rng.choice(h_to_v(h).vertices)
            s = LiftedPoint(base, tuple(rat(1, e + 1) for _ in range(e)))
            for depth in range(4):
                found += isinstance(assert_same_search(lp, s, c, SearchConfig(depth)), Found)
        assert found


class TestMaxStepReference:
    def test_matches_rational_min_ratio(self):
        rng = random.Random(916)
        zero = 0
        for _ in range(60):
            h = v_to_h(random_hull(rng, max_points=8, bound=40))
            verts = h_to_v(h).vertices
            dirs = list(enumerate_circuits(h))
            for _ in range(5):
                # convex combination of three vertices: inside, often on an edge
                w = [rng.choice([0, 0, 1, 2, 5]) for _ in range(3)]
                if not any(w):
                    w[0] = 1
                picks = rng.sample(verts, 3)
                total = sum(w)
                p = Point2(
                    sum(wi * v.x for wi, v in zip(w, picks)) / total,
                    sum(wi * v.y for wi, v in zip(w, picks)) / total,
                )
                assert h.contains(p)
                for g in dirs:
                    for d in (g, g.flipped()):
                        want = _rational_step(h.rows, (p.x, p.y), (d.dx, d.dy))
                        assert max_step(h, p, d) == want
                        zero += want == 0
        assert zero > 0


# -- the backward filter -------------------------------------------------------


def assert_same_pruned(h, s, c, cfg, reference=False):
    """The filtered search against bfs_walk, and both against reference_walk
    when asked: same result type, depth and walk."""
    got = shortest_monotone_walk(h, s, c, cfg)
    want = bfs_walk(h, s, c, cfg)
    assert got == want
    if reference:
        assert want == reference_walk(h, s, c, cfg)
    return got


def assert_distance(h, s, c, n):
    """The search at n and at n - 1 steps against one run of bfs_walk at n.

    bfs_walk finds an n-step walk, which the search must return.  A BFS
    returns the first goal of the first layer that holds one, so the same
    run proves that no walk of at most n - 1 steps exists, which the search
    must report.
    """
    want = bfs_walk(h, s, c, SearchConfig(n))
    assert isinstance(want, Found) and want.walk.length == n
    assert shortest_monotone_walk(h, s, c, SearchConfig(n)) == want
    assert shortest_monotone_walk(h, s, c, SearchConfig(n - 1)) == NotFoundWithinDepth(n - 1)


def _random_cost(rng, h):
    """An edge normal (c is maximal on that edge) or a small random cost."""
    a1, a2, _ = rng.choice(h.rows)
    return rng.choice([
        primitive_direction(a1, a2),
        primitive_direction(rng.choice([1, 2, 3, -1]), rng.choice([-2, -1, 0, 1, 5])),
    ])


class TestPrunedSearch:
    """The search filtered by backward sets returns bfs_walk's walk."""

    def test_family_levels(self):
        for ell in range(6, 10):
            art = build_p_ell(ell)
            for start in (art.u, art.w):
                assert_distance(art.h, start, art.c0, ell)
                if ell == 6:
                    assert_same_pruned(art.h, start, art.c0, SearchConfig(5), reference=True)

    def test_reduction_from_s_and_corner_anchors(self):
        red = build_reduction(SubsetSumInstance(a=(2, 4), S=5, k=2), 3)
        for start in (red.s, *corner_anchors(red.corner)):
            for depth in (red.ck - 1, red.ck):
                assert_same_pruned(red.h, start, red.c, SearchConfig(depth),
                                   reference=start != red.s and depth < red.ck)

    def test_random_hulls(self):
        rng = random.Random(1313)
        outcomes = set()
        faces = 0
        for _ in range(120):
            h = v_to_h(random_hull(rng, max_points=8, bound=30))
            verts = h_to_v(h).vertices
            i = rng.randrange(len(verts))
            p, q = verts[i], verts[(i + 1) % len(verts)]
            c = _random_cost(rng, h)
            faces += len(optimal_value(h, c)[1]) > 1
            for start in (p, Point2((p.x + q.x) / 2, (p.y + q.y) / 2)):
                for depth in range(1, 7):
                    r = assert_same_pruned(h, start, c, SearchConfig(depth), reference=depth <= 3)
                    outcomes.add(type(r))
        assert faces and outcomes == {Found, NotFoundWithinDepth}

    def test_family_lifts(self):
        for ell in range(4, 8):
            art = build_p_ell(ell)
            for d in (3, 5, 8):
                for start in (art.u, art.w):
                    lp, s, c = lift_instance(art.h, start, art.c0, d)
                    assert_distance(lp, s, c, ell)

    def test_random_lifts(self):
        rng = random.Random(1818)
        kinds = set()
        for _ in range(120):
            lp, s, c = _random_lift(rng)
            for depth in range(1, 6):
                r = assert_same_pruned(lp, s, c, SearchConfig(depth), reference=depth <= 2)
                if isinstance(r, Found):
                    kinds |= {step.kind for step in r.walk.steps[:-1]}
        assert kinds == {"base", "axis", "diff"}

    def test_lifts_off_the_simplex_optimum(self):
        # the lifted search, base search and simplex walk merged, against
        # bfs_walk over the lifted states: from u, with the simplex part at the
        # apex, at an edge midpoint and at the barycentre, under seeded weights.
        # bfs_walk equals the search at the length the search finds, and so
        # proves no walk one step shorter.  From the barycentre at d = 8
        # bfs_walk meets every face of the 6-simplex times the base states:
        # 3.4 s at level 5 and 44 s at level 6, so that start runs at d <= 5.
        rng = random.Random(2306)
        kinds = set()
        for ell in (5, 6):
            art = build_p_ell(ell)
            for d in (3, 5, 8):
                e = d - 2
                lp = product_with_simplex(art.h, d)
                corners = [tuple(rat(y) for y in v) for v in simplex_vertices(e)]
                y0, y1 = rng.sample(corners, 2)
                starts = [corners[0], tuple((a + b) / 2 for a, b in zip(y0, y1))]
                if d <= 5:
                    starts.append((rat(1, e + 1),) * e)
                for y in starts:
                    s = LiftedPoint(art.u, y)
                    c = LiftedCost(art.c0, tuple(rat(rng.randint(-3, 3)) for _ in range(e)))
                    found = shortest_monotone_walk(lp, s, c, SearchConfig(ell + e))
                    assert_distance(lp, s, c, found.walk.length)
                    kinds |= {step.kind for step in found.walk.steps}
        assert kinds == {"base", "axis", "diff"}

    def test_filter_prunes(self):
        # the unfiltered bfs_walk trips a cap that the filtered search stays under
        art = build_p_ell(8)
        cap = SearchConfig(8, node_cap=2000)
        assert isinstance(bfs_walk(art.h, art.u, art.c0, cap), NodeCapExceeded)
        assert shortest_monotone_walk(art.h, art.u, art.c0, cap) == bfs_walk(
            art.h, art.u, art.c0, SearchConfig(8))


def _discovered(h, rows, moves, starts, depth):
    """Every state a search from the starts discovers within depth moves, with
    the row its move ended on."""
    seen = {}
    frontier = [homogeneous(h.coordinates(s)) for s in starts]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for _, _, _, row, q in maximal_moves(rows, p, moves):
                if q is not None and q not in seen:
                    seen[q] = row
                    nxt.append(q)
        frontier = nxt
    return seen


def _assert_sound(h, c, starts, depth=4, most=3):
    """Every state discovered within depth moves of the starts that reaches the
    optimum within r <= most moves passes the search's test of the stored A_r.
    Returns the count of such states by distance."""
    inst = _prepare(h, c)
    moves = tuple((g, g.vector, blocking_rows(h.rows, g.vector))
                  for g in monotone_directions(enumerate_circuits(h), c))
    inst.back._size(most)
    member = {r: inst.back._lookup(r) for r in range(1, most + 1)}
    checked = [0] * (most + 1)
    for q, row in _discovered(h, h.rows, moves, starts, depth).items():
        found = bfs_walk(h, h.point(dehomogenize(q)), c, SearchConfig(most))
        if not isinstance(found, Found):
            continue
        dist = found.walk.length
        checked[dist] += 1
        for r in range(max(dist, 1), most + 1):
            assert member[r](q, row)
    return checked


# an interval (t_lo, D_lo, t_hi, D_hi) by its start t_lo/D_lo, with D > 0
_BY_START = functools.cmp_to_key(lambda e, f: e[0] * f[1] - f[0] * e[1])


def _merged_spans(rows, intervals):
    """Per row, the union of the closed intervals (row, lo, hi) as disjoint
    spans (t_lo, D_lo, t_hi, D_hi) sorted by start, merged from scratch: the
    reference for _Backward's merge of each layer into the spans before it."""
    ends = {}
    for row, lo, hi in intervals:
        a1, a2, _ = rows[row]
        ends.setdefault(row, []).append(
            (a1 * lo[1] - a2 * lo[0], lo[2], a1 * hi[1] - a2 * hi[0], hi[2]))
    spans = {}
    for row, row_ends in ends.items():
        merged = []
        for e in sorted(row_ends, key=_BY_START):
            last = merged[-1] if merged else None
            if last is None or e[0] * last[3] > last[2] * e[1]:
                merged.append(e)
            elif e[2] * last[3] > last[2] * e[3]:
                merged[-1] = last[:2] + e[2:]
        spans[row] = merged
    return spans


def _assert_layers(h, c, most):
    """Grows the backward sets of (h, c) one layer at a time up to layer most.
    Every interval new in layer r ends at stored points of layer r or an
    earlier one, and spans[r] is the from-scratch merge of every interval of
    the layers up to r.  Returns the count of intervals."""
    _prepare.cache_clear()
    back = _prepare(h, c).back
    intervals = []
    for r in range(most + 1):
        back._size(r)
        new = [(row, lo, hi) for row, pieces in back.fresh[1].items() for lo, hi in pieces]
        assert all(back.level.get(e, r + 1) <= r for _, lo, hi in new for e in (lo, hi))
        intervals += new
        assert back.spans[r] == _merged_spans(h.rows, intervals)
    _prepare.cache_clear()
    return len(intervals)


class TestBackwardSets:
    """A state that reaches the optimum within r moves is never filtered out,
    and the spans of each layer hold exactly the intervals stored."""

    def test_layers_on_random_hulls(self):
        rng = random.Random(3131)
        counts = []
        for _ in range(60):
            h = v_to_h(random_hull(rng, max_points=9, bound=30))
            counts.append(_assert_layers(h, _random_cost(rng, h), 6))
        assert min(counts) > 0

    def test_layers_on_family_levels(self):
        rng = random.Random(3232)
        for ell in range(2, 10):
            art = build_p_ell(ell)
            for c in (art.c0, _random_cost(rng, art.h)):
                assert _assert_layers(art.h, c, 5 if ell < 8 else 4)

    def test_layers_on_reductions(self):
        for a, S, C, most in (((2, 4), 5, 2, 5), ((2, 4), 5, 3, 5), ((2, 4), 5, 4, 4),
                              ((5, 8, 9), 16, 2, 5)):
            red = build_reduction(SubsetSumInstance(a=a, S=S, k=2), C)
            assert _assert_layers(red.h, red.c, most)

    def test_sound_on_random_hulls(self):
        rng = random.Random(4711)
        checked = [0, 0, 0, 0]
        for trial in range(60):
            if trial % 2:
                ring = random_hull(rng, max_points=8, bound=30)
            else:
                # points near a parabola: many vertices, so some states are 3 moves out
                xs = rng.sample(range(-20, 21), rng.randint(5, 12))
                ring = hull2d([Point2(rat(x), rat(x * x, rng.randint(1, 5))) for x in xs])
            h = v_to_h(ring)
            verts = h_to_v(h).vertices
            starts = verts + tuple(
                Point2((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in zip(verts, verts[1:]))
            counts = _assert_sound(h, _random_cost(rng, h), starts)
            checked = [a + b for a, b in zip(checked, counts)]
        assert all(checked)

    def test_vertices_of_intervals_are_points(self):
        # found by random search: without the vertices of its intervals as
        # points, the stored A_2 of this hull misses a state of A_2
        h = HPolygon((
            (-191, -5, 3864), (-209, -35, 1104), (-142, -25, 672), (-10, -5, 24),
            (-43, -45, 28), (1, -12, -5), (17, -4, 15), (24, -5, 27), (73, -4, 990),
            (46, 1, 1680), (-62, 13, 3360),
        ))
        assert _assert_sound(h, Direction2(1, -12), h_to_v(h).vertices, 3, 2)[2]


def _assert_row_skips(h, c, found):
    """On each state of found, a dict state -> the row its move ended on, the
    search's moves from q on row, chord_moves over table[row], are its moves
    over table[None] without exactly the moves that row blocks, and each of
    those has length zero.  Returns the count of skipped moves."""
    inst = _prepare(h, c)
    skipped = 0
    for q, row in found.items():
        a = h.rows[row][:2]
        every = list(chord_moves(q, inst.table[None]))
        blocked = [sum(map(mul, a, g.vector)) > 0 for g, *_ in every]
        assert list(chord_moves(q, inst.table[row])) == [
            mv for mv, b in zip(every, blocked) if not b]
        for (_, _, _, _, end), b in zip(every, blocked):
            if b:
                assert end is None
                skipped += 1
    return skipped


def _assert_same_moves(h, c, starts, depth):
    """chord_moves equals maximal_moves, label, slack, a.g, row and successor,
    along every monotone g and -g from every state discovered within depth
    moves of the starts, and the search skips the moves of _assert_row_skips.
    Returns the counts of states at a vertex inside a chain of one of the
    directions, of chains that wrap past row 0 and of skipped moves."""
    rows = h.rows
    gs = [g.vector for g in monotone_directions(enumerate_circuits(h), c)]
    gs += [(-g1, -g2) for g1, g2 in gs]
    chains = front_chains(h, gs)
    chords = tuple(zip(gs, gs, chains))
    blocking = tuple((g, g, blocking_rows(rows, g)) for g in gs)
    forward = blocking[:len(gs) // 2]
    found = _discovered(h, rows, forward, starts, depth)
    states = [homogeneous(h.coordinates(s)) for s in starts] + list(found)
    inner = 0
    for q in states:
        assert list(chord_moves(q, chords)) == list(maximal_moves(rows, q, blocking))
        x, y, D = q
        for (g1, g2), (L, values, _, _) in zip(gs, chains):
            phi, r = divmod((g1 * y - g2 * x) * L, D)
            inner += not r and phi in values[1:-1]
    wraps = sum(any(e[0] < d[0] for d, e in zip(edges, edges[1:])) for _, _, edges, _ in chains)
    return inner, wraps, _assert_row_skips(h, c, found)


class TestChordMoves:
    """The bisection kernel of the polygon search makes maximal_moves' moves."""

    def test_family_levels(self):
        for ell in range(5, 8):
            art = build_p_ell(ell)
            inner, _, skipped = _assert_same_moves(art.h, art.c0, (art.u, art.w), ell)
            assert inner and skipped

    def test_reduction_from_s_and_corner_anchors(self):
        for C in (2, 3):
            red = build_reduction(SubsetSumInstance(a=(2, 4), S=5, k=2), C)
            starts = (red.s, *corner_anchors(red.corner))
            assert _assert_same_moves(red.h, red.c, starts, 4)[0]

    def test_random_hulls(self):
        rng = random.Random(1616)
        inner = wraps = 0
        for _ in range(200):
            h = v_to_h(random_hull(rng, max_points=9, bound=30))
            verts = h_to_v(h).vertices
            i = rng.randrange(len(verts))
            p, q, r = verts[i], verts[i - 1], verts[i - 2]
            starts = (p, Point2((p.x + q.x) / 2, (p.y + q.y) / 2),
                      Point2((p.x + q.x + r.x) / 3, (p.y + q.y + r.y) / 3))
            counts = _assert_same_moves(h, _random_cost(rng, h), starts, 3)
            inner, wraps = inner + counts[0], wraps + counts[1]
        assert inner and wraps

    def test_validator_does_not_use_the_search_kernels(self, monkeypatch):
        art = build_p_ell(5)
        lp, s, c = lift_instance(art.h, art.u, art.c0, 5)
        cases = [(h, c, shortest_monotone_walk(h, s, c, SearchConfig(5)).walk)
                 for h, s, c in ((art.h, art.u, art.c0), (lp, s, c))]

        def refuse(*args, **kwargs):
            raise AssertionError("search kernel called")

        for module in (search, circuits):
            monkeypatch.setattr(module, "chord_moves", refuse)
        _prepare.cache_clear()
        try:
            for h, c, walk in cases:
                assert walk.length == 5 and is_valid_monotone_walk(h, c, walk)
        finally:
            _prepare.cache_clear()


def _perturbed(h, walk):
    """The walk with its middle step flipped, with the point after that step
    moved halfway back, and run backwards."""
    i = walk.length // 2
    steps = list(walk.steps)
    steps[i] = steps[i].flipped()
    points = list(walk.points)
    a, b = h.coordinates(points[i]), h.coordinates(points[i + 1])
    points[i + 1] = h.point(tuple([(x + y) / 2 for x, y in zip(a, b)]))
    back = Walk(walk.points[::-1], tuple([g.flipped() for g in walk.steps[::-1]]))
    return Walk(walk.points, tuple(steps)), Walk(tuple(points), walk.steps), back


class TestValidatorPreparesNothing:
    """The validator reads the polytope, the cost and the walk, and no search instance."""

    def test_family_reduction_and_lift_walks(self, monkeypatch):
        art = build_p_ell(5)
        red = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
        lp, s, c = lift_instance(art.h, art.u, art.c0, 5)
        cases = [
            (art.h, art.c0, shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(5)).walk),
            (red.h, red.c, reduction_witness_walk(red, (1, 1))),
            (lp, c, shortest_monotone_walk(lp, s, c, SearchConfig(5)).walk),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("the validator prepared a search instance")

        monkeypatch.setattr(search, "_prepare", refuse)
        monkeypatch.setattr(search, "_Backward", refuse)
        for h, c, walk in cases:
            assert is_valid_monotone_walk(h, c, walk)
            reports = [is_valid_monotone_walk(h, c, w) for w in _perturbed(h, walk)]
            assert [(r.ok, r.step, r.reason) for r in reports] == [
                (False, 2, "step is infeasible (zero length)"),
                (False, 2, "step is not the maximal circuit move"),
                (False, 0, "step does not strictly increase the cost"),
            ]


# -- one prepared instance per (polytope, cost) --------------------------------


def _symmetric_hull(rng):
    """A polygon whose edges come in parallel pairs: the hull of a few points
    and their reflections through a random centre."""
    while True:
        pts = [Point2(rat(rng.randint(-30, 30), rng.randint(1, 6)),
                      rat(rng.randint(-30, 30), rng.randint(1, 6)))
               for _ in range(rng.randint(2, 5))]
        cx, cy = rat(rng.randint(-9, 9), 2), rat(rng.randint(-9, 9), 3)
        try:
            return v_to_h(hull2d(pts + [Point2(cx - p.x, cy - p.y) for p in pts]))
        except DegenerateHull:
            continue


def _assert_chain_pairs(h, c):
    """The back chain _prepare hands _Backward for each monotone g, which
    _Backward.pulls holds under each row of g's front chain, is the front
    chain of -g, and _Backward.side is the set difference it replaced: the
    edges on neither chain of g, by front vertex.  Returns the number of side
    edges of each g."""
    _prepare.cache_clear()
    inst = _prepare(h, c)
    back, moves = inst.back, inst.table[None]
    fresh = HPolygon(h.rows)
    for i, (_, (g1, g2), front) in enumerate(moves):
        (pulled,) = front_chains(fresh, [(-g1, -g2)])
        held = sorted((row, pull) for row, pulls in back.pulls.items() for pull in pulls if pull[0] == i)
        assert held == [(e[0], (i, (-g1, -g2), pulled)) for e in sorted(front[2])]
    rows, t = h.rows, h_to_v(h).triples
    n = len(t)
    counts = []
    for i, (_, (g1, g2), front) in enumerate(moves):
        (pulled,) = front_chains(fresh, [(-g1, -g2)])
        side = {}
        for row in set(back.edge).difference([e[0] for e in front[2] + pulled[2]]):
            k = back.pos[row]
            a1, a2, _ = rows[row]
            side[t[k + 1 - n] if a1 * g2 - a2 * g1 > 0 else t[k]] = (row, t[k], t[k + 1 - n])
        assert back.side[i] == side
        counts.append(len(side))
    return counts


class TestChainPairs:
    """_prepare cuts each monotone g's front and back chain from one pass of phi_g."""

    def test_family_levels(self):
        rng = random.Random(2727)
        for ell in range(2, 11):
            art = build_p_ell(ell)
            for c in (art.c0, _random_cost(rng, art.h), _random_cost(rng, art.h)):
                assert set(_assert_chain_pairs(art.h, c)) <= {1, 2}

    def test_reductions(self):
        rng = random.Random(2828)
        for a, S in (((2, 4), 5), ((5, 8, 9), 16)):
            for C in (2, 3, 4):
                red = build_reduction(SubsetSumInstance(a=a, S=S, k=2), C)
                for c in (red.c, _random_cost(rng, red.h)):
                    _assert_chain_pairs(red.h, c)

    def test_hulls_with_parallel_edges(self):
        rng = random.Random(2929)
        counts = []
        for _ in range(120):
            h = _symmetric_hull(rng)
            for c in (_random_cost(rng, h), _random_cost(rng, h)):
                counts += _assert_chain_pairs(h, c)
        # every circuit is an edge direction, parallel here to a pair of edges
        assert set(counts) == {2}


def _cold(h, s, c, cfg):
    _prepare.cache_clear()
    return shortest_monotone_walk(h, s, c, cfg)


def _assert_history_free(groups, seed, orders=4):
    """Each call of each group, a list of (h, s, c, cfg) on one (polytope,
    cost) value, returns its cold result: in shuffled orders within each group,
    so the prepared instance and its grown layers carry over, and with all
    calls shuffled together.  Returns the cold results."""
    cold = [[_cold(*call) for call in group] for group in groups]
    rng = random.Random(seed)
    for _ in range(orders):
        for group, want in zip(groups, cold):
            for i in rng.sample(range(len(group)), len(group)):
                assert shortest_monotone_walk(*group[i]) == want[i]
    mixed = [(call, r) for group, want in zip(groups, cold) for call, r in zip(group, want)]
    for call, want in rng.sample(mixed, len(mixed)):
        assert shortest_monotone_walk(*call) == want
    return [r for want in cold for r in want]


class TestPreparedInstance:
    """Searches on one (polytope, cost) value share its prepared instance, and
    no result, capped or not, depends on the calls made before it."""

    def test_family_levels(self):
        groups = []
        for ell in range(4, 8):
            art = build_p_ell(ell)
            hs = (art.h, HPolygon(art.h.rows))  # equal, but another object
            groups.append([
                (hs[depth % 2], start, art.c0, SearchConfig(depth, cap))
                for start in (art.u, art.w)
                for depth in range(ell + 1)
                for cap in (5, 30, 200, 10**7)
            ])
        results = _assert_history_free(groups, seed=14)
        assert {type(r) for r in results} == {Found, NotFoundWithinDepth, NodeCapExceeded}

    def test_random_hulls(self):
        rng = random.Random(1414)
        groups = []
        for _ in range(12):
            h = v_to_h(random_hull(rng, max_points=9, bound=30))
            verts = h_to_v(h).vertices
            starts = verts + tuple(
                Point2((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in zip(verts, verts[1:]))
            c = _random_cost(rng, h)
            groups.append([
                (rng.choice((h, HPolygon(h.rows))), start, c, SearchConfig(depth, cap))
                for start in rng.sample(starts, 3)
                for depth in range(1, 6)
                for cap in (3, 20, 10**7)
            ])
        results = _assert_history_free(groups, seed=1415)
        assert {type(r) for r in results} == {Found, NotFoundWithinDepth, NodeCapExceeded}

    def test_lifts_made_per_start(self):
        # lift_instance builds an equal lift for each start, as the benchmark's lift task does
        art = build_p_ell(5)
        group = []
        for start in (art.u, art.w):
            lp, s, c = lift_instance(art.h, start, art.c0, 4)
            group += [(lp, s, c, SearchConfig(depth, cap))
                      for depth in (4, 5) for cap in (20, 10**7)]
        results = _assert_history_free([group], seed=1416)
        assert {type(r) for r in results} == {Found, NotFoundWithinDepth, NodeCapExceeded}

    def test_lift_task_prepares_its_base_once(self, monkeypatch):
        # the benchmark's lift task: a find, a validation on the lift's rows
        # and a proof from each start prepare the base polygon's instance
        # (one set of backward sets each) once, so the validation must not evict it
        calls = []
        backward = search._Backward
        monkeypatch.setattr(search, "_Backward",
                            lambda *args: calls.append(args) or backward(*args))
        art = build_p_ell(5)
        _prepare.cache_clear()
        for start in (art.u, art.w):
            lp, s, c = lift_instance(art.h, start, art.c0, 5)
            walk = shortest_monotone_walk(lp, s, c, SearchConfig(5)).walk
            assert walk.length == 5 and is_valid_monotone_walk(lp, c, walk)
            assert shortest_monotone_walk(lp, s, c, SearchConfig(4)) == NotFoundWithinDepth(4)
        assert len(calls) == 1 and calls[0][0] is art.h

    def test_no_reference_cycles(self):
        # an evicted instance is freed at once, not left to the cyclic collector
        art = build_p_ell(6)
        walk = _cold(art.h, art.u, art.c0, SearchConfig(6)).walk
        assert is_valid_monotone_walk(art.h, art.c0, walk)
        shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(5))
        gc.disable()
        try:
            back = _prepare(art.h, art.c0).back
            assert len(back.spans) > 1  # the search grew layers and merged their spans
            back = weakref.ref(back)
            _prepare.cache_clear()
            assert back() is None
        finally:
            gc.enable()

    def test_chain_frame_is_computed_once(self, monkeypatch):
        # the back chains reuse the front chains' per-polygon part, and equal
        # the chains of a polygon that computes it afresh; the frame's one lcm
        # counts the frames built
        calls = []
        lcm = circuits.lcm
        monkeypatch.setattr(circuits, "lcm", lambda *w: calls.append(w) or lcm(*w))
        for ell in (5, 8):
            art = build_p_ell(ell)
            h = HPolygon(art.h.rows)
            _prepare.cache_clear()
            calls.clear()
            assert shortest_monotone_walk(h, art.u, art.c0, SearchConfig(ell - 1)) == \
                NotFoundWithinDepth(ell - 1)
            inst = _prepare(h, art.c0)
            back, moves = inst.back, inst.table[None]
            assert len(back.sizes) > 1 and len(calls) == 1
            fresh = HPolygon(h.rows)
            gs = [g for _, g, _ in moves]
            assert [chain for _, _, chain in moves] == front_chains(fresh, gs)
            for i, (_, (g1, g2), _) in enumerate(moves):
                (pulled,) = front_chains(fresh, [(-g1, -g2)])
                assert all(chain == pulled for row in back.pulls.values()
                           for j, _, chain in row if j == i)

    def test_read_polygon_frame_makes_no_meet(self, monkeypatch):
        # a read polygon's vertex polygon keeps the check's rows as its edge rows,
        # so the frame computes none of them from the vertices
        calls = []
        meet = polytope._meet
        for v in (build_p_ell(8).v, build_reduction(SubsetSumInstance(a=(5, 8, 9), S=16, k=2), 4).v):
            rows = v_to_h(v).rows[::-1]
            text = write_instance(InstanceFile(polygon=HPolygon(rows), cost=Direction2(1, 0),
                                               start=v.vertices[0]))
            h = read_instance(text).polygon
            monkeypatch.setattr(polytope, "_meet", lambda u, w: calls.append(u) or meet(u, w))
            frame = circuits._chain_frame(h)
            monkeypatch.undo()
            assert not calls and h_to_v(h).edges == v.edges
            assert frame == circuits._chain_frame(polytope._hpolygon_of_cycle(v, rows))

    def test_circuits_are_computed_once(self, monkeypatch):
        # build_reduction's circuit census and the search's setup share one
        # enumeration per polygon
        calls = []
        direction = circuits.primitive_direction
        monkeypatch.setattr(circuits, "primitive_direction",
                            lambda *v: calls.append(v) or direction(*v))
        _prepare.cache_clear()
        red = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
        assert len(calls) == red.h.m
        assert isinstance(shortest_monotone_walk(red.h, red.s, red.c, SearchConfig(4)), Found)
        assert len(calls) == red.h.m
        assert enumerate_circuits(red.h) is enumerate_circuits(red.h)

    def test_cost_is_part_of_the_key(self):
        art = build_p_ell(6)
        other = Direction2(art.c0.dx, art.c0.dy + 1)
        walk = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(6)).walk
        for _ in range(2):
            assert is_valid_monotone_walk(art.h, art.c0, walk)
            report = is_valid_monotone_walk(art.h, art.c0.flipped(), walk)
            assert not report and report.step == 0 and "increase" in report.reason
        calls = [(art.h, start, c, SearchConfig(depth, cap))
                 for c in (art.c0, other, art.c0.flipped())
                 for start in (art.u, art.w)
                 for depth in (5, 6) for cap in (50, 10**7)]
        cold = [_cold(*call) for call in calls]
        assert len(set(cold)) > 4
        assert [shortest_monotone_walk(*call) for call in calls] == cold
