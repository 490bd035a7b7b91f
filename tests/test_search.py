import random

import pytest

from circuitwalks.circuits import (
    LiftedCircuit,
    LiftedCost,
    enumerate_circuits,
    enumerate_lifted_circuits,
    lifted_optimal_value,
    max_step,
    monotone_directions,
    monotone_lifted_directions,
    optimal_value,
)
from circuitwalks.constructions import (
    SubsetSumInstance,
    build_p_ell,
    build_reduction,
    lift_instance,
)
from circuitwalks.polytope import (
    BadDimension,
    LiftedPoint,
    LiftedPolytope,
    h_to_v,
    product_with_simplex,
    simplex_vertices,
    v_to_h,
)
from circuitwalks.ratgeo import AffineMap2, Direction2, Point2, primitive_direction, rat
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

from conftest import random_hull, reference_lifted_optimal_value


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
        up, shift = LiftedCircuit("axis", i=0), LiftedCircuit("diff", i=1, j=0)
        walk = shortest_monotone_walk(self.lp, self.at(0, 1), self.c, SearchConfig(2)).walk
        report = self.check(
            (self.at(0, 0), self.at(1, 0), self.at(0, 1)) + walk.points[1:],
            (up, shift) + walk.steps,
        )
        assert report and report.reason is None
        assert {step.kind for step in walk.steps} == {"base"}

    def test_rejects_non_circuit_steps(self):
        for step in (LiftedCircuit("axis", i=2), LiftedCircuit("base", g=Direction2(1, 2))):
            report = self.check((self.at(0, 0), self.at(1, 0)), (step,))
            assert not report and report.step == 0 and "circuit" in report.reason

    def test_rejects_short_step(self):
        report = self.check((self.at(0, 0), self.at(rat(1, 2), 0)), (LiftedCircuit("axis", i=0),))
        assert not report and report.step == 0 and "maximal" in report.reason

    def test_rejects_zero_length_step(self):
        up = LiftedCircuit("axis", i=0)
        report = self.check((self.at(0, 0), self.at(1, 0), self.at(1, 0)), (up, up))
        assert not report and report.step == 1 and "zero length" in report.reason

    def test_rejects_non_increasing_step(self):
        down = LiftedCircuit("axis", i=0, sign=-1)
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
    """Plain rational min-ratio over the rows (a, b) that block the vector g."""
    return min((b - _dot(a, x)) / rat(_dot(a, g)) for a, b in rows if _dot(a, g) > 0)


def _planar_rows(h):
    return [((a1, a2), b) for a1, a2, b in h.rows]


def _rational_problem(h, c):
    """Rows, monotone (label, vector) pairs, cost vector, optimum and the
    point <-> coordinates maps of a polygon or a lift, in rational terms."""
    if isinstance(h, LiftedPolytope):
        e = h.extra_dims
        dirs = monotone_lifted_directions(enumerate_lifted_circuits(h), c, e)
        return (
            h.inequality_rows(),
            [(g, g.vector(e)) for g in dirs],
            (c.base.dx, c.base.dy) + tuple(c.simplex),
            reference_lifted_optimal_value(h, c)[0],
            lambda p: (p.base.x, p.base.y) + tuple(p.simplex),
            lambda x: LiftedPoint(Point2(x[0], x[1]), x[2:]),
        )
    dirs = monotone_directions(enumerate_circuits(h), c)
    return (
        _planar_rows(h),
        [(g, (g.dx, g.dy)) for g in dirs],
        (c.dx, c.dy),
        optimal_value(h, c)[0],
        lambda p: (p.x, p.y),
        lambda x: Point2(*x),
    )


def reference_walk(h, s, c, cfg):
    """Breadth-first search over exact rational points, one rational min-ratio
    per move: the reference the integer search must reproduce exactly.  h is
    a polygon or a lift; lifted rows come from inequality_rows() and lifted
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


LIFT_WEIGHTS = [rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 3), rat(1), rat(3, 2), rat(2)]


def assert_same_search(h, s, c, cfg):
    got = shortest_monotone_walk(h, s, c, cfg)
    want = reference_walk(h, s, c, cfg)
    assert got == want
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
            for start in (red.s, red.corner.u_image, red.corner.w_image):
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
            h = v_to_h(random_hull(rng, max_points=6, bound=20))
            d = rng.randint(2, 5)
            lp = product_with_simplex(h, d)
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
            cap = rng.choice([2, 5, 20]) if trial % 5 == 0 else 3000
            depth = rng.randint(0, 4)
            r = assert_same_search(lp, LiftedPoint(base, simplex), c, SearchConfig(depth, node_cap=cap))
            outcomes.add(type(r))
            if isinstance(r, Found):
                kinds |= {step.kind for step in r.walk.steps}
        assert outcomes == {Found, NotFoundWithinDepth, NodeCapExceeded}
        assert kinds == {"base", "axis", "diff"}


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


class TestLastLayer:
    """The last layer is checked by cross product only when the optimum is a
    unique vertex and expanding the layer could not trip the node cap."""

    def test_node_cap_around_the_guard(self):
        tripped = set()
        for ell in (3, 4):
            art = build_p_ell(ell)
            moves = len(monotone_directions(enumerate_circuits(art.h), art.c0))
            for start in (art.u, art.w):
                for depth in (ell - 1, ell):
                    before, frontier, after = _last_layer(art.h, start, art.c0, depth)
                    guard = before + frontier * moves
                    for cap in (before, after - 1, guard - 1, guard, guard + 1):
                        r = assert_same_search(art.h, start, art.c0, SearchConfig(depth, cap))
                        if isinstance(r, NodeCapExceeded):
                            tripped.add(r.completed_depth == depth - 1)
        assert tripped == {True}

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
                        want = _rational_step(_planar_rows(h), (p.x, p.y), (d.dx, d.dy))
                        assert max_step(h, p, d) == want
                        zero += want == 0
        assert zero > 0
