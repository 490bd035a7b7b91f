import itertools
import random
from math import gcd

import pytest

from circuitwalks.circuits import (
    AmbiguousOptimum,
    LiftedCircuit,
    LiftedCost,
    NotACircuit,
    NotAVertex,
    Walk,
    _is_circuit,
    _optimum,
    enumerate_circuits,
    enumerate_lifted_circuits,
    lifted_max_step,
    lifted_move,
    lifted_optimal_value,
    max_step,
    maximal_step,
    monotone_directions,
    monotone_edge_walk,
    monotone_lifted_directions,
    optimal_value,
)
from circuitwalks.constructions import SubsetSumInstance, build_p_ell, build_reduction, lift_instance
from circuitwalks.polytope import LiftedPoint, VPolygon, h_to_v, product_with_simplex, v_to_h
from circuitwalks.search import SearchConfig, is_valid_monotone_walk, shortest_monotone_walk
from circuitwalks.ratgeo import Direction2, Point2, homogeneous, primitive_direction, rat

from conftest import (
    corner_anchors,
    random_hpolygon,
    random_hull,
    reference_edge_walk,
    reference_lifted_circuits,
    reference_monotone_lifted,
)


def P(x, y):
    return Point2(rat(x), rat(y))


TRIANGLE = v_to_h(VPolygon.of_points((P(0, -1), P(1, 0), P(0, 1))))
UNIT_SQUARE = v_to_h(VPolygon.of_points((P(0, 0), P(1, 0), P(1, 1), P(0, 1))))


class TestEnumerate:
    def test_triangle(self):
        assert set(enumerate_circuits(TRIANGLE)) == {
            Direction2(0, 1),
            Direction2(1, 1),
            Direction2(1, -1),
        }

    def test_level_two_family(self):
        art = build_p_ell(2)
        assert set(enumerate_circuits(art.h)) == {
            Direction2(0, 1),
            Direction2(1, 4),
            Direction2(1, -4),
            Direction2(2, 1),
            Direction2(2, -1),
        }

    def test_circuit_set_sorted_and_canonical(self):
        cs = enumerate_circuits(TRIANGLE)
        assert isinstance(cs, tuple)
        assert list(cs) == sorted(set(cs))
        assert all(g == g.canonical() for g in cs)
        assert cs == (Direction2(0, 1), Direction2(1, -1), Direction2(1, 1))


class TestMaxStep:
    ROWS = TRIANGLE.rows

    def test_interior_step_hits_far_edge(self):
        assert max_step(TRIANGLE, P(0, -1), Direction2(1, 1)) == 1
        assert maximal_step(self.ROWS, (rat(0), rat(-1)), (1, 1)) == (1, (rat(1), rat(0)))

    def test_zero_at_tight_row(self):
        assert max_step(TRIANGLE, P(1, 0), Direction2(1, 1)) == 0

    def test_zero_length_step_has_no_end(self):
        assert maximal_step(self.ROWS, (rat(1), rat(0)), (1, 1)) == (0, None)

    def test_max_step_requires_circuit(self):
        with pytest.raises(NotACircuit):
            max_step(TRIANGLE, P(0, -1), Direction2(1, 2))

    def test_move_from_wall_midpoint(self):
        lam, end = maximal_step(self.ROWS, (rat(0), rat(0)), (1, 1))
        assert lam == rat(1, 2) and end == (rat(1, 2), rat(1, 2))


class TestMonotoneDirections:
    def test_flips_descending_directions(self):
        dirs = monotone_directions(enumerate_circuits(TRIANGLE), Direction2(1, 0))
        assert dirs == (Direction2(1, -1), Direction2(1, 1))

    def test_accepts_plain_pair(self):
        assert monotone_directions(enumerate_circuits(TRIANGLE), (1, 0)) == (
            Direction2(1, -1),
            Direction2(1, 1),
        )

    def test_perpendicular_dropped(self):
        dirs = monotone_directions(enumerate_circuits(UNIT_SQUARE), (0, 1))
        assert dirs == (Direction2(0, 1),)


class TestOptimalValue:
    def test_unique_maximizer(self):
        best, argmax = optimal_value(TRIANGLE, Direction2(1, 0))
        assert best == 1 and argmax == (P(1, 0),)

    def test_tie_reports_both(self):
        best, argmax = optimal_value(UNIT_SQUARE, Direction2(0, 1))
        assert best == 1 and set(argmax) == {P(1, 1), P(0, 1)}

    def test_matches_rational_values(self):
        # the cost's rational value at every vertex, in boundary order
        rng = random.Random(2024)
        ties = 0
        for _ in range(300):
            h = random_hpolygon(rng, max_points=10, bound=40)
            a1, a2, _ = rng.choice(h.rows)
            c = rng.choice([primitive_direction(a1, a2), Direction2(1, 0),
                            primitive_direction(rng.randint(-5, 5) or 1, rng.randint(-5, 5))])
            verts = h_to_v(h).vertices
            vals = [c.dx * v.x + c.dy * v.y for v in verts]
            best, argmax = optimal_value(h, c)
            assert type(best) is rat and best == max(vals)
            assert argmax == tuple(v for v, val in zip(verts, vals) if val == best)
            (num, den), ends = _optimum(h, c)
            assert ends == tuple(homogeneous((v.x, v.y)) for v in argmax)
            assert rat(num, den) == best
            ties += len(argmax) > 1
        assert ties


class TestEdgeWalk:
    def test_level_two_boundary_path(self):
        art = build_p_ell(2)
        walk = monotone_edge_walk(art.h, art.u, art.c0)
        assert walk.points == (P(0, 1), Point2(rat(1), rat(1, 2)), Point2(rat(9, 8), rat(0)))

    def test_starts_elsewhere(self):
        walk = monotone_edge_walk(TRIANGLE, P(0, -1), Direction2(1, 0))
        assert walk.end == P(1, 0) and walk.length == 1

    def test_at_optimum_is_trivial(self):
        walk = monotone_edge_walk(TRIANGLE, P(1, 0), Direction2(1, 0))
        assert walk.length == 0

    def test_ambiguous_optimum_rejected(self):
        with pytest.raises(AmbiguousOptimum):
            monotone_edge_walk(UNIT_SQUARE, P(0, 0), Direction2(0, 1))

    def test_interior_start_rejected(self):
        with pytest.raises(NotAVertex):
            monotone_edge_walk(TRIANGLE, P(0, 0), Direction2(1, 0))

    def test_tie_at_start_takes_smaller_step(self):
        diamond = v_to_h(VPolygon.of_points((P(-1, 0), P(0, -1), P(1, 0), P(0, 1))))
        walk = monotone_edge_walk(diamond, P(0, -1), Direction2(0, 1))
        assert walk.steps == (Direction2(-1, 1), Direction2(1, 1))
        assert walk == reference_edge_walk(diamond, P(0, -1), Direction2(0, 1))


def _outcome(walk, h, s, c):
    """walk(h, s, c), or the exception's type and message."""
    try:
        return walk(h, s, c)
    except ValueError as exc:
        return type(exc), str(exc)


class TestEdgeWalkMatchesGreedy:
    """The walk along the vertex cycle is the greedy walk, error for error."""

    def test_random_polygons_every_vertex(self):
        rng = random.Random(0xED6E)
        kinds = {"walk": 0, AmbiguousOptimum: 0, NotAVertex: 0}
        ties = 0  # walks whose start has two neighbours of equal positive gain
        for trial in range(1000):
            # small coordinates give axis-parallel edges, so axis costs hit optimal edges
            h = random_hpolygon(rng, max_points=10, bound=3 if trial % 2 else 60)
            a1, a2, _ = rng.choice(h.rows)
            costs = (Direction2(1, 0), Direction2(0, -1), primitive_direction(a1, a2),
                     primitive_direction(rng.randint(-3, 3), rng.randint(1, 3)))
            verts = h_to_v(h).vertices
            mid = Point2((verts[0].x + verts[1].x) / 2, (verts[0].y + verts[1].y) / 2)
            for c in costs:
                for s in verts + (mid,):
                    got = _outcome(monotone_edge_walk, h, s, c)
                    assert got == _outcome(reference_edge_walk, h, s, c), (h.rows, s, c)
                    kinds["walk" if isinstance(got, Walk) else got[0]] += 1
                    if isinstance(got, Walk):
                        i = verts.index(s)
                        gains = {c.dx * (q.x - s.x) + c.dy * (q.y - s.y)
                                 for q in (verts[i - 1], verts[(i + 1) % len(verts)])}
                        ties += len(gains) == 1 and min(gains) > 0
        assert min(kinds.values()) > 1000, kinds
        assert ties > 50, ties

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_family_from_u_and_w(self, ell):
        art = build_p_ell(ell)
        for s in (art.u, art.w):
            walk = monotone_edge_walk(art.h, s, art.c0)
            assert walk == reference_edge_walk(art.h, s, art.c0)
            assert walk.end == art.t

    @pytest.mark.parametrize("C", [2, 3, 4])
    def test_reduction_from_s_and_the_corner_anchors(self, C):
        # C*k = 4, 6, 8: vertex denominators of 44, 64 and 86 bits
        red = build_reduction(SubsetSumInstance(a=(2, 4), S=5, k=2), C)
        for s in (red.s, *corner_anchors(red.corner)):
            walk = monotone_edge_walk(red.h, s, red.c)
            assert walk == reference_edge_walk(red.h, s, red.c)
            assert walk.end == red.t


class TestLiftedCircuits:
    def test_count_prism(self):
        lp = product_with_simplex(TRIANGLE, 3)
        circs = enumerate_lifted_circuits(lp)
        assert len(circs) == 4
        assert sum(1 for c in circs if c.kind == "axis") == 1

    def test_count_dim_4(self):
        lp = product_with_simplex(TRIANGLE, 4)
        circs = enumerate_lifted_circuits(lp)
        kinds = [c.kind for c in circs]
        assert kinds.count("base") == 3 and kinds.count("axis") == 2 and kinds.count("diff") == 1

    def test_axis_step_bounded_by_simplex(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, 0), (rat(0), rat(0)))
        up = LiftedCircuit((0, 0, 1, 0))
        assert lifted_max_step(lp, p, up) == 1
        assert lifted_move(lp, p, up).simplex == (rat(1), rat(0))

    def test_axis_down_blocked_at_floor(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, 0), (rat(0), rat(0)))
        down = LiftedCircuit((0, 0, -1, 0))
        assert lifted_move(lp, p, down) is None

    def test_diff_transfers_between_coords(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, 0), (rat(0), rat(1, 2)))
        move = LiftedCircuit((0, 0, 1, -1))
        assert lifted_max_step(lp, p, move) == rat(1, 2)
        assert lifted_move(lp, p, move).simplex == (rat(1, 2), rat(0))

    def test_base_kind_wraps_planar_circuit(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, -1), (rat(0), rat(0)))
        step = LiftedCircuit((1, 1, 0, 0))
        q = lifted_move(lp, p, step)
        assert q.base == P(1, 0) and q.simplex == p.simplex

    def test_foreign_direction_rejected(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, -1), (rat(0), rat(0)))
        with pytest.raises(NotACircuit):
            lifted_max_step(lp, p, LiftedCircuit((1, 2, 0, 0)))
        with pytest.raises(NotACircuit):
            lifted_max_step(lp, p, LiftedCircuit((0, 0, 0, 0, 0, 0, 0, 1)))

    def test_monotone_selection_uses_simplex_costs(self):
        lp = product_with_simplex(TRIANGLE, 3)
        cost = LiftedCost(base=Direction2(1, 0), simplex=(rat(1),))
        dirs = monotone_lifted_directions(enumerate_lifted_circuits(lp), cost)
        vecs = [c.vector for c in dirs]
        assert all(
            sum(v * c for v, c in zip(vec, (rat(1), rat(0), rat(1)))) > 0 for vec in vecs
        )

    def test_lifted_optimum(self):
        lp = product_with_simplex(TRIANGLE, 3)
        cost = LiftedCost(base=Direction2(1, 0), simplex=(rat(1),))
        best, argmax = lifted_optimal_value(lp, cost)
        assert best == 2 and len(argmax) == 1
        assert argmax[0].base == P(1, 0) and argmax[0].simplex == (rat(1),)


WEIGHTS = [rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 3), rat(1), rat(3, 2)]


class TestLiftedCircuitVectors:
    """Integer-vector circuits against the kind-based reference, vector for vector."""

    def assert_matches_reference(self, lp, costs):
        e = lp.extra_dims
        got = enumerate_lifted_circuits(lp)
        want = reference_lifted_circuits(lp, enumerate_circuits(lp.base))
        assert [c.vector for c in got] == [r.vector(e) for r in want]
        for circ, ref in zip(got, want):
            for c, r in ((circ, ref), (circ.flipped(), ref.flipped())):
                assert len(c.vector) == lp.dim
                assert (c.kind, c.g) == (r.kind, r.g)
                assert c.canonical().vector == r.canonical().vector(e)
                assert c.flipped().vector == r.flipped().vector(e)
            assert circ.canonical() == circ and circ.flipped().canonical() == circ
        for cost in costs:
            assert [c.vector for c in monotone_lifted_directions(got, cost)] == [
                r.vector(e) for r in reference_monotone_lifted(want, cost, e)
            ]

    def test_family_lifts(self):
        rng = random.Random(10)
        for ell in range(1, 6):
            art = build_p_ell(ell)
            for d in range(2, 9):
                lp, _, top = lift_instance(art.h, art.u, art.c0, d)
                costs = [top] + [
                    LiftedCost(art.c0, tuple(rng.choice(WEIGHTS) for _ in range(d - 2)))
                    for _ in range(3)
                ]
                self.assert_matches_reference(lp, costs)

    def test_random_hull_lifts(self):
        rng = random.Random(1010)
        for _ in range(200):
            h = v_to_h(random_hull(rng, max_points=8, bound=30))
            for d in range(2, 9):
                cost = LiftedCost(
                    primitive_direction(rng.choice([1, 2, -1]), rng.choice([-1, 0, 1, 3])),
                    tuple(rng.choice(WEIGHTS) for _ in range(d - 2)),
                )
                self.assert_matches_reference(product_with_simplex(h, d), [cost])

    def test_rejects_zero_and_non_primitive_vectors(self):
        for vector in ((0, 0), (0, 0, 0, 0), (2, 0, 0), (0, 0, 2, -2), (3, 6, 0, 9)):
            with pytest.raises(ValueError):
                LiftedCircuit(vector)

    def test_sorted_like_vectors(self):
        circs = [LiftedCircuit(v) for v in ((0, 1, 0), (1, -1, 0), (0, 0, -1), (0, 0, 1))]
        assert [c.vector for c in sorted(circs)] == sorted(c.vector for c in circs)


def _primitive_vectors(n):
    """Every primitive integer vector of length n with entries in [-2, 2]."""
    return [v for v in itertools.product(range(-2, 3), repeat=n) if gcd(*v) == 1]


def _circuit_test_polygons():
    red = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
    return [build_p_ell(ell).h for ell in (2, 3, 4)] + [red.h]


class TestCircuitTest:
    """_is_circuit decides on the rows what membership in the enumerated
    circuits decides, for steps of either type and any length."""

    def test_polygons(self):
        for h in _circuit_test_polygons():
            circuits = enumerate_circuits(h)
            # the small vectors, and every circuit of h with both signs
            vectors = set(_primitive_vectors(2)) | {v for g in circuits
                                                    for v in (g.vector, g.flipped().vector)}
            hits = 0
            for v in sorted(vectors):
                g = Direction2(*v)
                assert _is_circuit(h, g) == (g.canonical() in circuits)
                hits += _is_circuit(h, g)
                # a lifted circuit is never one of a polygon's, whatever its length
                assert not _is_circuit(h, LiftedCircuit(v))
            assert hits == 2 * len(circuits)
            for n in (1, 3, 4):
                assert not any(_is_circuit(h, LiftedCircuit(v)) for v in _primitive_vectors(n))

    def test_lifts(self):
        for h in _circuit_test_polygons():
            base = [g.vector for g in enumerate_circuits(h)]
            for d in (3, 4, 5):
                lp = product_with_simplex(h, d)
                circuits = enumerate_lifted_circuits(lp)
                kinds = {"base": 0, "axis": 0, "diff": 0}
                for n in range(2, d + 2):
                    # the small vectors, and the base circuits padded with zeros,
                    # with a one or with a one and a minus one
                    vectors = set(_primitive_vectors(n))
                    for g in base:
                        for y in itertools.product((-1, 0, 1), repeat=n - 2):
                            vectors.update([g + y, tuple([-v for v in g + y])])
                    for v in sorted(vectors):
                        g = LiftedCircuit(v)
                        assert _is_circuit(lp, g) == (g.canonical() in circuits), v
                        if _is_circuit(lp, g):
                            assert n == d
                            kinds[g.kind] += 1
                    for v in _primitive_vectors(2):
                        assert not _is_circuit(lp, Direction2(*v))
                # both signs of each circuit
                e = d - 2
                assert kinds == {"base": 2 * len(base), "axis": 2 * e, "diff": e * (e - 1)}

    def test_validator_reports_steps_of_the_wrong_type_or_length(self):
        art = build_p_ell(4)
        lp, s, c = lift_instance(art.h, art.u, art.c0, 4)
        planar = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(4)).walk
        lifted = shortest_monotone_walk(lp, s, c, SearchConfig(4)).walk
        wrong = "step is not a circuit direction"
        for i, g in enumerate(planar.steps):
            steps = list(planar.steps)
            steps[i] = LiftedCircuit(g.vector)
            report = is_valid_monotone_walk(art.h, art.c0, Walk(planar.points, tuple(steps)))
            assert (report.ok, report.step, report.reason) == (False, i, wrong)
        for i, g in enumerate(lifted.steps):
            for step in (g.g, LiftedCircuit(g.vector + (0,)), LiftedCircuit(g.vector[:-1])):
                steps = list(lifted.steps)
                steps[i] = step
                report = is_valid_monotone_walk(lp, c, Walk(lifted.points, tuple(steps)))
                assert (report.ok, report.step, report.reason) == (False, i, wrong)
            # a point with one simplex coordinate too many or too few
            p = lifted.points[i + 1]
            for simplex in (p.simplex + (rat(0),), p.simplex[:-1]):
                points = list(lifted.points)
                points[i + 1] = LiftedPoint(p.base, simplex)
                report = is_valid_monotone_walk(lp, c, Walk(tuple(points), lifted.steps))
                assert (report.ok, report.step, report.reason) == (
                    False, i, "step is not the maximal circuit move")
