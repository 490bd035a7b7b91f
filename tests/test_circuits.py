import pytest

from circuitwalks.circuits import (
    AmbiguousOptimum,
    CircuitSet,
    LiftedCircuit,
    LiftedCost,
    NotACircuit,
    NotAVertex,
    circuit_move,
    enumerate_circuits,
    enumerate_lifted_circuits,
    lifted_max_step,
    lifted_move,
    lifted_optimal_value,
    max_step,
    monotone_directions,
    monotone_edge_walk,
    monotone_lifted_directions,
    optimal_value,
)
from circuitwalks.constructions import build_p_ell
from circuitwalks.polytope import LiftedPoint, VPolygon, product_with_simplex, v_to_h
from circuitwalks.ratgeo import Direction2, Point2, rat


def P(x, y):
    return Point2(rat(x), rat(y))


TRIANGLE = v_to_h(VPolygon((P(0, -1), P(1, 0), P(0, 1))))
UNIT_SQUARE = v_to_h(VPolygon((P(0, 0), P(1, 0), P(1, 1), P(0, 1))))


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
        assert isinstance(cs, CircuitSet)
        assert list(cs) == sorted(cs)
        # sign never matters for membership
        assert Direction2(0, -1) in cs
        assert Direction2(-1, -1) in cs
        assert Direction2(1, 2) not in cs


class TestMaxStep:
    def test_interior_step_hits_far_edge(self):
        assert max_step(TRIANGLE, P(0, -1), Direction2(1, 1)) == 1
        assert circuit_move(TRIANGLE, P(0, -1), Direction2(1, 1)) == P(1, 0)

    def test_zero_at_tight_row(self):
        assert max_step(TRIANGLE, P(1, 0), Direction2(1, 1)) == 0

    def test_circuit_move_infeasible_sentinel(self):
        out = circuit_move(TRIANGLE, P(1, 0), Direction2(1, 1))
        assert out is None
        assert not out

    def test_circuit_move_requires_circuit(self):
        with pytest.raises(NotACircuit):
            circuit_move(TRIANGLE, P(0, -1), Direction2(1, 2))

    def test_move_from_wall_midpoint(self):
        assert circuit_move(TRIANGLE, P(0, 0), Direction2(1, 1)) == P(rat(1, 2), rat(1, 2))


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
        up = LiftedCircuit(kind="axis", g=None, i=0)
        assert lifted_max_step(lp, p, up) == 1
        assert lifted_move(lp, p, up).simplex == (rat(1), rat(0))

    def test_axis_down_blocked_at_floor(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, 0), (rat(0), rat(0)))
        down = LiftedCircuit(kind="axis", g=None, i=0, sign=-1)
        assert lifted_move(lp, p, down) is None

    def test_diff_transfers_between_coords(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, 0), (rat(0), rat(1, 2)))
        move = LiftedCircuit(kind="diff", g=None, i=0, j=1)
        assert lifted_max_step(lp, p, move) == rat(1, 2)
        assert lifted_move(lp, p, move).simplex == (rat(1, 2), rat(0))

    def test_base_kind_wraps_planar_circuit(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, -1), (rat(0), rat(0)))
        step = LiftedCircuit(kind="base", g=Direction2(1, 1))
        q = lifted_move(lp, p, step)
        assert q.base == P(1, 0) and q.simplex == p.simplex

    def test_foreign_direction_rejected(self):
        lp = product_with_simplex(TRIANGLE, 4)
        p = LiftedPoint(P(0, -1), (rat(0), rat(0)))
        with pytest.raises(NotACircuit):
            lifted_max_step(lp, p, LiftedCircuit(kind="base", g=Direction2(1, 2)))
        with pytest.raises(NotACircuit):
            lifted_max_step(lp, p, LiftedCircuit(kind="axis", g=None, i=5))

    def test_monotone_selection_uses_simplex_costs(self):
        lp = product_with_simplex(TRIANGLE, 3)
        cost = LiftedCost(base=Direction2(1, 0), simplex=(rat(1),))
        dirs = monotone_lifted_directions(enumerate_lifted_circuits(lp), cost, lp.extra_dims)
        vecs = [c.vector(lp.extra_dims) for c in dirs]
        assert all(
            sum(v * c for v, c in zip(vec, (rat(1), rat(0), rat(1)))) > 0 for vec in vecs
        )

    def test_lifted_optimum(self):
        lp = product_with_simplex(TRIANGLE, 3)
        cost = LiftedCost(base=Direction2(1, 0), simplex=(rat(1),))
        best, argmax = lifted_optimal_value(lp, cost)
        assert best == 2 and len(argmax) == 1
        assert argmax[0].base == P(1, 0) and argmax[0].simplex == (rat(1),)
