import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitwalks.circuits import optimal_value
from circuitwalks.constructions import (
    BadCost,
    BadInstance,
    BadParameter,
    Feasible,
    Infeasible,
    PromiseViolated,
    SearchSpaceTooLarge,
    SubsetSumInstance,
    ThreeDMInstance,
    TriviallyInfeasible,
    _ceil_nth_root,
    brute_force_essr,
    build_corner_transform,
    build_p_ell,
    build_reduction,
    build_slope_chain,
    classify_reduction_circuits,
    compute_gap_C,
    family_step_map,
    lift_instance,
    reduce_three_dm,
    reduction_witness_walk,
    sqrt_sum_leq,
    three_dm_has_perfect_matching,
)
from circuitwalks.polytope import lifted_contains
from circuitwalks.ratgeo import Direction2, Point2, rat
from circuitwalks.search import is_valid_monotone_walk


def P(x, y):
    return Point2(rat(x), rat(y))


class TestFamily:
    def test_level_one(self):
        art = build_p_ell(1)
        assert art.h.rows == ((-1, 0, 0), (1, 1, 1), (1, -1, 1))
        assert art.t == P(1, 0)

    def test_level_two_exact_rows(self):
        art = build_p_ell(2)
        assert art.h.rows == ((-1, 0, 0), (8, 2, 9), (8, -2, 9), (1, 2, 2), (1, -2, 2))
        assert set(art.v.vertices) == {
            P(0, -1), P(0, 1), P(1, rat(-1, 2)), P(1, rat(1, 2)), P(rat(9, 8), 0),
        }

    def test_level_three_rescales_inner_rows(self):
        art = build_p_ell(3)
        assert (128, 4, 137) in art.h.rows
        # the doubled copy of the appended rows lands back on the level-2 pair
        assert (8, 2, 9) in art.h.rows and (16, 4, 18) not in art.h.rows
        assert art.t == P(rat(137, 128), 0)

    def test_anchor_points(self):
        for ell in (1, 2, 3, 4):
            art = build_p_ell(ell)
            assert art.u == P(0, 1) and art.w == P(0, -1)
            assert art.c0 == Direction2(1, 0)
            assert {art.u, art.w, art.t} <= set(art.v.vertices)

    def test_row_count_and_entry_bound(self):
        for ell in range(1, 7):
            art = build_p_ell(ell)
            assert art.h.m == 2 * ell + 1
            assert max(abs(e) for row in art.h.rows for e in row) <= (8 * ell + 1) ** ell

    def test_optimum_is_t_by_vertex_scan(self):
        # independent of the recursion: rank hull vertices by the cost
        for ell in (1, 2, 3):
            art = build_p_ell(ell)
            best, argmax = optimal_value(art.h, art.c0)
            assert argmax == (art.t,) and best == art.t.x

    def test_step_map_embeds_into_next_level(self):
        for ell in (1, 2, 3):
            art, nxt = build_p_ell(ell), build_p_ell(ell + 1)
            m = family_step_map(ell)
            assert all(nxt.h.contains(m.apply(v)) for v in art.v.vertices)
            assert m.apply(art.t) == nxt.t
            assert m.apply(art.u) == P(1, rat(1, 2))

    def test_strip_containment(self):
        for ell in (2, 3, 4):
            art = build_p_ell(ell)
            others = [v for v in art.v.vertices if v not in (art.u, art.w)]
            assert all(v.x > 0 and abs(v.y) < 1 for v in others)

    def test_rejects_level_zero(self):
        with pytest.raises(BadParameter):
            build_p_ell(0)


class TestSubsetSumInstance:
    def test_accepts_strict_ascending(self):
        inst = SubsetSumInstance(a=(2, 3, 7), S=12, k=3)
        assert inst.n == 3

    @pytest.mark.parametrize(
        "a,S,k",
        [((), 1, 1), ((0, 1), 1, 1), ((2, 2), 4, 2), ((3, 2), 5, 2), ((1,), 0, 1), ((1,), 1, 0)],
    )
    def test_rejects_malformed(self, a, S, k):
        with pytest.raises(BadInstance):
            SubsetSumInstance(a=a, S=S, k=k)


class TestBruteForce:
    def test_feasible(self):
        out = brute_force_essr(SubsetSumInstance(a=(2, 3), S=5, k=2), r_bound=5)
        assert out == Feasible(r=(1, 1))

    def test_infeasible(self):
        out = brute_force_essr(SubsetSumInstance(a=(2, 4), S=5, k=2), r_bound=5)
        assert out == Infeasible()

    def test_violation_beats_earlier_witness(self):
        # (1,1) is found first in lexicographic order, but the scan keeps
        # going and the off-promise solution (3,0) wins
        out = brute_force_essr(SubsetSumInstance(a=(1, 2), S=3, k=2), r_bound=3)
        assert out == PromiseViolated(r=(3, 0))

    def test_space_cap(self):
        inst = SubsetSumInstance(a=(2, 3, 5, 7, 11, 13), S=41, k=5)
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_essr(inst, r_bound=41)
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_essr(inst, r_bound=10, space_cap=10**6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
        st.integers(1, 20),
        st.integers(1, 3),
    )
    def test_matches_reference_scan(self, weights, S, k):
        a = tuple(sorted(weights))
        inst = SubsetSumInstance(a=a, S=S, k=k)
        out = brute_force_essr(inst, r_bound=S)
        # blunt reference: enumerate every r with r_i <= S outright; the
        # promise demands every solution use exactly k elements
        sols = [
            r
            for r in itertools.product(range(S + 1), repeat=len(a))
            if sum(m * w for m, w in zip(r, a)) == S
        ]
        if any(sum(r) != k for r in sols):
            assert isinstance(out, PromiseViolated)
        elif sols:
            assert isinstance(out, Feasible) and out.r in sols
        else:
            assert out == Infeasible()


class TestThreeDM:
    def test_single_triple(self):
        essr = reduce_three_dm(ThreeDMInstance(n_elements=1, triples=((0, 0, 0),)))
        assert essr == SubsetSumInstance(a=(15,), S=15, k=1)

    def test_weights_encode_triples_in_base(self):
        inst = ThreeDMInstance(n_elements=2, triples=((0, 1, 1), (1, 0, 0)))
        essr = reduce_three_dm(inst)
        B = 3
        digit_patterns = set()
        for w in essr.a:
            digits = []
            while w:
                digits.append(w % B)
                w //= B
            assert set(digits) <= {0, 1} and len(digits) == 7
            digit_patterns.add(tuple(i for i, d in enumerate(digits) if d))
        # (i, j, h) lights up digits i, j+N, h+2N plus the marker digit 3N
        assert digit_patterns == {(0, 3, 5, 6), (1, 2, 4, 6)}

    def test_target_sum(self):
        inst = ThreeDMInstance(n_elements=2, triples=((0, 0, 0), (1, 1, 1)))
        essr = reduce_three_dm(inst)
        B = 3
        assert essr.S == 2 * B**6 + sum(B**p for p in range(6))
        assert essr.k == 2

    def test_matching_found(self):
        inst = ThreeDMInstance(n_elements=2, triples=((0, 0, 0), (1, 1, 1), (0, 1, 0)))
        assert three_dm_has_perfect_matching(inst)
        out = brute_force_essr(reduce_three_dm(inst), r_bound=2)
        assert isinstance(out, Feasible)

    def test_no_matching(self):
        inst = ThreeDMInstance(n_elements=2, triples=((0, 0, 0), (0, 1, 1)))
        assert not three_dm_has_perfect_matching(inst)
        out = brute_force_essr(reduce_three_dm(inst), r_bound=2)
        assert out == Infeasible()

    def test_too_few_triples(self):
        with pytest.raises(TriviallyInfeasible):
            reduce_three_dm(ThreeDMInstance(n_elements=2, triples=((0, 0, 0),)))

    def test_rejects_bad_triples(self):
        with pytest.raises(BadInstance):
            ThreeDMInstance(n_elements=2, triples=((0, 0, 2),))
        with pytest.raises(BadInstance):
            ThreeDMInstance(n_elements=2, triples=((0, 0, 0), (0, 0, 0)))

    def test_weights_ascend(self):
        inst = ThreeDMInstance(
            n_elements=2, triples=((0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1))
        )
        essr = reduce_three_dm(inst)
        assert all(x < y for x, y in zip(essr.a, essr.a[1:]))


class TestGapConstant:
    def test_small_values(self):
        assert compute_gap_C(2, 1, 1) == 64
        assert compute_gap_C(1, 5, 7) == 8

    def test_spec_trio(self):
        for n, k, expect in ((4, 2, 128), (6, 3, 192), (8, 4, 256)):
            C = compute_gap_C(2, n, k)
            assert C == expect
            assert sqrt_sum_leq(C * k, n, 4 * k, C * k)

    def test_ceil_nth_root_matches_definition(self):
        # the smallest M >= 1 with M**t >= target, up to targets past 2**1100
        rng = random.Random(1100)
        for t in range(1, 13):
            bases = list(range(1, 40)) + [rng.randrange(2, 2 ** (1110 // t)) for _ in range(30)]
            bases.append(2 ** (1101 // t + 1))
            targets = set(range(1, 300)) | {2**k for k in range(0, 1111, 37)} | {2**1101 + 1}
            for b in bases:
                targets |= {b**t - 1, b**t, b**t + 1}
            for target in targets - {0}:
                m = _ceil_nth_root(target, t)
                assert m >= 1 and m**t >= target
                assert m == 1 or (m - 1) ** t < target

    def test_sqrt_predicate(self):
        assert sqrt_sum_leq(4, 9, 1, 5)  # 2 + 3 <= 5
        assert not sqrt_sum_leq(4, 9, 1, 4)
        assert sqrt_sum_leq(2, 3, 1, 4)
        assert not sqrt_sum_leq(2, 3, 1, 3)  # sqrt2 + sqrt3 > 3

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 5), st.integers(0, 80))
    def test_sqrt_predicate_matches_floats(self, A, B, L, M):
        import math

        exact = sqrt_sum_leq(A, B, L, M)
        approx = L * (math.sqrt(A) + math.sqrt(B)) - M
        if abs(approx) > 1e-6:
            assert exact == (approx < 0)


class TestSlopeChain:
    def test_worked_example(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        chain = build_slope_chain(inst, Direction2(-1, 2))
        assert chain.beta == rat(1, 2)
        assert chain.vertices == (
            P(rat(4, 5), 0),
            P(rat(9, 10), rat(1, 5)),
            P(1, rat(1, 2)),
        )
        assert chain.witnesses == (
            Direction2(1, -1),
            Direction2(5, -2),
            Direction2(6, -1),
        )

    def test_slopes_are_the_weights(self):
        inst = SubsetSumInstance(a=(1, 4, 9), S=14, k=3)
        chain = build_slope_chain(inst, Direction2(-1, 3))
        for (p, q), w in zip(zip(chain.vertices, chain.vertices[1:]), inst.a):
            assert (q.y - p.y) == w * (q.x - p.x)

    def test_beta_capped_at_one(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        chain = build_slope_chain(inst, Direction2(-2, 1))
        assert chain.beta == 1
        assert chain.vertices[-1] == P(1, 1)

    def test_cost_must_point_up_left(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        for bad in (Direction2(1, 2), Direction2(-1, -2), Direction2(0, 1), Direction2(-1, 0)):
            with pytest.raises(BadCost):
                build_slope_chain(inst, bad)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=5, unique=True),
        st.integers(1, 9),
        st.integers(1, 9),
    )
    def test_random_chains_check_out(self, weights, cx, cy):
        from circuitwalks.ratgeo import primitive_direction

        a = tuple(sorted(weights))
        inst = SubsetSumInstance(a=a, S=sum(a), k=len(a))
        chain = build_slope_chain(inst, primitive_direction(-cx, cy))
        assert len(chain.vertices) == len(a) + 1
        assert all(p.x < q.x for p, q in zip(chain.vertices, chain.vertices[1:]))
        c = primitive_direction(-cx, cy)
        assert all(c.dx * v.x + c.dy * v.y <= 0 for v in chain.vertices)


class TestCornerTransform:
    def build(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        return build_corner_transform(build_p_ell(4), inst, 2)

    def test_pinned_scales(self):
        ct = self.build()
        assert ct.alpha == rat(1, 8)
        assert ct.beta == rat(1, 24)
        assert ct.box == rat(1, 1728000)
        assert ct.gamma == rat(1, 6912000)
        assert ct.s1 == rat(1, 40)

    def test_slope_window(self):
        ct = self.build()
        assert len(ct.chain_slopes) == 8
        assert all(rat(1, 72) < s < rat(1, 8) for s in ct.chain_slopes)
        # the old left wall maps to the chord, which is not a chain edge
        assert ct.beta not in ct.chain_slopes

    def test_landmarks(self):
        ct = self.build()
        assert ct.t_image == Point2(rat(21367, 169869312000), rat(5))
        assert ct.u_image.x == 0
        assert ct.w_image.y == rat(5) + ct.epsilon
        assert 0 < ct.epsilon < ct.box / 2

    def test_level_must_match(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        with pytest.raises(BadParameter):
            build_corner_transform(build_p_ell(3), inst, 2)


class TestReduction:
    def build(self):
        return build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)

    def test_census(self):
        red = self.build()
        assert red.ck == 4
        assert red.h.m == 14
        assert len(red.v.vertices) == 14
        assert red.c == Direction2(-1, 24)
        assert red.s == P(0, 0)
        assert P(1, rat(5) + red.epsilon) in red.v.vertices

    def test_target_is_unique_optimum(self):
        red = self.build()
        best, argmax = optimal_value(red.h, red.c)
        assert argmax == (red.t,)
        assert red.t.y == 5

    def test_circuit_classes(self):
        red = self.build()
        groups = classify_reduction_circuits(red)
        assert {k: len(v) for k, v in groups.items()} == {
            "frame": 2, "element": 2, "corner": 8,
        }
        assert set(groups["frame"]) == {Direction2(0, 1), Direction2(1, 0)}
        assert set(groups["element"]) == {Direction2(1, 2), Direction2(1, 3)}

    def test_witness_walk_pinned(self):
        red = self.build()
        walk = reduction_witness_walk(red, (1, 1))
        assert walk.steps == (
            Direction2(1, 2), Direction2(-1, 0), Direction2(1, 3), Direction2(-1, 0),
        )
        assert walk.points[:4] == (P(0, 0), P(1, 2), P(0, 2), P(1, 5))
        assert walk.end == red.t
        assert is_valid_monotone_walk(red.h, red.c, walk)

    def test_witness_walk_rejects_bad_r(self):
        red = self.build()
        for r in ((1,), (-1, 1), (2, 2), (0, 1)):
            with pytest.raises(BadParameter):
                reduction_witness_walk(red, r)

    def test_large_product_warns(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=3)
        with pytest.warns(RuntimeWarning):
            build_reduction(inst, 3)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_random_instances_assemble(self, data):
        a = tuple(sorted(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))))
        k = data.draw(st.integers(1, 2))
        S = data.draw(st.integers(1, 15))
        red = build_reduction(SubsetSumInstance(a=a, S=S, k=k), 2)
        assert red.h.m == len(a) + 2 * red.ck + 4


class TestLiftInstance:
    def test_shapes(self):
        art = build_p_ell(2)
        lp, start, cost = lift_instance(art.h, art.u, art.c0, 4)
        assert lp.dim == 4 and lp.extra_dims == 2
        # both the start and the cost sit on the last simplex vertex, so the
        # extra coordinates never tempt the search away from the base walk
        assert start.base == art.u and start.simplex == (rat(0), rat(1))
        assert cost.base == art.c0 and cost.simplex == (rat(0), rat(1))
        assert lifted_contains(lp, start)

    def test_dim_two_degenerates_to_base(self):
        art = build_p_ell(2)
        lp, start, cost = lift_instance(art.h, art.u, art.c0, 2)
        assert lp.extra_dims == 0 and cost.simplex == ()

    def test_lifted_optimum_gains_the_top_coordinate(self):
        from circuitwalks.circuits import lifted_optimal_value

        art = build_p_ell(2)
        base_best, _ = optimal_value(art.h, art.c0)
        for d in (3, 4):
            lp, _, cost = lift_instance(art.h, art.u, art.c0, d)
            best, argmax = lifted_optimal_value(lp, cost)
            assert best == base_best + 1
            assert len(argmax) == 1 and argmax[0].base == art.t
