import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitwalks import constructions
from circuitwalks.circuits import optimal_value
from circuitwalks.constructions import (
    BadCost,
    BadInstance,
    BadParameter,
    ConstructionError,
    Feasible,
    Infeasible,
    PromiseViolated,
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
from circuitwalks.formats import InstanceFile, write_instance
from circuitwalks.polytope import HPolygon, _hull_of_rows, h_to_v, transform_polygon
from circuitwalks.ratgeo import AffineMap2, Direction2, Point2, rat
from circuitwalks.search import (
    Found,
    NotFoundWithinDepth,
    SearchConfig,
    is_valid_monotone_walk,
    shortest_monotone_walk,
)

from conftest import (
    as_points,
    clear_construction_caches,
    corner_anchors,
    lifted_vertices,
    reference_corner_transform,
    reference_edge_rows,
    reference_essr,
    reference_hpolygon,
    reference_reduction_vertices,
)


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

    def test_cycle_matches_sweep(self):
        # the family, built by HPolygon from its rows, is the peel of those rows,
        # equals a second read of them, and has the Fraction reference's vertices
        for ell in range(1, 13):
            art = build_p_ell(ell)
            peeled = _hull_of_rows(art.h.rows)
            assert peeled.triples == art.v.triples and peeled.edges == art.v.edges
            read = HPolygon(art.h.rows)
            assert art.h == read and hash(art.h) == hash(read)
            assert h_to_v(read).vertices == art.v.vertices
            assert h_to_v(read).triples == art.v.triples
        for ell in range(1, 6):
            assert build_p_ell(ell).v.vertices == reference_hpolygon(build_p_ell(ell).h.rows)


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

    def test_six_weights_at_r_bound_S(self):
        # a box of (r_bound + 1)**6 = 42**6 multiplicity vectors
        inst = SubsetSumInstance(a=(2, 3, 5, 7, 11, 13), S=41, k=5)
        out = brute_force_essr(inst, r_bound=41)
        assert out == reference_essr(inst, 41) == PromiseViolated(r=(0, 0, 4, 3, 0, 0))

    def test_large_target_is_pseudo_polynomial(self):
        out = brute_force_essr(SubsetSumInstance(a=(1, 2), S=20000, k=2), r_bound=20000)
        assert out == PromiseViolated(r=(0, 10000))

    def test_matches_lexicographic_scan(self):
        rng = random.Random(271828)
        for _ in range(8000):
            a = tuple(sorted(rng.sample(range(1, 16), rng.randint(1, 4))))
            S, k = rng.randint(1, 25), rng.randint(1, 5)
            r_bound = S if rng.random() < 0.5 else rng.randint(0, 6)
            inst = SubsetSumInstance(a=a, S=S, k=k)
            assert brute_force_essr(inst, r_bound) == reference_essr(inst, r_bound), (inst, r_bound)

    def test_matches_lexicographic_scan_on_three_dm(self):
        universe = list(itertools.product(range(2), repeat=3))
        for size in range(2, 6):
            for triples in itertools.combinations(universe, size):
                essr = reduce_three_dm(ThreeDMInstance(n_elements=2, triples=triples))
                for r_bound in (2, essr.S):
                    assert brute_force_essr(essr, r_bound) == reference_essr(essr, r_bound)

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

    def test_matchings_to_walk_distances_at_n2(self):
        # the paper's chain on every instance of 2 elements with 2-5 triples: a
        # matching gives an exact-sum vector whose witness walk has 2k steps, and the
        # search finds a walk within 2k; no matching, and no walk exists within C*k
        universe = list(itertools.product(range(2), repeat=3))
        found = proved = 0
        for size in range(2, 6):
            for chosen in itertools.combinations(universe, size):
                inst = ThreeDMInstance(n_elements=2, triples=chosen)
                essr = reduce_three_dm(inst)
                red = build_reduction(essr, 2)
                k = essr.k
                if three_dm_has_perfect_matching(inst):
                    walk = reduction_witness_walk(red, brute_force_essr(essr, r_bound=2).r)
                    assert walk.length == 2 * k and walk.end == red.t
                    assert is_valid_monotone_walk(red.h, red.c, walk)
                    search = shortest_monotone_walk(red.h, red.s, red.c, SearchConfig(2 * k))
                    assert isinstance(search, Found) and search.walk.length <= 2 * k
                    found += 1
                else:
                    search = shortest_monotone_walk(red.h, red.s, red.c, SearchConfig(red.ck))
                    assert search == NotFoundWithinDepth(red.ck)
                    proved += 1
        assert (found, proved) == (138, 72)


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
        assert as_points(chain.triples) == (
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
        chain = as_points(build_slope_chain(inst, Direction2(-1, 3)).triples)
        for (p, q), w in zip(zip(chain, chain[1:]), inst.a):
            assert (q.y - p.y) == w * (q.x - p.x)

    def test_beta_capped_at_one(self):
        inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
        chain = build_slope_chain(inst, Direction2(-2, 1))
        assert chain.beta == 1
        assert as_points(chain.triples)[-1] == P(1, 1)

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
        chain = as_points(build_slope_chain(inst, primitive_direction(-cx, cy)).triples)
        assert len(chain) == len(a) + 1
        assert all(p.x < q.x for p, q in zip(chain, chain[1:]))
        c = primitive_direction(-cx, cy)
        assert all(c.dx * v.x + c.dy * v.y <= 0 for v in chain)


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
        u_image, w_image = corner_anchors(ct)
        assert u_image.x == 0
        assert w_image.y == rat(5) + ct.epsilon
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

    def test_nonpositive_C_rejected_before_building(self):
        for C in (0, -1):
            with pytest.raises(BadParameter, match="^C must be positive$"):
                build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), C)

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


# (instance, C) with C*k = 1..8: k = 1 at every C*k, and k = 2 at the even ones
VERTEX_CYCLE_CASES = [(SubsetSumInstance(a=(2, 3), S=5, k=1), ck) for ck in range(1, 9)] + [
    (SubsetSumInstance(a=(2, 4), S=5, k=2), C) for C in range(1, 5)
]


def assert_matches_reference(inst, C):
    """The corner transform, vertices, rows and circuit classes of the reduction
    equal those built through image polygons and a hull."""
    red = build_reduction(inst, C)
    pell = build_p_ell(red.ck)
    ref = reference_corner_transform(pell, inst, C)
    for field in dataclasses.fields(red.corner):
        if field.name != "triples":
            assert getattr(red.corner, field.name) == ref[field.name], field.name
    image = as_points(red.corner.triples)
    assert (image[-1], image[0]) == (ref["u_image"], ref["w_image"])
    assert len(set(image)) == len(image)
    assert set(image) == set(ref["image"])
    vertices, corner_circuits = reference_reduction_vertices(pell, ref, inst)
    assert red.v.vertices == vertices
    assert red.h.rows == reference_edge_rows(vertices)
    groups = classify_reduction_circuits(red)
    assert groups["corner"] == corner_circuits
    assert groups["frame"] == (Direction2(0, 1), Direction2(1, 0))
    assert groups["element"] == tuple(Direction2(1, w) for w in inst.a)


class TestVertexCycle:
    """The reduction polygon as one vertex cycle, against the image polygons
    and the hull it replaces."""

    @pytest.mark.parametrize(
        "inst, C", VERTEX_CYCLE_CASES, ids=[f"k{inst.k}-C{C}" for inst, C in VERTEX_CYCLE_CASES]
    )
    def test_matches_reference(self, inst, C):
        assert_matches_reference(inst, C)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_instances_match_reference(self, data):
        a = tuple(sorted(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))))
        k = data.draw(st.integers(1, 2))
        C = data.draw(st.integers(1, 8 // k))
        S = data.draw(st.integers(1, 60))
        assert_matches_reference(SubsetSumInstance(a=a, S=S, k=k), C)

    def test_image_runs_from_w_to_u(self):
        for inst, C in VERTEX_CYCLE_CASES:
            ct = build_reduction(inst, C).corner
            pell, image = build_p_ell(C * inst.k), as_points(ct.triples)
            assert image[0] == ct.map.apply(pell.w) and image[-1] == ct.map.apply(pell.u)
            assert image == tuple(ct.map.apply(p) for p in pell.v.vertices)



class TestLevelCache:
    """A family level and its corner frame are built once per process and shared."""

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_one_artifact_per_level_equal_to_a_fresh_build(self, ell):
        art = build_p_ell(ell)
        assert build_p_ell(ell) is art
        assert build_p_ell.__wrapped__(ell) == art

    def test_bad_level_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(BadParameter):
                build_p_ell(0)

    @pytest.mark.parametrize("a", [(2, 3), (2, 3, 5)], ids=["n2", "n3"])
    @pytest.mark.parametrize("k, C", [(1, 2), (2, 2), (2, 3), (2, 4)], ids=["ck2", "ck4", "ck6", "ck8"])
    def test_warm_and_cold_reductions_write_the_same_text(self, a, k, C):
        inst = SubsetSumInstance(a=a, S=7, k=k)

        def text():
            red = build_reduction(inst, C)
            return write_instance(InstanceFile(polygon=red.h, cost=red.c, start=red.s, target=red.t))

        clear_construction_caches()
        cold = text()
        assert text() == cold

    def test_a_level_frame_is_built_once(self, monkeypatch):
        calls = []
        build = constructions._build_corner_frame
        monkeypatch.setattr(constructions, "_build_corner_frame",
                            lambda pell: calls.append(pell) or build(pell))
        clear_construction_caches()
        first = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
        second = build_reduction(SubsetSumInstance(a=(3, 4, 9), S=13, k=1), 4)
        assert calls == [build_p_ell(4)]
        assert first.corner.circuits is second.corner.circuits

    def test_an_altered_artifact_gets_its_own_frame(self):
        pell, inst = build_p_ell(4), SubsetSumInstance(a=(2, 3), S=5, k=2)
        ct = build_corner_transform(pell, inst, 2)
        # P_4 at twice its width: alpha halves, so the squeezed polygon is the same
        m = AffineMap2(rat(2), 0, 0, rat(1))
        h = transform_polygon(m, pell.h)
        wide = dataclasses.replace(pell, h=h, v=h_to_v(h), t=m.apply(pell.t))
        stretched = build_corner_transform(wide, inst, 2)
        assert stretched.alpha == ct.alpha / 2 and stretched.map != ct.map
        assert stretched.triples == ct.triples
        # w and u swapped fail the level check that the true artifact passed
        with pytest.raises(ConstructionError, match="does not run from w to u"):
            build_corner_transform(dataclasses.replace(pell, u=pell.w, w=pell.u), inst, 2)
        assert build_corner_transform(pell, inst, 2) == ct


class TestLiftInstance:
    def test_shapes(self):
        art = build_p_ell(2)
        lp, start, cost = lift_instance(art.h, art.u, art.c0, 4)
        assert lp.dim == 4 and lp.extra_dims == 2
        # both the start and the cost sit on the last simplex vertex, so the
        # extra coordinates never tempt the search away from the base walk
        assert start.base == art.u and start.simplex == (rat(0), rat(1))
        assert cost.base == art.c0 and cost.simplex == (rat(0), rat(1))
        assert lp.contains(start)

    def test_dim_two_degenerates_to_base(self):
        art = build_p_ell(2)
        lp, start, cost = lift_instance(art.h, art.u, art.c0, 2)
        assert lp.extra_dims == 0 and cost.simplex == ()

    def test_simplex_parts_are_fractions(self):
        # LiftedCost.simplex and LiftedPoint.simplex are declared Fraction tuples
        from circuitwalks.circuits import lifted_optimal_value

        art = build_p_ell(3)
        for d in range(3, 7):
            lp, start, cost = lift_instance(art.h, art.u, art.c0, d)
            points = lifted_optimal_value(lp, cost)[1] + lifted_vertices(lp)
            parts = start.simplex + cost.simplex + tuple(y for p in points for y in p.simplex)
            assert len(parts) == (2 + len(points)) * (d - 2)
            assert all(type(y) is Fraction for y in parts)
        assert repr(cost.simplex) == "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))"

    def test_lifted_optimum_gains_the_top_coordinate(self):
        from circuitwalks.circuits import lifted_optimal_value

        art = build_p_ell(2)
        base_best, _ = optimal_value(art.h, art.c0)
        for d in (3, 4):
            lp, _, cost = lift_instance(art.h, art.u, art.c0, d)
            best, argmax = lifted_optimal_value(lp, cost)
            assert best == base_best + 1
            assert len(argmax) == 1 and argmax[0].base == art.t
