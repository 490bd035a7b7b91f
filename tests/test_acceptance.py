"""Acceptance gate: the desk-scale claims this toolkit is built to reproduce.

One test per numbered criterion (criterion 9 splits its two claims). All
geometry checks are exact rational comparisons with zero tolerance; the only
approximate things here are wall-clock budgets. The conftest hook prints a
PASS/FAIL line per criterion after the run.

Criterion 9b asserts the facet count of the simplex lift. The lift of an
m-gon to dimension d is its product with a (d-2)-simplex, and a product's
facets are the facets of its factors: m + d - 1 for d >= 3 (the simplex has
d - 1 facets) and m for d = 2, where the simplex is a point. The test
confirms that count with an exact vertex-incidence count that does not read
facet_count, and checks that the lift is simple.
"""

import itertools
import random
import time
from fractions import Fraction

from circuitwalks.circuits import enumerate_circuits, monotone_directions, optimal_value
from circuitwalks.constructions import (
    Feasible,
    PromiseViolated,
    SubsetSumInstance,
    ThreeDMInstance,
    TriviallyInfeasible,
    brute_force_essr,
    build_p_ell,
    build_reduction,
    classify_reduction_circuits,
    compute_gap_C,
    lift_instance,
    reduce_three_dm,
    reduction_witness_walk,
    sqrt_sum_leq,
    three_dm_has_perfect_matching,
)
from circuitwalks.formats import InstanceFile, read_instance, read_walk, write_instance, write_walk
from circuitwalks.polytope import transform_polygon, v_to_h
from circuitwalks.ratgeo import AffineMap2, Direction2, primitive_direction, pullback_cost, rat
from circuitwalks.search import (
    Found,
    NotFoundWithinDepth,
    SearchConfig,
    approx_monotone_walk,
    is_valid_monotone_walk,
    shortest_monotone_walk,
    transform_walk,
)

from conftest import corner_anchors, facet_incidences, lifted_vertices, random_hull


def test_criterion_01_family_structure():
    t0 = time.monotonic()
    for ell in range(1, 7):
        art = build_p_ell(ell)
        assert art.h.m == 2 * ell + 1
        ring = art.v.vertices
        pos = {v: i for i, v in enumerate(ring)}
        assert abs(pos[art.u] - pos[art.w]) in (1, len(ring) - 1)
        assert max(abs(e) for row in art.h.rows for e in row) <= (8 * ell + 1) ** ell
        others = [v for v in ring if v not in (art.u, art.w)]
        assert all(v.x >= 0 and -1 < v.y < 1 for v in others)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_family_distance():
    t0 = time.monotonic()
    for ell in (1, 2, 3, 4):
        art = build_p_ell(ell)
        for start in (art.u, art.w):
            hit = shortest_monotone_walk(art.h, start, art.c0, SearchConfig(ell))
            assert isinstance(hit, Found) and hit.walk.length == ell
            miss = shortest_monotone_walk(art.h, start, art.c0, SearchConfig(ell - 1))
            assert isinstance(miss, NotFoundWithinDepth)
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_reduction_feasible():
    t0 = time.monotonic()
    inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
    red = build_reduction(inst, 2)
    outcome = brute_force_essr(inst, r_bound=inst.S)
    assert outcome == Feasible(r=(1, 1))
    walk = reduction_witness_walk(red, outcome.r)
    assert walk.length == 2 * inst.k == 4
    assert walk.start == red.s and walk.end == red.t
    assert is_valid_monotone_walk(red.h, red.c, walk)
    hit = shortest_monotone_walk(red.h, red.s, red.c, SearchConfig(4))
    assert isinstance(hit, Found) and hit.walk.length <= 4
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_reduction_infeasible():
    t0 = time.monotonic()
    inst = SubsetSumInstance(a=(2, 4), S=5, k=2)
    assert not isinstance(brute_force_essr(inst, r_bound=inst.S), Feasible)
    red = build_reduction(inst, 2)
    assert red.ck == 4
    result = shortest_monotone_walk(
        red.h, red.s, red.c, SearchConfig(max_depth=4, node_cap=10_000_000)
    )
    assert isinstance(result, NotFoundWithinDepth)
    assert time.monotonic() - t0 < 300.0


def test_criterion_05_reduction_structure():
    inst = SubsetSumInstance(a=(2, 3), S=5, k=2)
    red = build_reduction(inst, 2)
    ck = red.ck
    n = inst.n
    ring = red.v.vertices
    assert len(ring) == 4 + 2 * ck + n  # and a polygon has as many edges
    assert red.h.m == 4 + 2 * ck + n
    expected = {red.s, red.t, *corner_anchors(red.corner)}
    assert expected <= set(ring)
    groups = classify_reduction_circuits(red)
    assert set(groups["frame"]) == {Direction2(0, 1), Direction2(1, 0)}
    assert set(groups["element"]) == {Direction2(1, a) for a in inst.a}
    assert len(groups["corner"]) == 2 * ck
    for g in groups["corner"]:
        assert 0 < rat(g.dy, g.dx) < rat(1, 2 * ck)
    assert 0 < red.epsilon < red.corner.box / 2
    assert red.t.y == inst.S


def test_criterion_06_corner_distance():
    t0 = time.monotonic()
    red = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
    assert red.ck == 4
    for start in corner_anchors(red.corner):
        hit = shortest_monotone_walk(red.h, start, red.c, SearchConfig(red.ck))
        assert isinstance(hit, Found) and hit.walk.length == red.ck
        miss = shortest_monotone_walk(red.h, start, red.c, SearchConfig(red.ck - 1))
        assert isinstance(miss, NotFoundWithinDepth)
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_circuits_are_edge_directions():
    rng = random.Random(0xC1DE)
    for _ in range(50):
        ring = random_hull(rng, max_points=12, bound=100)
        h = v_to_h(ring)
        vs = ring.vertices
        edges = {
            primitive_direction(
                vs[(i + 1) % len(vs)].x - vs[i].x, vs[(i + 1) % len(vs)].y - vs[i].y
            ).canonical()
            for i in range(len(vs))
        }
        assert set(enumerate_circuits(h)) == edges


def test_criterion_08_affine_invariance():
    rng = random.Random(0xAFF1)
    art = build_p_ell(2)
    plans = [(art.h, art.u, art.c0, 2)] * 50
    for _ in range(50):
        ring = random_hull(rng, max_points=8, bound=30)
        h = v_to_h(ring)
        plans.append((h, min(ring.vertices), Direction2(1, 0), h.m))
    assert len(plans) == 100
    for h, start, c, depth in plans:
        while True:
            m = AffineMap2(
                rat(rng.randint(-12, 12), rng.randint(1, 6)),
                rat(rng.randint(-12, 12), rng.randint(1, 6)),
                rat(rng.randint(-12, 12), rng.randint(1, 6)),
                rat(rng.randint(-12, 12), rng.randint(1, 6)),
                rat(rng.randint(-8, 8)),
                rat(rng.randint(-8, 8)),
            )
            if m.det != 0:
                break
        base = shortest_monotone_walk(h, start, c, SearchConfig(depth))
        assert isinstance(base, Found)
        h2 = transform_polygon(m, h)
        c2 = pullback_cost(m, c)
        image_walk = transform_walk(m, base.walk)
        assert is_valid_monotone_walk(h2, c2, image_walk)
        mirrored = shortest_monotone_walk(h2, m.apply(start), c2, SearchConfig(depth))
        assert isinstance(mirrored, Found)
        assert mirrored.walk.length == base.walk.length
        for g in enumerate_circuits(h):
            g2 = primitive_direction(*m.apply_vector(rat(g.dx), rat(g.dy)))
            before = c.dx * g.dx + c.dy * g.dy
            after = c2.dx * g2.dx + c2.dy * g2.dy
            assert (before > 0) == (after > 0) and (before == 0) == (after == 0)


def test_criterion_09a_lifted_distance_matches():
    t0 = time.monotonic()
    for ell in (2, 3):
        art = build_p_ell(ell)
        base = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(ell))
        assert isinstance(base, Found)
        for d in (3, 4):
            lp, s_d, c_d = lift_instance(art.h, art.u, art.c0, d)
            lifted = shortest_monotone_walk(lp, s_d, c_d, SearchConfig(ell))
            assert isinstance(lifted, Found)
            assert lifted.walk.length == base.walk.length
            below = shortest_monotone_walk(lp, s_d, c_d, SearchConfig(ell - 1))
            assert isinstance(below, NotFoundWithinDepth)
    assert time.monotonic() - t0 < 60.0


def test_criterion_09b_lifted_facet_count_as_advertised():
    for ell in (2, 3):
        art = build_p_ell(ell)
        for d in (3, 4):
            lp, _, _ = lift_instance(art.h, art.u, art.c0, d)
            # m base rows, d - 2 nonnegativity rows and the simplex sum row
            assert lp.facet_count == art.h.m + d - 1
            facets = facet_incidences(lp)
            assert len(facets) == lp.facet_count
            assert len(set(facets)) == len(facets)
            for i in range(len(lifted_vertices(lp))):
                assert sum(i in f for f in facets) == d


def test_criterion_10_matching_reduction_equivalence():
    t0 = time.monotonic()
    n = 2
    universe = [(i, j, h) for i in range(n) for j in range(n) for h in range(n)]
    checked = 0
    for size in range(1, 6):
        for chosen in itertools.combinations(universe, size):
            inst = ThreeDMInstance(n_elements=n, triples=chosen)
            has_matching = three_dm_has_perfect_matching(inst)
            try:
                essr = reduce_three_dm(inst)
            except TriviallyInfeasible:
                assert not has_matching
                checked += 1
                continue
            # every weight exceeds S/3 here, so multiplicities above 2 can
            # never hit S and this bound is exhaustive
            outcome = brute_force_essr(essr, r_bound=n)
            assert not isinstance(outcome, PromiseViolated)
            assert has_matching == isinstance(outcome, Feasible)
            checked += 1
    assert checked == 8 + 28 + 56 + 70 + 56
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_approximation_bound():
    for ell in (2, 3, 4):
        art = build_p_ell(ell)
        exact = shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(ell))
        assert isinstance(exact, Found)
        for K in (1, 2, 3):
            walk = approx_monotone_walk(art.h, art.u, art.c0, K)
            assert is_valid_monotone_walk(art.h, art.c0, walk)
            bound = max(Fraction(art.h.m, K), Fraction(1)) * exact.walk.length
            assert Fraction(walk.length) <= bound


def test_criterion_12_gap_constant():
    for n, k in ((4, 2), (6, 3), (8, 4)):
        C = compute_gap_C(2, n, k)
        # 2(sqrt(Ck) + sqrt(n)) * 2k <= Ck, checked in integers only
        assert sqrt_sum_leq(C * k, n, 4 * k, C * k)


def test_criterion_13_round_trips():
    rng = random.Random(0x0F0F)
    instances = []
    for ell in range(1, 7):
        art = build_p_ell(ell)
        instances.append(
            (
                InstanceFile(
                    polygon=art.h,
                    cost=art.c0,
                    start=art.u,
                    target=art.t,
                    meta=(("kind", "family"), ("ell", str(ell))),
                ),
                ell,
            )
        )
    for a, S, k, feasible_depth in (
        ((2, 3), 5, 2, 4),
        ((2, 4), 5, 2, None),
        ((1, 2), 3, 2, 4),
        ((15,), 15, 1, 2),
    ):
        red = build_reduction(SubsetSumInstance(a=a, S=S, k=k), 2)
        instances.append(
            (
                InstanceFile(polygon=red.h, cost=red.c, start=red.s, target=red.t),
                feasible_depth,
            )
        )
    while len(instances) < 200:
        ring = random_hull(rng, max_points=9, bound=50)
        h = v_to_h(ring)
        start = min(ring.vertices)
        solve_depth = h.m if len(instances) < 51 else None
        instances.append(
            (
                InstanceFile(
                    polygon=h,
                    cost=primitive_direction(rng.choice([1, 1, 2, 3]), rng.choice([-2, 0, 1])),
                    start=start,
                    meta=(("kind", "sample"),),
                ),
                solve_depth,
            )
        )
    assert len(instances) == 200
    certificates = 0
    for inst, depth in instances:
        text = write_instance(inst)
        back = read_instance(text)
        assert back == inst
        assert write_instance(back) == text
        if depth is None:
            continue
        result = shortest_monotone_walk(inst.polygon, inst.start, inst.cost, SearchConfig(depth))
        assert isinstance(result, Found)
        wtext = write_walk(result.walk)
        wback = read_walk(wtext)
        assert write_walk(wback) == wtext
        assert is_valid_monotone_walk(inst.polygon, inst.cost, wback)
        certificates += 1
    assert certificates >= 50
