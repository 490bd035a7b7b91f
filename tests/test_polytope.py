import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitwalks.polytope import (
    BadDimension,
    DegenerateHull,
    HPolygon,
    LiftedPoint,
    LiftedPolytope,
    UnboundedOrEmpty,
    VPolygon,
    canonical_row,
    h_to_v,
    hull2d,
    _hpolygon_of_cycle,
    product_with_simplex,
    remove_redundant,
    simplex_vertices,
    transform_polygon,
    v_to_h,
)
from circuitwalks import polytope
from circuitwalks.constructions import SubsetSumInstance, build_p_ell, build_reduction
from circuitwalks.formats import InstanceFile, read_instance, write_instance
from circuitwalks.ratgeo import AffineMap2, Direction2, Point2, SingularMap, homogeneous, rat

from conftest import (
    facet_incidences,
    lifted_vertices,
    random_hpolygon,
    random_hull,
    reference_check_vertices,
    reference_edge_rows,
    reference_hpolygon,
    reference_hull2d,
    reference_remove_redundant,
    reference_transform_polygon,
)


def P(x, y):
    return Point2(rat(x), rat(y))


SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
# the unit square with x <= 1 written twice, once as 2x <= 3: parallel normals of different scale
SCALED_PARALLEL = [(1, 0, 1), (2, 0, 3), (-1, 0, 0), (0, 1, 1), (0, -1, 0)]


class TestCanonicalRow:
    def test_divides_common_factor(self):
        assert canonical_row(16, 4, 18) == (8, 2, 9)

    def test_clears_denominators(self):
        assert canonical_row(rat(1, 2), rat(1, 3), rat(1)) == (3, 2, 6)

    def test_keeps_sign(self):
        assert canonical_row(-2, 0, 0) == (-1, 0, 0)
        assert canonical_row(2, -4, -6) == (1, -2, -3)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            canonical_row(0, 0, 5)


class TestHull2d:
    def test_square(self):
        ring = hull2d(list(SQUARE) + [P(rat(1, 2), rat(1, 2))])
        assert ring.vertices == SQUARE

    def test_collinear_points_dropped(self):
        ring = hull2d([P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)])
        assert P(1, 0) not in ring.vertices
        assert len(ring.vertices) == 4

    def test_duplicates_collapse(self):
        ring = hull2d([P(0, 0), P(0, 0), P(1, 0), P(0, 1), P(1, 0)])
        assert len(ring.vertices) == 3

    def test_all_collinear_degenerate(self):
        with pytest.raises(DegenerateHull):
            hull2d([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])

    def test_too_few_degenerate(self):
        with pytest.raises(DegenerateHull):
            hull2d([P(0, 0), P(1, 1)])

    def test_starts_at_lexicographic_min(self):
        ring = hull2d([P(5, 5), P(0, 0), P(5, 0), P(0, 5)])
        assert ring.vertices[0] == P(0, 0)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=3, max_size=15))
    def test_hull_contains_inputs_and_is_idempotent(self, coords):
        pts = [P(x, y) for x, y in coords]
        try:
            ring = hull2d(pts)
        except DegenerateHull:
            return
        h = v_to_h(ring)
        assert all(h.contains(p) for p in pts)
        assert hull2d(list(ring.vertices)).vertices == ring.vertices


class TestVPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            VPolygon.of_points(tuple(reversed(SQUARE)))

    def test_rejects_collinear_triple(self):
        with pytest.raises(ValueError):
            VPolygon.of_points((P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)))

    def test_must_start_at_min(self):
        with pytest.raises(ValueError):
            VPolygon.of_points((P(1, 0), P(1, 1), P(0, 1), P(0, 0)))

    def test_accepts_ccw_from_min(self):
        v = VPolygon.of_points((P(0, -1), P(1, 0), P(0, 1)))
        assert len(v.vertices) == 3

    def test_rejects_doubly_wound_cycle(self):
        # a convex pentagon's vertices in pentagram order, from the lex-min: every
        # consecutive triple turns left, but the cycle winds twice
        with pytest.raises(ValueError, match="vertices not in strictly convex ccw order"):
            VPolygon.of_points((P(-1, 3), P(4, 0), P(2, 5), P(0, 0), P(5, 3)))

    def test_rejects_non_canonical_triples(self):
        # D > 0 and gcd 1 make equal points equal triples, so equal polygons are equal values
        t = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        for i, bad in ((1, (2, 0, 2)), (0, (0, 0, 3)), (1, (-1, 0, -1)), (2, (1, 1, 0))):
            with pytest.raises(ValueError, match="canonical"):
                VPolygon(tuple(t[:i] + [bad] + t[i + 1:]))
        v = VPolygon(tuple(t))
        assert v.vertices == SQUARE
        assert v == VPolygon.of_points(SQUARE) and hash(v) == hash(VPolygon.of_points(SQUARE))

    def test_of_points_is_homogeneous_per_point(self):
        rng = random.Random(25)
        for _ in range(40):
            pts = [P(rat(rng.randint(-40, 40), rng.randint(1, 9)),
                     rat(rng.randint(-40, 40), rng.randint(1, 9))) for _ in range(8)]
            try:
                ring = hull2d(pts).vertices
            except DegenerateHull:
                continue
            v = VPolygon.of_points(ring)
            assert v.triples == tuple(homogeneous((p.x, p.y)) for p in ring)
            assert v.vertices == ring


class TestHVConversion:
    def test_square_round_trip(self):
        h = v_to_h(VPolygon.of_points(SQUARE))
        assert h_to_v(h).vertices == SQUARE

    def test_rows_follow_edge_order(self):
        h = v_to_h(VPolygon.of_points((P(0, -1), P(1, 0), P(0, 1))))
        assert h.rows == ((1, -1, 1), (1, 1, 1), (-1, 0, 0))

    def test_contains_boundary_and_interior(self):
        h = v_to_h(VPolygon.of_points(SQUARE))
        assert h.contains(P(0, 0))
        assert h.contains(P(rat(1, 2), rat(1, 3)))
        assert not h.contains(P(2, 0))

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=False))
    def test_random_round_trip(self, pyrandom):
        ring = random_hull(random.Random(pyrandom.randint(0, 2**30)), max_points=9, bound=40)
        h = v_to_h(ring)
        assert h_to_v(h).vertices == ring.vertices
        # built from the vertex cycle, it equals the polygon HPolygon's pass makes
        # of the same edge rows, whose triples are those the vertices give
        swept = HPolygon(reference_edge_rows(ring.vertices))
        assert h.rows == swept.rows and h == swept and hash(h) == hash(swept)
        assert h_to_v(swept).vertices == ring.vertices
        assert h_to_v(swept).triples == ring.triples


class TestHPolygon:
    def test_rows_canonicalized_on_build(self):
        h = HPolygon(((-2, 0, 0), (2, 2, 2), (1, -1, 1)))
        assert h.rows == ((-1, 0, 0), (1, 1, 1), (1, -1, 1))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            HPolygon(((-1, 0, 0), (-2, 0, 0), (1, 1, 1), (1, -1, 1)))

    def test_redundant_row_rejected(self):
        with pytest.raises(ValueError, match="redundant"):
            HPolygon(((-1, 0, 0), (1, 1, 1), (1, -1, 1), (1, 0, 5)))

    def test_remove_redundant_recovers(self):
        h = remove_redundant(((-1, 0, 0), (1, 1, 1), (1, -1, 1), (1, 0, 5), (2, 2, 2)))
        assert set(h.rows) == {(-1, 0, 0), (1, 1, 1), (1, -1, 1)}

    def test_scaled_parallel_rows_bound_the_square(self):
        assert h_to_v(remove_redundant(SCALED_PARALLEL)).vertices == SQUARE
        with pytest.raises(ValueError, match="redundant row"):
            HPolygon(tuple(SCALED_PARALLEL))

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedOrEmpty):
            remove_redundant(((-1, 0, 0), (0, 1, 1), (0, -1, 0)))

    def test_empty_rejected(self):
        # normals positively span, but the feasible set is empty
        with pytest.raises(UnboundedOrEmpty):
            remove_redundant(((-1, 0, 0), (0, -1, 0), (1, 1, -1)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            HPolygon(((-1, 0, 0), (1, 0, 1)))


def _outcome(f, arg):
    """("ok", result) or (exception type, message) of f(arg)."""
    try:
        return ("ok", f(arg))
    except ValueError as exc:
        return (type(exc), str(exc))


@st.composite
def row_soups(draw):
    """Rows of a box, possibly empty or a segment, cut by small random rows
    near its centre, plus rows derived from those: scaled copies (duplicates
    once canonical), parallel shifts, opposite rows (a line or an empty strip
    with the row) and sums of two rows (redundant, and tight where they meet)."""
    x0, y0 = draw(st.integers(-3, 1)), draw(st.integers(-3, 1))
    x1 = x0 + draw(st.sampled_from([-1, 0, 1, 2, 2, 3, 3, 3]))
    y1 = y0 + draw(st.integers(1, 3))
    box = [(1, 0, x1), (-1, 0, -x0), (0, 1, y1), (0, -1, -y0)]
    cx, cy = rat(x0 + x1, 2), rat(y0 + y1, 2)
    small = st.integers(-4, 4)
    cuts = [
        (a1, a2, a1 * cx + a2 * cy + rat(draw(st.integers(-2, 6)), 2))
        for a1, a2 in draw(st.lists(st.tuples(small, small), max_size=4))
    ]
    rows = draw(st.sampled_from([box, box, box, box[:3]])) + cuts
    soup = list(rows)
    for i, (a1, a2, b) in enumerate(rows):
        kind = draw(st.sampled_from(["none"] * 4 + ["scaled", "parallel", "opposite", "sum"]))
        if kind == "scaled":
            k = rat(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            soup.append((k * a1, k * a2, k * b))
        elif kind == "parallel":
            soup.append((a1, a2, b + draw(st.integers(1, 3))))
        elif kind == "opposite":
            soup.append((-a1, -a2, -b + draw(st.integers(-1, 1))))
        elif kind == "sum":
            c1, c2, d = rows[(i + 1) % len(rows)]
            soup.append((a1 + c1, a2 + c2, b + d))
    return draw(st.permutations(soup))


def _with_redundant_rows(rows, seed):
    """rows plus, for every seventh row, a scaled copy (a duplicate once
    canonical), a parallel row of another scale (2a.x <= 2b + 1) and the sum
    with the next row (tight at their common vertex), shuffled."""
    soup = list(rows)
    for i in range(0, len(rows), 7):
        (a1, a2, b), (c1, c2, d) = rows[i], rows[(i + 1) % len(rows)]
        soup += [(3 * a1, 3 * a2, 3 * b), (2 * a1, 2 * a2, 2 * b + 1), (a1 + c1, a2 + c2, b + d)]
    random.Random(seed).shuffle(soup)
    return soup


def _circle_points(seed, n, radius=10_000):
    """n lattice points next to a circle, at random angles: nearly all of them hull vertices."""
    rng = random.Random(seed)
    angles = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
    return [P(round(radius * math.cos(t)), round(radius * math.sin(t))) for t in angles]


# about 60 edges: every point of a parabola arc, and a random near-circle
PARABOLA_60 = v_to_h(hull2d([P(k, k * k) for k in range(60)])).rows
CIRCLE_60 = v_to_h(hull2d(_circle_points(7, 64))).rows


def _intersections(rows):
    """Every pairwise intersection of the rows, inside them or not."""
    pts = []
    for i, (a1, a2, b) in enumerate(rows):
        for c1, c2, d in rows[i + 1:]:
            det = a1 * c2 - a2 * c1
            if det:
                pts.append(P(rat(b * c2 - d * a2, det), rat(a1 * d - c1 * b, det)))
    return pts


# the edge rows of the quadrilateral (0, 0), (2, 0), (2, 3), (0, 1), bottom row first
QUAD_ROWS = [(0, -1, 0), (1, 0, 2), (-1, 1, 1), (-1, 0, 0)]


class TestIntegerConstruction:
    """Polygon construction on integer triples against the Fraction reference."""

    @settings(max_examples=200, deadline=None)
    @given(row_soups())
    @example([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 0)])  # a segment
    @example([(1, 0, 0), (-1, 0, -1), (0, 1, 1), (0, -1, 0)])  # empty
    @example([(1, 0, 1), (-1, 0, 0), (0, 1, 1), (0, -1, 0), (1, 1, 2)])  # tight, redundant
    @example([(1, 0, 1), (-1, 0, 0), (0, 1, 1), (1, 1, 5)])  # unbounded
    @example(SCALED_PARALLEL)  # bounded, with parallel rows of different scale
    @example(_with_redundant_rows(PARABOLA_60, 1))
    @example(_with_redundant_rows(CIRCLE_60, 2))
    # five rows through the corner (1, 1) of the unit square
    @example([(1, 0, 1), (-1, 0, 0), (0, 1, 1), (0, -1, 0), (1, 1, 2), (1, 2, 3), (2, 1, 3)])
    # the minimal QUAD_ROWS with one row negated (unbounded); with its bottom row
    # dropped, so that the turn from the last normal back to the first is a half
    # turn (unbounded); with a tight row through its vertex (2, 0); and with its
    # top row dropped, so that two neighbours have antiparallel normals (unbounded)
    @example([(1, -1, -1) if r == (-1, 1, 1) else r for r in QUAD_ROWS])
    @example(QUAD_ROWS[1:])
    @example(QUAD_ROWS + [(1, -1, 2)])
    @example([r for r in QUAD_ROWS if r != (-1, 1, 1)])
    # minimal system the triangle of rows 4, 2 and 3, which the peel reaches only
    # after its drops recheck row 0 across the ring's wrap
    @example([(-2, 1, 4), (1, -1, 2), (0, 1, -2), (-1, 0, 2), (1, -2, 3), (-1, 1, 3), (2, 2, 3),
              (1, -1, 3)])
    def test_same_vertices_or_same_error(self, rows):
        assert _outcome(lambda r: h_to_v(HPolygon(r)).vertices, rows) == _outcome(
            reference_hpolygon, rows
        )
        minimal = _outcome(reference_remove_redundant, rows)
        assert _outcome(lambda r: h_to_v(remove_redundant(r)).vertices, rows) == minimal
        points = _intersections([r for r in rows if r[0] or r[1]])
        assert _outcome(lambda p: hull2d(p).vertices, points) == _outcome(
            reference_hull2d, points
        )
        if minimal[0] != "ok":
            return
        edges = remove_redundant(rows).rows
        assert edges == reference_edge_rows(minimal[1])
        (a1, a2, b), (c1, c2, d) = edges[:2]
        for soup in (edges, edges[::-1], edges + ((a1 + c1, a2 + c2, b + d),)):
            assert _outcome(lambda r: h_to_v(HPolygon(r)).vertices, soup) == _outcome(
                reference_hpolygon, soup
            )
        v = minimal[1]
        first_mid = P((v[0].x + v[1].x) / 2, (v[0].y + v[1].y) / 2)
        for verts in (v, v[::-1], v[1:] + v[:1], v[:1] + (first_mid,) + v[1:]):
            assert _outcome(lambda t: VPolygon.of_points(t).vertices, verts) == _outcome(
                lambda t: (reference_check_vertices(t), t)[1], verts
            )


class TestMinimalSystemsSkipTheSweep:
    """HPolygon decides a minimal system in one pass, which also gives its vertex
    polygon and edge rows; the peel (_hull_of_rows) runs only to name the fault
    of a system the pass rejects."""

    def test_sweep_never_runs_on_a_minimal_system(self, monkeypatch):
        rng = random.Random(32)
        rings = [build_p_ell(ell).v for ell in range(1, 13)]
        rings += [build_reduction(SubsetSumInstance(a=a, S=S, k=2), C).v
                  for a, S, C in (((2, 3), 5, 2), ((2, 4), 5, 3), ((5, 8, 9), 16, 4))]
        rings += [random_hull(rng) for _ in range(200)]

        def peel(rows):
            raise AssertionError("the peel ran")

        monkeypatch.setattr(polytope, "_hull_of_rows", peel)
        for ring in rings:
            rows = list(ring.edges)
            shuffled, k = rng.sample(rows, len(rows)), rng.randrange(len(rows))
            for order in (shuffled, rows[::-1], rows[k:] + rows[:k]):
                h = HPolygon(tuple(order))
                assert h.rows == tuple(order) and h_to_v(h).triples == ring.triples
                assert h_to_v(h).edges == ring.edges
        with pytest.raises(AssertionError, match="the peel ran"):
            HPolygon(tuple(SCALED_PARALLEL))


def _cycle_check(t, rows):
    """The cycle check on a vertex cycle and rows, raising what it raises."""
    return _hpolygon_of_cycle(VPolygon(tuple(t)), tuple(rows))


def _triple(p):
    return homogeneous((p.x, p.y))


class TestCycleCheck:
    """The O(m) check that a vertex cycle and a row set describe one polygon."""

    # a convex pentagon, counterclockwise from its lex-min vertex
    PENTAGON = (P(-1, 3), P(0, 0), P(4, 0), P(5, 3), P(2, 5))
    EDGES = "rows are not the edge rows of the vertex cycle"
    TURNS = "vertices not in strictly convex ccw order"

    def parts(self):
        ring = VPolygon.of_points(self.PENTAGON)
        return list(ring.triples), list(v_to_h(ring).rows)

    def test_accepts_the_edge_rows_in_any_order(self):
        t, rows = self.parts()
        for order in (rows, rows[::-1], rows[2:] + rows[:2]):
            h = _cycle_check(t, order)
            assert h.rows == tuple(order) and h == HPolygon(order)
            assert h_to_v(h).vertices == self.PENTAGON

    def test_rejects_a_moved_triple(self):
        t, rows = self.parts()
        # the top vertex moved up: the cycle stays strictly convex
        t[4] = _triple(P(2, 6))
        with pytest.raises(ValueError, match=self.EDGES):
            _cycle_check(t, rows)

    def test_rejects_a_looser_parallel_row(self):
        t, rows = self.parts()
        for i, (a1, a2, b) in enumerate(rows):
            looser = list(rows)
            looser[i] = canonical_row(2 * a1, 2 * a2, 2 * b + 1)
            with pytest.raises(ValueError, match=self.EDGES):
                _cycle_check(t, looser)

    def test_rejects_a_reversed_cycle(self):
        t, rows = self.parts()
        with pytest.raises(ValueError, match=self.TURNS):
            _cycle_check(t[:1] + t[:0:-1], rows)

    def test_rejects_a_doubly_wound_cycle(self):
        t, rows = self.parts()
        # pentagram order, from the lex-min: every consecutive triple turns left
        with pytest.raises(ValueError, match=self.TURNS):
            _cycle_check([t[i] for i in (0, 2, 4, 1, 3)], rows)

    def test_rejects_a_duplicated_row(self):
        t, rows = self.parts()
        with pytest.raises(ValueError, match=self.EDGES):
            _cycle_check(t, rows[:1] + rows[:1] + rows[2:])
        with pytest.raises(ValueError, match=self.EDGES):
            _cycle_check(t, rows + rows[:1])


def _random_map(rng, det_sign):
    """An invertible map with small rational entries and a determinant of the given sign."""
    while True:
        m = AffineMap2(*(rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)),
                       rat(rng.randint(-9, 9), rng.randint(1, 4)),
                       rat(rng.randint(-9, 9), rng.randint(1, 4)))
        if m.det * det_sign > 0:
            return m


def assert_transform_matches_reference(m, h):
    rows, vertices = reference_transform_polygon(m, h)
    image = transform_polygon(m, h)
    assert image.rows == rows
    assert h_to_v(image).vertices == vertices
    assert h_to_v(image).triples == tuple(_triple(p) for p in vertices)
    swept = HPolygon(rows)
    assert image == swept and hash(image) == hash(swept)


class TestTransformPolygon:
    """transform_polygon on integer matrices against the Fraction inverse."""

    def test_family_polygons(self):
        rng = random.Random(15)
        for ell in range(1, 9):
            h = build_p_ell(ell).h
            maps = [_random_map(rng, sign) for sign in (1, -1, 1, -1)]
            maps += [AffineMap2.translation(rat(-3, 2), rat(5)), AffineMap2(-1, 0, 0, 1),
                     AffineMap2.scaling(rat(1, 7), rat(-2))]
            for m in maps:
                assert_transform_matches_reference(m, h)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([1, -1]))
    def test_random_hulls(self, pyrandom, det_sign):
        rng = random.Random(pyrandom.randint(0, 2**30))
        h = v_to_h(random_hull(rng, max_points=9, bound=40))
        assert_transform_matches_reference(_random_map(rng, det_sign), h)

    def test_singular_map_raises(self):
        h = build_p_ell(3).h
        for m in (AffineMap2(1, 2, 2, 4, 3, 0), AffineMap2(0, 0, 0, 0), AffineMap2(rat(1, 2), 1, 1, 2)):
            with pytest.raises(SingularMap, match="^map is not invertible$"):
                transform_polygon(m, h)
            with pytest.raises(SingularMap):
                reference_transform_polygon(m, h)


class TestLargePolygons:
    """Polygons with hundreds of edges go through every constructor exactly."""

    def test_two_hundred_edges(self):
        ring = hull2d([P(k, k * k) for k in range(-100, 100)])
        assert len(ring.vertices) == 200
        rows = v_to_h(ring).rows
        assert rows == reference_edge_rows(ring.vertices)
        for h in (HPolygon(rows), HPolygon(rows[::-1]), remove_redundant(_with_redundant_rows(rows, 3))):
            assert h_to_v(h).vertices == ring.vertices
        inst = InstanceFile(polygon=HPolygon(rows), cost=Direction2(0, -1), start=ring.vertices[0])
        assert h_to_v(read_instance(write_instance(inst)).polygon).vertices == ring.vertices

    def test_peel_is_linear_after_the_sort(self):
        # a 4,000-gon of integer rows and a copy of each loosened by 7: the peel
        # drops the copies as parallel rows and keeps the 4,000 in one pass; the
        # sweep's scan of the dropped rows against every corner took about 5 s for
        # both calls on a 2-core x86 host
        rows = [(round(1e7 * math.cos(2 * math.pi * k / 4000)),
                 round(1e7 * math.sin(2 * math.pi * k / 4000)), 10**13) for k in range(4000)]
        soup = tuple(rows + [(a1, a2, b + 7) for a1, a2, b in rows])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^redundant row; use remove_redundant first$"):
            HPolygon(soup)
        kept = remove_redundant(soup).rows
        assert time.perf_counter() - start < 1.0
        assert len(kept) == 4000 and set(kept) == {canonical_row(*r) for r in rows}


def reference_contains(h, p):
    """HPolygon.contains by the Fraction formula a1*x + a2*y <= b."""
    return all(a1 * p.x + a2 * p.y <= b for a1, a2, b in h.rows)


def reference_lifted_contains(lp, p):
    """LiftedPolytope.contains by Fractions: the base rows, y >= 0 and sum(y) <= 1."""
    base = reference_contains(lp.base, p.base)
    return base and all(y >= 0 for y in p.simplex) and sum(p.simplex) <= 1


def _midpoint(p, q):
    return Point2((p.x + q.x) / 2, (p.y + q.y) / 2)


def _simplex_points(rng, e, tiny):
    """Points of conv(0, e_1, .., e_e) (a vertex, an edge midpoint, an interior
    point) and points a tiny step outside it, as coordinate tuples."""
    if not e:
        return [()], []
    y0, y1 = rng.sample(simplex_vertices(e), 2)
    vertex = tuple(rat(y) for y in y0)
    midpoint = tuple(rat(a + b, 2) for a, b in zip(y0, y1))
    inside = [vertex, midpoint, tuple(rat(1, e + 2) for _ in range(e))]
    outside = []
    for y in (vertex, midpoint):
        if 0 in y:
            j = y.index(0)
            outside.append(y[:j] + (-tiny,) + y[j + 1:])
        if sum(y) == 1:
            outside.append(tuple(t + tiny for t in y))
    return inside, outside


class TestIntegerContainment:
    """contains() on homogeneous integer states against the Fraction formula."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_polygon_and_lift_points(self, pyrandom):
        rng = random.Random(pyrandom.randint(0, 2**30))
        ring = random_hull(rng, max_points=8, bound=40)
        h = v_to_h(ring)
        v = ring.vertices
        n = len(v)
        tiny = rat(1, 10**12)
        p, q, r = rng.sample(v, 3)
        inside = list(v) + [_midpoint(v[i], v[(i + 1) % n]) for i in range(n)] + [
            Point2((p.x + q.x + r.x) / 3, (p.y + q.y + r.y) / 3)
        ]
        outside = []
        for i, (a1, a2, _) in enumerate(h.rows):
            # row i is the edge from v[i] to v[i + 1]; step along its outward normal
            for p in (v[i], _midpoint(v[i], v[(i + 1) % n])):
                outside.append(Point2(p.x + tiny * a1, p.y + tiny * a2))
        for points, expected in ((inside, True), (outside, False)):
            for p in points:
                assert h.contains(p) == reference_contains(h, p) == expected

        lp = product_with_simplex(h, rng.randint(2, 7))
        y_in, y_out = _simplex_points(rng, lp.extra_dims, tiny)
        cases = [(LiftedPoint(p, y), True) for p in inside for y in y_in]
        cases += [(LiftedPoint(p, y), False) for p in outside for y in y_in]
        cases += [(LiftedPoint(p, y), False) for p in inside for y in y_out]
        for p, expected in cases:
            assert lp.contains(p) == reference_lifted_contains(lp, p) == expected


class TestLifting:
    def base(self):
        return v_to_h(VPolygon.of_points((P(0, -1), P(1, 0), P(0, 1))))

    def test_extra_zero_is_the_polygon(self):
        lp = LiftedPolytope(self.base(), 0)
        assert lp.dim == 2
        assert lp.facet_count == 3

    def test_prism_facets(self):
        lp = product_with_simplex(self.base(), 3)
        assert lp.extra_dims == 1
        assert lp.facet_count == 5  # 3 sides + two simplex walls

    def test_dim_4(self):
        lp = product_with_simplex(self.base(), 4)
        assert lp.dim == 4
        assert lp.facet_count == 6

    def test_rejects_low_dim(self):
        with pytest.raises(BadDimension):
            product_with_simplex(self.base(), 1)

    def test_simplex_vertices(self):
        assert simplex_vertices(0) == ((),)
        assert simplex_vertices(2) == ((rat(0), rat(0)), (rat(1), rat(0)), (rat(0), rat(1)))

    def test_lifted_vertices_product(self):
        lp = product_with_simplex(self.base(), 3)
        vs = lifted_vertices(lp)
        assert len(vs) == 6
        assert all(len(v.simplex) == 1 for v in vs)

    def test_lifted_contains(self):
        lp = product_with_simplex(self.base(), 4)
        from circuitwalks.polytope import LiftedPoint

        inside = LiftedPoint(P(rat(1, 2), 0), (rat(1, 4), rat(1, 4)))
        assert lp.contains(inside)
        assert not lp.contains(LiftedPoint(P(rat(1, 2), 0), (rat(3, 4), rat(1, 2))))
        assert not lp.contains(LiftedPoint(P(rat(1, 2), 0), (rat(-1, 4), rat(1, 4))))
        with pytest.raises(BadDimension):
            lp.contains(LiftedPoint(P(0, 0), (rat(0),)))

    def test_rows_count(self):
        lp = product_with_simplex(self.base(), 4)
        assert len(lp.rows) == lp.facet_count

    def test_facet_count_matches_incidence_count(self, rng):
        # at d = 2 the simplex is a point and the count is m, the only
        # dimension where m + d - 2 holds; from d = 3 on it is m + d - 1
        for _ in range(6):
            h = random_hpolygon(rng, max_points=20)
            for d in range(2, 7):
                lp = product_with_simplex(h, d)
                facets = facet_incidences(lp)
                assert len(set(facets)) == len(facets) == lp.facet_count
                assert lp.facet_count == (h.m if d == 2 else h.m + d - 1)
                for i in range(len(lifted_vertices(lp))):
                    assert sum(i in f for f in facets) == d
