import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import circuitwalks
from circuitwalks.circuits import lifted_optimal_value
from circuitwalks.constructions import build_p_ell, lift_instance
from circuitwalks.formats import read_instance
from circuitwalks.ratgeo import (
    BACKEND,
    AffineMap2,
    Direction2,
    Point2,
    SingularMap,
    dehomogenize,
    format_rational,
    parse_rational,
    primitive_direction,
    pullback_cost,
    rat,
)

nonzero = st.integers(-10**6, 10**6).filter(lambda n: n != 0)
rationals = st.builds(rat, st.integers(-10**6, 10**6), st.integers(1, 10**6))


def test_backend_is_selected():
    assert BACKEND == "fractions"
    assert rat is Fraction
    assert type(parse_rational("7")) is Fraction and type(parse_rational("-9/8")) is Fraction
    assert all(type(q) is Fraction for q in dehomogenize((3, -4, 6)))
    text = "cwi 1\ndim 2\nrows 3\n-1 0 0\n1 1 1\n1 -1 1\ncost 1 0\nstart 0 1/2\n"
    start = read_instance(text).start
    assert type(start.x) is Fraction and type(start.y) is Fraction
    art = build_p_ell(2)
    lp, _, c = lift_instance(art.h, art.u, art.c0, 4)
    assert type(lifted_optimal_value(lp, c)[0]) is Fraction


def test_old_backend_variable_is_ignored():
    # the variable once chose between rational types; any value now imports fine
    src = str(Path(circuitwalks.__file__).resolve().parent.parent)
    env = dict(os.environ, CIRCUITWALKS_RATIONAL_BACKEND="gmpy2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import circuitwalks.ratgeo as r; print(r.BACKEND, r.rat(6, 4))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "fractions 3/2\n"


def test_rat_reduces():
    assert rat(6, 4) == rat(3, 2)
    assert rat(-6, 4) == rat(3, -2)
    assert rat(5) == 5


class TestParseFormat:
    def test_integer(self):
        assert parse_rational("7") == 7
        assert parse_rational("-7") == -7
        assert format_rational(rat(7)) == "7"

    def test_fraction(self):
        assert parse_rational("9/8") == rat(9, 8)
        assert format_rational(rat(9, 8)) == "9/8"
        assert format_rational(rat(-9, 8)) == "-9/8"

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "+ 1", "0x3", "1/2/3", "nan"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_round_trip(self, p, q):
        v = rat(p, q)
        assert parse_rational(format_rational(v)) == v


class TestDirection2:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Direction2(0, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            Direction2(2, 4)

    def test_canonical_is_lex_positive(self):
        assert Direction2(-1, -2).canonical() == Direction2(1, 2)
        assert Direction2(-1, 0).canonical() == Direction2(1, 0)
        assert Direction2(0, -1).canonical() == Direction2(0, 1)
        assert Direction2(-1, 2).canonical() == Direction2(1, -2)
        assert Direction2(1, -2).canonical() == Direction2(1, -2)

    def test_flipped(self):
        assert Direction2(3, -5).flipped() == Direction2(-3, 5)

    def test_ordering_is_lexicographic(self):
        assert Direction2(1, -4) < Direction2(1, 4) < Direction2(2, -1)


class TestPrimitiveDirection:
    def test_clears_denominators(self):
        assert primitive_direction(rat(9, 8), rat(-3, 4)) == Direction2(3, -2)

    def test_integers_reduce(self):
        assert primitive_direction(6, -4) == Direction2(3, -2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            primitive_direction(0, 0)

    @given(rationals, rationals)
    def test_orientation_preserved(self, x, y):
        if x == 0 and y == 0:
            return
        d = primitive_direction(x, y)
        # parallel and pointing the same way
        assert x * d.dy == y * d.dx
        assert x * d.dx + y * d.dy > 0 or (x == 0 and y * d.dy > 0) or (y == 0 and x * d.dx > 0)


small_rat = st.builds(rat, st.integers(-20, 20), st.integers(1, 10))


def maps(draw):
    m = AffineMap2(draw(small_rat), draw(small_rat), draw(small_rat), draw(small_rat),
                   draw(small_rat), draw(small_rat))
    return m


invertible_maps = st.builds(
    AffineMap2, small_rat, small_rat, small_rat, small_rat, small_rat, small_rat
).filter(lambda m: m.det != 0)


class TestAffineMap2:
    def test_identity(self):
        p = Point2(rat(3, 2), rat(-1, 7))
        assert AffineMap2.identity().apply(p) == p

    def test_scaling_and_translation(self):
        m = AffineMap2.translation(rat(1), rat(2)).compose(AffineMap2.scaling(rat(2), rat(3)))
        assert m.apply(Point2(rat(1), rat(1))) == Point2(rat(3), rat(5))

    def test_compose_order(self):
        # compose(inner) applies inner first
        shift = AffineMap2.translation(rat(1), rat(0))
        scale = AffineMap2.scaling(rat(2), rat(2))
        p = Point2(rat(1), rat(1))
        assert scale.compose(shift).apply(p) == Point2(rat(4), rat(2))
        assert shift.compose(scale).apply(p) == Point2(rat(3), rat(2))

    def test_apply_vector_ignores_translation(self):
        m = AffineMap2(rat(2), rat(0), rat(0), rat(3), rat(100), rat(-100))
        assert m.apply_vector(rat(1), rat(1)) == (rat(2), rat(3))

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMap):
            AffineMap2(rat(1), rat(2), rat(2), rat(4)).inverse()

    @given(invertible_maps, rationals, rationals)
    def test_inverse_round_trip(self, m, x, y):
        p = Point2(x, y)
        assert m.inverse().apply(m.apply(p)) == p

    @given(invertible_maps, invertible_maps)
    def test_compose_det_multiplies(self, a, b):
        assert a.compose(b).det == a.det * b.det


class TestPullbackCost:
    def test_scaling_keeps_axis_cost(self):
        m = AffineMap2.scaling(rat(2), rat(3))
        assert pullback_cost(m, Direction2(1, 0)) == Direction2(1, 0)

    def test_quarter_turn_with_shear(self):
        rot = AffineMap2(rat(-1), rat(-1), rat(1), rat(-1))
        assert pullback_cost(rot, Direction2(0, 1)) == Direction2(-1, -1)

    @given(invertible_maps, st.integers(-9, 9), st.integers(-9, 9))
    def test_values_agree_up_to_positive_scale(self, m, cx, cy):
        if cx == 0 and cy == 0:
            return
        c = primitive_direction(cx, cy)
        c2 = pullback_cost(m, c)
        # compare orderings induced on a fixed pair of points
        p, q = Point2(rat(1), rat(0)), Point2(rat(0), rat(1))
        before = c.dx * (p.x - q.x) + c.dy * (p.y - q.y)
        mp, mq = m.apply(p), m.apply(q)
        after = c2.dx * (mp.x - mq.x) + c2.dy * (mp.y - mq.y)
        assert (before > 0) == (after > 0) and (before == 0) == (after == 0)
