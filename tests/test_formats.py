import random

import pytest

from circuitwalks.constructions import build_p_ell, build_reduction, SubsetSumInstance
from circuitwalks.formats import (
    InstanceFile,
    ParseError,
    read_instance,
    read_walk,
    write_instance,
    write_walk,
)
from circuitwalks.polytope import v_to_h
from circuitwalks.ratgeo import Direction2, Point2, rat
from circuitwalks.search import Found, SearchConfig, approx_monotone_walk, shortest_monotone_walk

from conftest import random_hull


def family_instance(ell=2):
    art = build_p_ell(ell)
    return InstanceFile(
        polygon=art.h,
        cost=art.c0,
        start=art.u,
        target=art.t,
        meta=(("kind", "family"), ("ell", str(ell))),
    )


class TestInstanceRoundTrip:
    def test_byte_identical(self):
        inst = family_instance()
        text = write_instance(inst)
        assert read_instance(text) == inst
        assert write_instance(read_instance(text)) == text

    def test_reduction_instance_with_huge_denominators(self):
        red = build_reduction(SubsetSumInstance(a=(2, 3), S=5, k=2), 2)
        inst = InstanceFile(polygon=red.h, cost=red.c, start=red.s, target=red.t, meta=())
        text = write_instance(inst)
        assert write_instance(read_instance(text)) == text

    def test_no_target(self):
        inst = family_instance()
        bare = InstanceFile(polygon=inst.polygon, cost=inst.cost, start=inst.start)
        text = write_instance(bare)
        assert "target" not in text
        assert read_instance(text).target is None

    def test_meta_value_with_spaces(self):
        inst = family_instance()
        tagged = InstanceFile(
            polygon=inst.polygon,
            cost=inst.cost,
            start=inst.start,
            meta=(("note", "two words here"), ("flag", "")),
        )
        back = read_instance(write_instance(tagged))
        assert back.meta == (("note", "two words here"), ("flag", ""))

    def test_random_instances(self):
        rng = random.Random(3030)
        for _ in range(30):
            ring = random_hull(rng, max_points=8, bound=60)
            h = v_to_h(ring)
            inst = InstanceFile(
                polygon=h,
                cost=Direction2(rng.choice([1, 2, 5]), rng.choice([-3, 1])),
                start=rng.choice(ring.vertices),
            )
            text = write_instance(inst)
            assert write_instance(read_instance(text)) == text

    def test_cost_normalized_on_read(self):
        inst = family_instance()
        text = write_instance(inst).replace("cost 1 0", "cost 3 0")
        assert read_instance(text).cost == Direction2(1, 0)


class TestInstanceErrors:
    def err(self, text):
        with pytest.raises(ParseError) as info:
            read_instance(text)
        return info.value

    def test_bad_magic(self):
        e = self.err("nope\n")
        assert e.line_no == 1

    def test_wrong_dim(self):
        e = self.err("cwi 1\ndim 3\n")
        assert e.line_no == 2

    def test_bad_row_arity(self):
        text = "cwi 1\ndim 2\nrows 3\n-1 0\n1 1 1\n1 -1 1\ncost 1 0\nstart 0 0\n"
        assert self.err(text).line_no == 4

    def test_bad_rational(self):
        text = "cwi 1\ndim 2\nrows 3\n-1 0 0\n1 1 1\n1 -1 1\ncost 1 0\nstart 0.5 0\n"
        assert self.err(text).line_no == 8

    def test_zero_denominator(self):
        text = "cwi 1\ndim 2\nrows 3\n-1 0 0\n1 1 1\n1 -1 1\ncost 1 0\nstart 1/0 0\n"
        assert self.err(text).line_no == 8

    def test_missing_rows(self):
        text = "cwi 1\ndim 2\nrows 4\n-1 0 0\n1 1 1\n1 -1 1\ncost 1 0\nstart 0 0\n"
        assert self.err(text) is not None

    def test_trailing_garbage(self):
        good = write_instance(family_instance())
        assert self.err(good + "surprise\n") is not None

    def test_blank_line_rejected(self):
        good = write_instance(family_instance())
        assert self.err(good.replace("cost", "\ncost", 1)) is not None

    def test_degenerate_polygon_reported(self):
        text = "cwi 1\ndim 2\nrows 3\n-1 0 0\n1 0 1\n2 0 5\ncost 1 0\nstart 0 0\n"
        e = self.err(text)
        assert "polygon" in str(e)


def _rational_twins(rng, inst):
    """A text of inst whose rows are rational, unreduced, sometimes '+'-signed
    and out of boundary order, and its integer twin: the same rows in the
    same order as canonical integers."""
    text = write_instance(inst).splitlines()
    rows = list(inst.polygon.rows)
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        p, q, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 4)
        # each row scaled by p/q, an entry written as an integer only when it is one
        entries = [str(v * p // q) if v * p % q == 0 and rng.random() < 0.3
                   else f"{v * p * k}/{q * k}" for v in row]
        scaled.append(" ".join("+" + e if e[0] != "-" and rng.random() < 0.3 else e for e in entries))
    head, m = text[:3], len(rows)
    twin = head + [" ".join(map(str, row)) for row in rows] + text[3 + m:]
    return "\n".join(head + scaled + text[3 + m:]) + "\n", "\n".join(twin) + "\n"


class TestRowEntries:
    """Row entries written as integers are read as int; any other row reads
    as its canonical integer twin."""

    def instances(self):
        for ell in (2, 5, 8):
            yield family_instance(ell)
        for a, S, C in (((2, 3), 5, 2), ((5, 8, 9), 16, 4)):
            red = build_reduction(SubsetSumInstance(a=a, S=S, k=2), C)
            yield InstanceFile(polygon=red.h, cost=red.c, start=red.s, target=red.t)

    def test_rational_rows_read_as_their_integer_twin(self):
        rng = random.Random(2424)
        for inst in self.instances():
            for _ in range(3):
                rational, twin = _rational_twins(rng, inst)
                assert "/" in rational.split("cost")[0] and "+" in rational
                a, b = read_instance(rational), read_instance(twin)
                assert a.polygon == b.polygon and a == b
                assert write_instance(a) == twin
                assert sorted(a.polygon.rows) == sorted(inst.polygon.rows)
                walk = approx_monotone_walk(a.polygon, a.start, a.cost, 2)
                assert walk == approx_monotone_walk(b.polygon, b.start, b.cost, 2)
                assert walk == approx_monotone_walk(inst.polygon, inst.start, inst.cost, 2)

    def test_stored_entries_are_ints(self):
        rng = random.Random(2525)
        for inst in self.instances():
            for text in (write_instance(inst), *_rational_twins(rng, inst)):
                rows = read_instance(text).polygon.rows
                assert all(type(e) is int for row in rows for e in row)


class TestWalkRoundTrip:
    def walk(self):
        art = build_p_ell(2)
        return shortest_monotone_walk(art.h, art.u, art.c0, SearchConfig(2)).walk

    def test_byte_identical(self):
        w = self.walk()
        text = write_walk(w)
        assert read_walk(text) == w
        assert write_walk(read_walk(text)) == text

    def test_zero_step_walk(self):
        from circuitwalks.search import Walk

        w = Walk(points=(Point2(rat(1), rat(0)),), steps=())
        text = write_walk(w)
        assert read_walk(text) == w

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            read_walk("cwi 1\n")

    def test_step_must_be_primitive(self):
        text = write_walk(self.walk()).replace("step 2 -1", "step 4 -2")
        with pytest.raises(ParseError):
            read_walk(text)

    def test_step_count_mismatch(self):
        w = self.walk()
        text = write_walk(w)
        with pytest.raises(ParseError):
            read_walk(text.replace("points 3", "points 2"))
