"""The benchmark's traced mode rebinds package names; every one must resolve."""

import importlib
import importlib.util
from pathlib import Path

from conftest import clear_construction_caches

TRACING = Path(__file__).resolve().parent.parent / "cwbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cwbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = load_tracing().BINDINGS
    # the tracer also replaces search.Point2 to count the points a search builds
    pairs = [(module, name) for module, name, _ in bindings] + [("search", "Point2")]
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"circuitwalks.{module}"), name)
    ]
    assert not missing
    assert len(pairs) > 40


def test_package_runs_with_hpolygon_rebound_to_a_function():
    """Traced mode replaces HPolygon with a plain forwarding function in these
    modules, so code there must reach the class some other way."""
    from circuitwalks import constructions, formats, polytope
    from circuitwalks.ratgeo import AffineMap2, Point2, rat

    modules = (polytope, constructions, formats)
    cls = polytope.HPolygon
    calls = []

    def forwarding(*args, **kwargs):
        calls.append(args)
        return cls(*args, **kwargs)

    try:
        for module in modules:
            module.HPolygon = forwarding
        clear_construction_caches()  # the builders below must run, not hit the level caches
        art = constructions.build_p_ell(4)
        image = polytope.transform_polygon(AffineMap2(rat(1, 2), rat(-1), rat(2), rat(1), rat(3), 0), art.h)
        assert image.m == art.h.m
        square = polytope.VPolygon.of_points(tuple(Point2(rat(x), rat(y)) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))))
        assert polytope.v_to_h(square).rows == ((0, -1, 0), (1, 0, 1), (0, 1, 1), (-1, 0, 0))
        red = constructions.build_reduction(constructions.SubsetSumInstance(a=(2, 3), S=5, k=2), 1)
        assert calls[-1][0] == red.h.rows  # v_to_h builds the reduction polygon through the stand-in
        text = formats.write_instance(formats.InstanceFile(polygon=red.h, cost=red.c, start=red.s))
        assert formats.read_instance(text).polygon == red.h
    finally:
        for module in modules:
            module.HPolygon = cls
    assert calls  # read_instance builds its polygon through the stand-in
    assert art.h.rows in [args[0] for args in calls]  # and so does build_p_ell
