"""Exact rational toolkit for monotone circuit walks on polygons.

The interesting objects live in the submodules; this namespace re-exports
the pieces most scripts want.
"""

from .ratgeo import AffineMap2, Direction2, Point2, primitive_direction, rat
from .polytope import HPolygon, LiftedPolytope, VPolygon, h_to_v, v_to_h
from .circuits import CircuitSet, enumerate_circuits, monotone_directions
from .search import (
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
from .constructions import (
    SubsetSumInstance,
    ThreeDMInstance,
    brute_force_essr,
    build_p_ell,
    build_reduction,
    compute_gap_C,
    lift_instance,
    reduce_three_dm,
)
from .formats import InstanceFile, read_instance, read_walk, write_instance, write_walk

__version__ = "0.1.0"

__all__ = [
    "AffineMap2",
    "CircuitSet",
    "Direction2",
    "Found",
    "HPolygon",
    "InstanceFile",
    "LiftedPolytope",
    "NodeCapExceeded",
    "NotFoundWithinDepth",
    "Point2",
    "SearchConfig",
    "SubsetSumInstance",
    "ThreeDMInstance",
    "VPolygon",
    "Walk",
    "approx_monotone_walk",
    "brute_force_essr",
    "build_p_ell",
    "build_reduction",
    "compute_gap_C",
    "enumerate_circuits",
    "h_to_v",
    "is_valid_monotone_walk",
    "lift_instance",
    "monotone_directions",
    "primitive_direction",
    "rat",
    "read_instance",
    "read_walk",
    "reduce_three_dm",
    "shortest_monotone_walk",
    "transform_walk",
    "v_to_h",
    "write_instance",
    "write_walk",
]
