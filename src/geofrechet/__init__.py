"""Geodesic Fréchet distance toolkit.

Exact linear-time solvers for separated 1D curves and convex polygons,
a (1+eps)-approximation for curves bounding a simple polygon, and
brute-force free-space oracles for validation.
"""

from .geometry import (Point2, ParamPoint, PolyCurve, PolygonInstance,
                       MatchingPath, build_instance)
from .oned import (Curve1D, GridPoint, prefix_minima, suffix_minima,
                   closest_pair_1d, frechet_matching_1d,
                   greedy_step, build_greedy_forest, bichromatic_intersections,
                   propagate_reachability)
from .geodesic import (GeodesicPath, shortest_path, geodesic_distance,
                       edge_profile, ray_shoot, threshold_crossings)
from .nnprofile import (NNProfile, Fan, Slab, EmptyFanLeaf, nn_profile,
                        nn_profile_reverse, fan_leaf, build_slabs)
from .nearslab import (TransitPoint, transit_exits_on_segment,
                       transit_exits_on_interval, advance_near_slab)
from .farslab import (AnchorSet, GateSet, build_separator_anchors,
                      build_gate_sets, snapped_curves, far_decide,
                      far_find_exit)
from .convex import convex_frechet, tangent_pairs, parallel_matching_cost
from .driver import geodesic_hausdorff, approx_decide, approx_optimize

__all__ = [
    "Point2", "ParamPoint", "PolyCurve", "PolygonInstance", "MatchingPath",
    "build_instance",
    "Curve1D", "GridPoint", "prefix_minima", "suffix_minima",
    "closest_pair_1d", "frechet_matching_1d",
    "greedy_step", "build_greedy_forest", "bichromatic_intersections",
    "propagate_reachability",
    "GeodesicPath", "shortest_path", "geodesic_distance", "edge_profile",
    "ray_shoot", "threshold_crossings",
    "NNProfile", "Fan", "Slab", "EmptyFanLeaf", "nn_profile",
    "nn_profile_reverse", "fan_leaf", "build_slabs",
    "TransitPoint", "transit_exits_on_segment", "transit_exits_on_interval",
    "advance_near_slab",
    "AnchorSet", "GateSet", "build_separator_anchors", "build_gate_sets",
    "snapped_curves", "far_decide", "far_find_exit",
    "convex_frechet", "tangent_pairs", "parallel_matching_cost",
    "geodesic_hausdorff", "approx_decide", "approx_optimize",
]

__version__ = "0.1.0"
