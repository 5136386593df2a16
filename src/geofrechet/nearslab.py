"""Advancing a matching through a near slab.

A transit point has its R-coordinate at a curve vertex or at a point
locally closest to the paired B-point. The fan region of a near slab is
connected and bimonotone, so the leftmost transit exit right of the
entrance is the correct greedy choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ParamPoint, PolygonInstance
from .geodesic import edge_profile
from .nnprofile import Slab


@dataclass(frozen=True)
class TransitPoint:
    point: ParamPoint
    kind: str  # "vertex" | "locally-closest"


def _mk_transit(x: float, y: float) -> TransitPoint:
    kind = "vertex" if abs(x - round(x)) <= 1e-12 else "locally-closest"
    return TransitPoint(ParamPoint(float(x), float(y)), kind)


def transit_exits_on_segment(inst: PolygonInstance, i: int, y: float,
                             exit_interval) -> list[TransitPoint]:
    """Transit exits on R-edge [i, i+1] at row y: the clipped interval
    endpoints plus the locally closest point, at most three in total."""
    lo, hi = float(exit_interval[0]), float(exit_interval[1])
    a = max(float(i), lo)
    b = min(float(i + 1), hi)
    if a > b + 1e-12:
        raise ValueError("edge does not intersect the exit interval")
    apex = inst.B.eval(y)
    out = [a, b]
    prof = edge_profile(inst, apex, inst.R, i)
    if a + 1e-12 < prof.min_param < b - 1e-12:
        out.append(prof.min_param)
    pts = []
    for x in sorted(out):
        if not pts or abs(x - pts[-1].point.x) > 1e-12:
            pts.append(_mk_transit(x, y))
    return pts


def _exits(inst: PolygonInstance, y: float, interval, start: int):
    """Transit exits of a row interval in order of x, generated edge by
    edge from R-edge `start` on (or the interval's first edge); each exit
    within 1e-12 of the one kept before it is dropped."""
    lo, hi = float(interval[0]), float(interval[1])
    n = inst.R.n
    last = None
    i0 = max(1, min(int(math.floor(lo)), n - 1))
    i1 = max(1, min(int(math.ceil(hi)) - 1, n - 1))
    for i in range(max(i0, start), i1 + 1):
        if float(i + 1) < lo - 1e-12 or float(i) > hi + 1e-12:
            continue
        for tp in transit_exits_on_segment(inst, i, y, (lo, hi)):
            if last is None or tp.point.x > last + 1e-12:
                last = tp.point.x
                yield tp


def transit_exits_on_interval(inst: PolygonInstance, y: float,
                              interval) -> list[TransitPoint]:
    """All transit exits of a row interval, ordered by x."""
    return list(_exits(inst, y, interval, 1))


def _exits_right_of(inst: PolygonInstance, y: float, interval, x0: float):
    """The exits of transit_exits_on_interval at or right of x0 - 1e-12,
    generated lazily from the edge before the one holding x0. The exits of
    the skipped edges could only decide which exits within 1e-12 of that
    edge's start are dropped, and those lie left of x0 - 1e-12."""
    return (tp for tp in _exits(inst, y, interval, int(math.floor(x0)) - 1)
            if tp.point.x >= x0 - 1e-12)


def advance_near_slab(inst: PolygonInstance, slab: Slab, entrance: TransitPoint,
                      delta: float):
    """Leftmost transit exit right of the entrance, or None when stuck."""
    if slab.kind != "near":
        raise ValueError("advance_near_slab requires a near slab")
    x0 = entrance.point.x
    lo, hi = slab.exit
    if x0 > hi + 1e-12:
        return None
    return next(_exits_right_of(inst, slab.y_hi, slab.exit, x0), None)
