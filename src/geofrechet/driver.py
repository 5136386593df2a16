"""Top-level approximation driver.

The decision walks the slab partition bottom-up, advancing one transit
point per slab boundary: exact greedy steps through near slabs, anchored
snapped propagation through far slabs, whose probes for one exit share
the work that depends on the slab alone. The optimizer grid-searches
powers of an internal (1+eps') between the Hausdorff lower bound and its
tripled upper bound, with (1+eps')^2 = 1+eps so the two-sided loss
composes to the requested factor. The Hausdorff bound is the larger top
of the two nearest-neighbour profiles; the reverse one is refined only
where it can still raise that top.
"""
from __future__ import annotations

import math

from .geometry import ParamPoint, PolygonInstance
from .nnprofile import EmptyFanLeaf, _reverse_top, build_slabs, fan_leaf, nn_profile
from .nearslab import TransitPoint, advance_near_slab
from .farslab import far_find_exit


def geodesic_hausdorff(inst: PolygonInstance) -> float:
    """Symmetric geodesic Hausdorff distance between R and B: the larger
    maximum of the two nearest-neighbour profiles. The reverse profile
    (B onto R) feeds only this maximum, so its brackets that cannot raise
    it are never split."""
    if inst.degenerate:
        return 0.0
    if "hausdorff" not in inst._cache:
        inst._cache["hausdorff"] = _reverse_top(inst, nn_profile(inst).max_value())
    return inst._cache["hausdorff"]


def decision_chain(inst: PolygonInstance, delta: float, eps: float):
    """(answer, transit chain) of the slab walk; the chain is bimonotone."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    chain = [ParamPoint(1.0, 1.0)]
    if delta < 0:
        return False, chain
    if inst.degenerate:
        return True, chain + [ParamPoint(float(inst.R.n), float(inst.B.n))]
    d_h = geodesic_hausdorff(inst)
    if delta < d_h * (1 - 1e-9) - 1e-12:
        return False, chain
    profile = nn_profile(inst)
    try:
        slabs = build_slabs(inst, profile, delta)
    except EmptyFanLeaf:
        return False, chain
    cur = TransitPoint(ParamPoint(1.0, 1.0), "vertex")
    for slab in slabs:
        if slab.y_hi <= slab.y_lo + 1e-12 and slab.y_lo <= 1.0 + 1e-12:
            continue
        if slab.kind == "near":
            nxt = advance_near_slab(inst, slab, cur, delta)
        else:
            nxt = far_find_exit(inst, slab, cur, delta, eps)
        if nxt is None:
            return False, chain
        cur = nxt
        chain.append(cur.point)
    # the rest of R must stay within (1+eps)*delta of B's end
    tail = fan_leaf(inst, inst.B.pts[-1], float(inst.R.n), (1 + eps) * delta)
    ok = tail.leaf[0] <= cur.point.x + 1e-12
    if ok:
        chain.append(ParamPoint(float(inst.R.n), float(inst.B.n)))
    return ok, chain


def approx_decide(inst: PolygonInstance, delta: float, eps: float) -> bool:
    """YES when some bimonotone matching stays within (1+eps)*delta; a NO
    is reliable whenever the true Frechet distance exceeds delta."""
    return decision_chain(inst, delta, eps)[0]


def approx_optimize(inst: PolygonInstance, eps: float) -> float:
    """(1+eps)-approximation of the geodesic Frechet distance."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d_h = geodesic_hausdorff(inst)
    if d_h < 1e-12:
        return 0.0
    ep = math.sqrt(1 + eps) - 1
    imax = int(math.ceil(math.log(3.0) / math.log1p(ep)))
    # below the Hausdorff bound every answer is NO; grid point imax lies at
    # or above 3*d_h >= d_F, so its answer is YES without deciding it
    lo, hi = -1, imax
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if approx_decide(inst, d_h * (1 + ep) ** mid, ep):
            hi = mid
        else:
            lo = mid
    return (1 + ep) * d_h * (1 + ep) ** hi
