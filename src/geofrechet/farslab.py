"""Crossing a far slab through anchored separators.

Inside a far slab every matched pair is joined by a geodesic crossing the
separator between the slab's bounding B-vertices. Distances are snapped to
sums through evenly spaced anchor points on the separator, which turns the
2D decision into a chain of 1D separated-curve propagations between gate
sets. The chain is walked once, and each anchor's gate set is built only
when the propagation reaches that anchor. Snapped sums always dominate
true geodesic distances, so a YES answer certifies a valid matching at
the inflated threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ParamPoint, Point2, PolyCurve, PolygonInstance
from .geodesic import GeodesicPath, _ray_hit, get_engine
from .oned import Curve1D, GridPoint, propagate_reachability
from .nearslab import TransitPoint, transit_exits_on_interval
from .nnprofile import Slab

_NUDGE = 1e-9
_EPS_CLAMP = 1e-12
_HIT_TOL = 1e-7  # a ray hit farther than this from a curve misses it


@dataclass
class AnchorSet:
    separator: GeodesicPath
    anchors: list  # K+1 points, endpoints included
    K: int


@dataclass
class GateSet:
    anchor: Point2
    points: list  # ParamPoint pairs (x on R-hat, y on B-hat)


def _polyline_eval(waypoints, prefix, s):
    """Point at arc length s along the waypoint polyline."""
    s = min(max(s, 0.0), prefix[-1])
    for k in range(1, len(prefix)):
        if s <= prefix[k] + 1e-15:
            seg = prefix[k] - prefix[k - 1]
            t = 0.0 if seg <= 1e-15 else (s - prefix[k - 1]) / seg
            a, b = waypoints[k - 1], waypoints[k]
            return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
    return tuple(waypoints[-1])


def build_separator_anchors(inst: PolygonInstance, b1, b2, delta: float,
                            eps: float):
    """Evenly spaced anchors on the geodesic b1-b2, spacing at most
    eps*delta. Returns None when the separator is longer than 2*delta,
    in which case no delta-matching can cross the slab."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    eng = get_engine(inst)
    sep = eng.shortest_path(tuple(b1), tuple(b2))
    L = sep.length
    if L > 2.0 * delta * (1 + 1e-9) + 1e-12:
        return None
    w = sep.waypoints
    prefix = [0.0]
    for k in range(1, len(w)):
        prefix.append(prefix[-1] + math.hypot(w[k][0] - w[k - 1][0],
                                              w[k][1] - w[k - 1][1]))
    K = 1 if delta <= 0 or L <= 0 else max(1, int(math.ceil(L / (eps * delta))))
    anchors = []
    for k in range(K + 1):
        s = L * k / K
        p = _polyline_eval(w, prefix, s)
        if 0 < k < K:
            # keep interior anchors off polygon vertices
            for v in w:
                if math.hypot(p[0] - v[0], p[1] - v[1]) <= 1e-12:
                    p = _polyline_eval(w, prefix, s + _NUDGE * L)
                    break
        anchors.append(Point2(float(p[0]), float(p[1])))
    return AnchorSet(sep, anchors, K)


class _HitParams:
    """Parameters on one curve of ray hits on the polygon boundary. A hit
    on boundary segment k is looked up on the curve edges at the two end
    vertices of the segment (a subcurve's interior vertices are boundary
    vertices) and on the first and last edge, whose outer ends may lie
    inside the segment. Another edge could hold the hit only if two
    boundary edges without a common vertex came within _HIT_TOL."""

    def __init__(self, inst: PolygonInstance, curve: PolyCurve):
        self.bd = [tuple(v) for v in inst.boundary.tolist()]
        self.pts = curve.pts.tolist()
        self.index = {}
        for i, v in enumerate(self.pts, 1):
            self.index.setdefault(tuple(v), []).append(i)

    def param(self, p, k: int):
        """Curve parameter of the point p of boundary segment k, or None if
        p is not within _HIT_TOL of the curve (the nearest edge wins, then
        the first)."""
        n = len(self.pts)
        last = max(n - 1, 1)
        edges = {1, last}
        for v in (self.bd[k], self.bd[(k + 1) % len(self.bd)]):
            for i in self.index.get(v, ()):
                edges.update((i - 1, i))
        best = None
        for i in sorted(edges):
            if not 1 <= i <= last:
                continue
            a = self.pts[min(i, n) - 1]
            b = self.pts[min(i + 1, n) - 1]
            dx, dy = b[0] - a[0], b[1] - a[1]
            L2 = dx * dx + dy * dy
            if L2 <= 1e-30:
                t = 0.0
            else:
                t = min(max(((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / L2, 0.0), 1.0)
            d = math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)
            if d <= _HIT_TOL and (best is None or d < best[1]):
                best = (min(i + t, float(n)), d)
        return None if best is None else best[0]


def _extend_through(inst, eng, p, anchor, target: _HitParams):
    """Parameter where the geodesic p -> anchor, extended straight past the
    anchor, first meets the target curve; None when it misses."""
    path = eng.shortest_path(tuple(p), tuple(anchor))
    w = path.waypoints
    if len(w) < 2:
        return None
    prev = w[-2]
    d = (anchor[0] - prev[0], anchor[1] - prev[1])
    if math.hypot(d[0], d[1]) <= 1e-15:
        return None
    try:
        hit, k = _ray_hit(inst, tuple(anchor), d)
    except ValueError:
        return None
    return target.param(hit, k)


def _gate_candidates(inst, eng, curve: PolyCurve, anchor):
    """Curve points whose geodesic to the anchor is locally extremal:
    the vertices plus each edge's closest point."""
    out = [float(i) for i in range(1, curve.n + 1)]
    for i in range(1, curve.n):
        prof = eng.segment_profile(tuple(anchor), curve.pts[i - 1], curve.pts[i])
        t, _v = prof.minimum()
        if 1e-9 < t < 1 - 1e-9:
            out.append(i + t)
    return out


def build_gate_sets(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
                    anchorset: AnchorSet) -> list[GateSet]:
    """Gate pairs for the interior anchors: each candidate point on one
    curve is paired with the ray extension of its geodesic through the
    anchor onto the other curve. `far_decide` builds them one anchor at a
    time, as its propagation reaches each anchor."""
    eng = get_engine(inst)
    curves = (Rhat, Bhat)
    hits = (_HitParams(inst, Rhat), _HitParams(inst, Bhat))
    out = []
    for a in anchorset.anchors[1:-1]:
        cands = [_gate_candidates(inst, eng, c, a) for c in curves]
        pts = {}  # rounded (x, y) -> ParamPoint, in first-seen order
        for side in (0, 1):
            for s in cands[side]:
                p = curves[side].eval(s)
                if eng.distance(tuple(p), tuple(a)) <= 1e-9:
                    # the anchor sits on this curve itself: the crossing
                    # line is free, pair it with every candidate opposite
                    others = cands[1 - side]
                else:
                    t = _extend_through(inst, eng, p, a, hits[1 - side])
                    others = () if t is None else (t,)
                for t in others:
                    x, y = (s, t) if side == 0 else (t, s)
                    pts.setdefault((round(x, 9), round(y, 9)),
                                   ParamPoint(float(x), float(y)))
        out.append(GateSet(a, list(pts.values())))
    return out


def _snap_samples(inst, curve: PolyCurve, anchor, extra=()):
    """Parameters at which the snapped distance d(curve(x), anchor) is
    sampled, ascending, and the distances there. The samples are the
    vertices, profile piece boundaries and per-piece minima, kept more than
    1e-9 apart, plus every parameter of `extra` exactly. The value at x
    comes from the profile of edge i = min(max(floor(x), 1), n - 1),
    evaluated at x - i.

    On one piece the distance is convex in t (a constant plus the distance
    to the piece's apex), and consecutive samples lie in one piece, so the
    linear snapped curve dominates it and a YES stays sound."""
    eng = get_engine(inst)
    extra = {float(x) for x in extra}
    if curve.n == 1:
        xs = sorted({1.0} | extra)
        return xs, [eng.distance(tuple(curve.pts[0]), tuple(anchor))] * len(xs)
    profs = [eng.segment_profile(tuple(anchor), curve.pts[i - 1], curve.pts[i])
             for i in range(1, curve.n)]
    ps = []
    for i, prof in enumerate(profs, 1):
        ps.append(float(i))
        for (t0, t1, apex, _D) in prof.pieces:
            dx = curve.pts[i][0] - curve.pts[i - 1][0]
            dy = curve.pts[i][1] - curve.pts[i - 1][1]
            L2 = dx * dx + dy * dy
            if L2 > 1e-30:
                tm = ((apex[0] - curve.pts[i - 1][0]) * dx +
                      (apex[1] - curve.pts[i - 1][1]) * dy) / L2
                tm = min(max(tm, t0), t1)
            else:
                tm = t0
            for t in (t0, tm, t1):
                ps.append(i + t)
    ps.append(float(curve.n))
    ps.sort()
    out = [ps[0]]
    for x in ps[1:]:
        if x > out[-1] + 1e-9:
            out.append(x)
    xs = sorted(set(out) | extra)
    vals = []
    for x in xs:
        i = min(max(int(math.floor(x)), 1), curve.n - 1)
        vals.append(profs[i - 1].eval(x - i))
    return xs, vals


def _snapped_with_params(inst, Rhat: PolyCurve, Bhat: PolyCurve, anchor,
                         extra_x=(), extra_y=()):
    xs, rd = _snap_samples(inst, Rhat, anchor, extra_x)
    ys, bd = _snap_samples(inst, Bhat, anchor, extra_y)
    r = Curve1D([-max(d, _EPS_CLAMP) for d in rd], "left")
    b = Curve1D([max(d, _EPS_CLAMP) for d in bd], "right")
    return r, b, xs, ys


def snapped_curves(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
                   anchor):
    """Separated 1D curves of the snapped distances through the anchor:
    R maps to -d(R(x), a), B to +d(a, B(y))."""
    r, b, _xs, _ys = _snapped_with_params(inst, Rhat, Bhat, anchor)
    return r, b


def _propagate_space(inst, Rhat, Bhat, anchor, sources, targets, thr):
    """Points of `targets` reachable from `sources` inside the snapped
    free space of the anchor at threshold thr. Both sets are sampled
    exactly, so their grid indices are looked up, not searched for."""
    r, b, xs, ys = _snapped_with_params(
        inst, Rhat, Bhat, anchor,
        extra_x=[p[0] for p in sources] + [p[0] for p in targets],
        extra_y=[p[1] for p in sources] + [p[1] for p in targets])
    dl = thr * (1 + 1e-9) + 1e-12
    ix = {x: i for i, x in enumerate(xs, 1)}
    iy = {y: j for j, y in enumerate(ys, 1)}

    def free(pts):
        gs = [GridPoint(ix[p[0]], iy[p[1]]) for p in pts]
        return [g for g in gs if r.a(g.i) + b.a(g.j) <= dl]

    S, E = free(sources), free(targets)
    if not S or not E:
        return []
    reach = propagate_reachability(r, b, dl, S, E)
    return [ParamPoint(xs[g.i - 1], ys[g.j - 1]) for g in reach]


def far_decide(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
               delta: float, eps: float) -> bool:
    """Can a bimonotone matching of Rhat to Bhat stay within (1+eps)*delta,
    assuming every matched geodesic crosses the Bhat-endpoint separator?
    YES answers are sound at (1+eps)*delta; NO answers are reliable for
    true cost above delta.

    Interval k of the K anchor intervals propagates in the snapped space
    of its midpoint to the gate set of anchor k+1, built as the interval
    starts (the last interval reaches the end corner instead), so a
    decision that stops in interval k builds k+1 gate sets."""
    anch = build_separator_anchors(inst, Bhat.pts[0], Bhat.pts[-1], delta, eps)
    if anch is None:
        return False
    thr = (1 + eps) * delta
    A = anch.anchors
    cur = [ParamPoint(1.0, 1.0)]
    for k in range(anch.K):
        if k + 1 < anch.K:
            window = AnchorSet(anch.separator, A[k:k + 3], 2)
            targets = build_gate_sets(inst, Rhat, Bhat, window)[0].points
        else:
            targets = [ParamPoint(float(Rhat.n), float(Bhat.n))]
        mid = Point2(0.5 * (A[k][0] + A[k + 1][0]), 0.5 * (A[k][1] + A[k + 1][1]))
        cur = _propagate_space(inst, Rhat, Bhat, mid, cur, targets, thr)
        if not cur:
            return False
    return True


def far_find_exit(inst: PolygonInstance, slab: Slab, entrance: TransitPoint,
                  delta: float, eps: float):
    """Leftmost transit exit of a far slab reachable from the entrance at
    threshold (1+eps)*delta; None when the slab cannot be crossed.
    Reachability is monotone in the candidate index: the probes are 0, 1,
    2, 4, ... (powers of 2 up to the last index), then the last index,
    then a bisection between the last failing and the first passing
    probe, so no index is probed twice."""
    if slab.kind != "far":
        raise ValueError("far_find_exit requires a far slab")
    x0 = entrance.point.x
    cands = [tp for tp in transit_exits_on_interval(inst, slab.y_hi, slab.exit)
             if tp.point.x >= x0 - 1e-12]
    if not cands:
        return None
    Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)

    def ok(k):
        Rhat = inst.R.subcurve(x0, max(cands[k].point.x, x0))
        return far_decide(inst, Rhat, Bhat, delta, eps)

    last = len(cands) - 1
    lo, hi = -1, 0  # the last failing probe, the next probe
    while not ok(hi):
        if hi == last:
            return None
        lo, hi = hi, min(max(2 * hi, 1), last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return cands[hi]
