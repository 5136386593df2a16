"""Crossing a far slab through anchored separators.

Inside a far slab every matched pair is joined by a geodesic crossing the
separator between the slab's bounding B-vertices. Distances are snapped to
sums through evenly spaced anchor points on the separator, which turns the
2D decision into a chain of 1D separated-curve propagations between gate
sets. The chain is walked once, and each anchor's gate set is built only
when the propagation reaches that anchor. Snapped sums always dominate
true geodesic distances, so a YES answer certifies a valid matching at
the inflated threshold.

`far_find_exit` decides one R-hat per transit exit it probes, all against
the same B-hat and anchors. The probes share one `_Crossing`, which keeps
what depends on B-hat and the anchors alone: each anchor's B-hat gate
candidates with their ray hits, the ray results of R-hat points keyed by
the exact point and anchor, and the snapped B-hat samples at each
interval midpoint. A probe adds only the work of its own R-hat and
decides exactly as a fresh `far_decide` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ParamPoint, Point2, PolyCurve, PolygonInstance
from .geodesic import GeodesicPath, _ray_hit, get_engine
from .oned import Curve1D, GridPoint, propagate_reachability
from .nearslab import TransitPoint, _exits_right_of
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
    boundary edges without a common vertex came within _HIT_TOL. The
    candidate edges of a segment are kept once found."""

    def __init__(self, inst: PolygonInstance, curve: PolyCurve):
        self.bd = [tuple(v) for v in inst.boundary.tolist()]
        self.pts = curve.pts.tolist()
        self.index = {}
        for i, v in enumerate(self.pts, 1):
            self.index.setdefault(tuple(v), []).append(i)
        self.edges = {}  # boundary segment -> (i, a, edge vector, length^2)

    def _edges_at(self, k: int) -> list:
        n = len(self.pts)
        last = max(n - 1, 1)
        found = {1, last}
        for v in (self.bd[k], self.bd[(k + 1) % len(self.bd)]):
            for i in self.index.get(v, ()):
                found.update((i - 1, i))
        out = []
        for i in sorted(found):
            if 1 <= i <= last:
                a = self.pts[min(i, n) - 1]
                b = self.pts[min(i + 1, n) - 1]
                dx, dy = b[0] - a[0], b[1] - a[1]
                out.append((i, a[0], a[1], dx, dy, dx * dx + dy * dy))
        return out

    def param(self, p, k: int):
        """Curve parameter of the point p of boundary segment k, or None if
        p is not within _HIT_TOL of the curve (the nearest edge wins, then
        the first)."""
        edges = self.edges.get(k)
        if edges is None:
            edges = self.edges[k] = self._edges_at(k)
        n = float(len(self.pts))
        best = None
        for i, ax, ay, dx, dy, L2 in edges:
            if L2 <= 1e-30:
                t = 0.0
            else:
                t = min(max(((p[0] - ax) * dx + (p[1] - ay) * dy) / L2, 0.0), 1.0)
            d = math.hypot(p[0] - ax - t * dx, p[1] - ay - t * dy)
            if d <= _HIT_TOL and (best is None or d < best[1]):
                best = (min(i + t, n), d)
        return None if best is None else best[0]


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


class _Snap:
    """Snapped distances d(curve(x), anchor). The base samples are the
    vertices, profile piece boundaries and per-piece minima, kept more than
    1e-9 apart. The value at x comes from the profile of edge
    i = min(max(floor(x), 1), n - 1), evaluated at x - i.

    On one piece the distance is convex in t (a constant plus the distance
    to the piece's apex), and consecutive samples lie in one piece, so the
    linear snapped curve dominates it and a YES stays sound."""

    def __init__(self, inst, curve: PolyCurve, anchor):
        eng = get_engine(inst)
        self.anchor = anchor
        self.n = n = curve.n
        self.values = {}  # parameter -> distance
        if n == 1:
            self.xs = [1.0]
            self.d0 = eng.distance(tuple(curve.pts[0]), tuple(anchor))
            return
        P = curve.pts.tolist()
        self.profs = [eng.segment_profile(tuple(anchor), P[i - 1], P[i])
                      for i in range(1, n)]
        ps = []
        for i, prof in enumerate(self.profs, 1):
            ps.append(float(i))
            (x0, y0), (x1, y1) = P[i - 1], P[i]
            dx, dy = x1 - x0, y1 - y0
            L2 = dx * dx + dy * dy
            for (t0, t1, apex, _D) in prof.pieces:
                if L2 > 1e-30:
                    tm = ((apex[0] - x0) * dx + (apex[1] - y0) * dy) / L2
                    tm = min(max(tm, t0), t1)
                else:
                    tm = t0
                for t in (t0, tm, t1):
                    ps.append(i + t)
        ps.append(float(n))
        ps.sort()
        self.xs = [ps[0]]
        for x in ps[1:]:
            if x > self.xs[-1] + 1e-9:
                self.xs.append(x)

    def value(self, x: float) -> float:
        v = self.values.get(x)
        if v is None:
            if self.n == 1:
                v = self.d0
            else:
                i = min(max(int(math.floor(x)), 1), self.n - 1)
                v = self.profs[i - 1].eval(x - i)
            self.values[x] = v
        return v

    def samples(self, extra=()):
        """The base samples plus every parameter of `extra` exactly,
        ascending, and the distances there."""
        xs = sorted(set(self.xs).union(map(float, extra)))
        return xs, [self.value(x) for x in xs]


def _curves_1d(rd, bd):
    """Separated 1D curves of the snapped distances: R maps to -d, B to +d."""
    return (Curve1D([-max(d, _EPS_CLAMP) for d in rd], "left"),
            Curve1D([max(d, _EPS_CLAMP) for d in bd], "right"))


def snapped_curves(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
                   anchor):
    """Separated 1D curves of the snapped distances through the anchor:
    R maps to -d(R(x), a), B to +d(a, B(y))."""
    return _curves_1d(_Snap(inst, Rhat, anchor).samples()[1],
                      _Snap(inst, Bhat, anchor).samples()[1])


def _propagate_space(inst, Rhat, bsnap: _Snap, sources, targets, thr):
    """Points of `targets` reachable from `sources` inside the snapped
    free space of the anchor of `bsnap` (the snapped samples of B-hat) at
    threshold thr. Both sets are sampled exactly, so their grid indices are
    looked up, not searched for."""
    xs, rd = _Snap(inst, Rhat, bsnap.anchor).samples(
        [p[0] for p in sources] + [p[0] for p in targets])
    ys, bd = bsnap.samples([p[1] for p in sources] + [p[1] for p in targets])
    r, b = _curves_1d(rd, bd)
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


class _Crossing:
    """A far-slab crossing of one B-hat through its separator anchors, with
    what the decisions for different R-hat share, built as they first need
    it: each interior anchor's B-hat gate candidates and their ray hits,
    the ray extension of each R-hat point through each anchor onto B-hat
    (keyed by the exact point), one ray per anchor and last bend of the
    geodesics through it, and the snapped B-hat samples at each anchor
    interval's midpoint. All of it depends on B-hat and the anchors
    alone, so a decision for another R-hat adds only its own work and
    returns what a fresh crossing returns."""

    def __init__(self, inst: PolygonInstance, Bhat: PolyCurve, anchorset: AnchorSet):
        self.inst, self.eng = inst, get_engine(inst)
        self.Bhat, self.anchorset = Bhat, anchorset
        self.hits = _HitParams(inst, Bhat)
        self.bside = {}  # anchor index -> (candidates, [(on the anchor, ray hit)])
        self.rays = {}   # (x, y, anchor index) -> B-hat parameters to pair with
        self.shots = {}  # (anchor index, x, y of the last bend) -> ray hit
        self.snaps = {}  # interval index -> _Snap of B-hat at its midpoint

    def _ray(self, p, k: int):
        """(boundary point, boundary segment) where the geodesic from p to
        anchor k, extended straight past the anchor, meets the boundary;
        None when it has no last direction or the ray misses. Geodesics
        through one last bend share the ray."""
        a = self.anchorset.anchors[k]
        w = self.eng.shortest_path(tuple(p), tuple(a)).waypoints
        if len(w) < 2:
            return None
        prev = w[-2]
        key = (k, prev[0], prev[1])
        if key not in self.shots:
            d = (a[0] - prev[0], a[1] - prev[1])
            hit = None
            if math.hypot(d[0], d[1]) > 1e-15:
                try:
                    hit = _ray_hit(self.inst, tuple(a), d)
                except ValueError:
                    pass
            self.shots[key] = hit
        return self.shots[key]

    def _b_side(self, k: int):
        a = self.anchorset.anchors[k]
        cands = _gate_candidates(self.inst, self.eng, self.Bhat, a)
        hits = []
        for s in cands:
            p = self.Bhat.eval(s)
            on = self.eng.distance(p, a) <= 1e-9
            hits.append((on, None if on else self._ray(p, k)))
        return cands, hits

    def gate_set(self, Rhat: PolyCurve, rhits: _HitParams, k: int) -> GateSet:
        """Gate pairs at interior anchor k: each candidate point on one
        curve is paired with the ray extension of its geodesic through the
        anchor onto the other curve. A candidate on the anchor itself sits
        on a free crossing line and pairs with every candidate opposite.
        `rhits` is _HitParams of Rhat."""
        eng, a = self.eng, self.anchorset.anchors[k]
        if k not in self.bside:
            self.bside[k] = self._b_side(k)
        bcands, bhits = self.bside[k]
        rcands = _gate_candidates(self.inst, eng, Rhat, a)
        pts = {}  # rounded (x, y) -> ParamPoint, in first-seen order
        for s in rcands:
            p = Rhat.eval(s)
            key = (p[0], p[1], k)
            ts = self.rays.get(key)
            if ts is None:
                if eng.distance(p, a) <= 1e-9:
                    ts = bcands
                else:
                    hit = self._ray(p, k)
                    t = None if hit is None else self.hits.param(*hit)
                    ts = () if t is None else (t,)
                self.rays[key] = ts
            for t in ts:
                pts.setdefault((round(s, 9), round(t, 9)),
                               ParamPoint(float(s), float(t)))
        for s, (on, hit) in zip(bcands, bhits):
            if on:
                others = rcands
            else:
                t = None if hit is None else rhits.param(*hit)
                others = () if t is None else (t,)
            for t in others:
                pts.setdefault((round(t, 9), round(s, 9)),
                               ParamPoint(float(t), float(s)))
        return GateSet(a, list(pts.values()))

    def reaches(self, Rhat: PolyCurve, thr: float) -> bool:
        """Whether the snapped propagation at threshold thr gets from
        (1, 1) to the end corner of Rhat x B-hat.

        Interval k of the K anchor intervals propagates in the snapped
        space of its midpoint to the gate set of anchor k+1, built as the
        interval starts (the last interval reaches the end corner instead),
        so a decision that stops in interval k builds k+1 gate sets."""
        A, K = self.anchorset.anchors, self.anchorset.K
        rhits = _HitParams(self.inst, Rhat)
        cur = [ParamPoint(1.0, 1.0)]
        for k in range(K):
            if k + 1 < K:
                targets = self.gate_set(Rhat, rhits, k + 1).points
            else:
                targets = [ParamPoint(float(Rhat.n), float(self.Bhat.n))]
            if k not in self.snaps:
                mid = Point2(0.5 * (A[k][0] + A[k + 1][0]),
                             0.5 * (A[k][1] + A[k + 1][1]))
                self.snaps[k] = _Snap(self.inst, self.Bhat, mid)
            cur = _propagate_space(self.inst, Rhat, self.snaps[k], cur,
                                   targets, thr)
            if not cur:
                return False
        return True


def build_gate_sets(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
                    anchorset: AnchorSet) -> list[GateSet]:
    """Gate pairs for the interior anchors (see _Crossing.gate_set). A
    decision builds them one anchor at a time, as its propagation reaches
    each anchor."""
    crossing = _Crossing(inst, Bhat, anchorset)
    rhits = _HitParams(inst, Rhat)
    return [crossing.gate_set(Rhat, rhits, k)
            for k in range(1, len(anchorset.anchors) - 1)]


def far_decide(inst: PolygonInstance, Rhat: PolyCurve, Bhat: PolyCurve,
               delta: float, eps: float) -> bool:
    """Can a bimonotone matching of Rhat to Bhat stay within (1+eps)*delta,
    assuming every matched geodesic crosses the Bhat-endpoint separator?
    YES answers are sound at (1+eps)*delta; NO answers are reliable for
    true cost above delta. See _Crossing.reaches."""
    anch = build_separator_anchors(inst, Bhat.pts[0], Bhat.pts[-1], delta, eps)
    if anch is None:
        return False
    return _Crossing(inst, Bhat, anch).reaches(Rhat, (1 + eps) * delta)


def far_find_exit(inst: PolygonInstance, slab: Slab, entrance: TransitPoint,
                  delta: float, eps: float):
    """Leftmost transit exit of a far slab reachable from the entrance at
    threshold (1+eps)*delta; None when the slab cannot be crossed.
    Reachability is monotone in the candidate index: the probes are 0, 1,
    2, 4, ... (powers of 2 up to the last index), then the last index,
    then a bisection between the last failing and the first passing
    probe, so no index is probed twice. Candidates are generated only up
    to the index probed. Each probe is the decision of `far_decide` for
    R[x0, candidate], and all of them share one _Crossing of the slab's
    B-hat."""
    if slab.kind != "far":
        raise ValueError("far_find_exit requires a far slab")
    x0 = entrance.point.x
    more = _exits_right_of(inst, slab.y_hi, slab.exit, x0)
    cands = []

    def have(k):
        """Whether candidate k exists, generating candidates up to it."""
        while len(cands) <= k:
            tp = next(more, None)
            if tp is None:
                return False
            cands.append(tp)
        return True

    if not have(0):
        return None
    Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
    anch = build_separator_anchors(inst, Bhat.pts[0], Bhat.pts[-1], delta, eps)
    if anch is None:  # every probe would answer NO
        return None
    crossing = _Crossing(inst, Bhat, anch)
    thr = (1 + eps) * delta

    def ok(k):
        return crossing.reaches(inst.R.subcurve(x0, max(cands[k].point.x, x0)), thr)

    lo, hi = -1, 0  # the last failing probe, the next probe
    while not ok(hi):
        nxt = max(2 * hi, 1)
        if not have(nxt):  # every candidate is generated: nxt is past the last
            if hi == len(cands) - 1:
                return None
            nxt = len(cands) - 1
        lo, hi = hi, nxt
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return cands[hi]
