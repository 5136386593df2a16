"""Exact Fréchet matching for curves bounding a convex polygon.

`tangent_pairs` is a rotating-calipers sweep (Toussaint 1983). The caliper
normal turns through every edge normal of the boundary and the midpoints
between consecutive ones, sorted once in O(N log N). The two contact
pointers, one per supporting line, only advance along the CCW cycle, so a
step costs O(1) amortized plus the size of its contact sets; whether a
contact lies on R or on B, and its curve parameter, is read off its
boundary index.

Each antipodal tangent pair splits a matching into two endpoint fans around
the shared endpoints and a middle part that matches points lying on a
common line parallel to r*-b*. The split costs O(n + m) array steps per
pair and gives a lower bound on the pair's cost: max(d*, fan cost), where
d* = |r* - b*| is the cost of the middle part (the affine-diameter
property of convex bodies). d* alone is a lower bound that needs no split,
so `convex_frechet` splits pairs in increasing d* only while one could
still come before the lowest pending bound and below the best cost, and
builds a pair's full matching in increasing bound only while that bound is
below the best cost found, which is one merge unless bounds tie. The
minimum over all caliper pairs is the exact Fréchet distance. The sweep and
the sort by d* take O(N log N); a split is still O(N) numpy work, so the
worst case stays O(N^2), but the benchmark ellipses split one pair each.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import MatchingPath, ParamPoint, Point2, PolygonInstance, boundary_params
from .geodesic import get_engine

_TOL = 1e-9
_ON_CURVE_TOL = 1e-7  # a point this close to a curve edge lies on it


@dataclass(frozen=True)
class TangentPair:
    r_star: Point2
    b_star: Point2
    direction: Point2  # unit direction of the parallel tangent lines


def _seg_seg_closest(a0, a1, b0, b1):
    """Closest pair of points between segments a0-a1 and b0-b1."""
    def pt_on_seg(p, s0, s1):
        dx, dy = s1[0] - s0[0], s1[1] - s0[1]
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0 else min(max(((p[0] - s0[0]) * dx + (p[1] - s0[1]) * dy) / L2, 0.0), 1.0)
        return (s0[0] + t * dx, s0[1] + t * dy)

    cands = []
    for p in (a0, a1):
        q = pt_on_seg(p, b0, b1)
        cands.append((p, q))
    for q in (b0, b1):
        p = pt_on_seg(q, a0, a1)
        cands.append((p, q))
    # parallel overlap handled by the endpoint projections above
    best = min(cands, key=lambda pq: math.hypot(pq[0][0] - pq[1][0], pq[0][1] - pq[1][1]))
    return best


def _param_between(curve, pt, p0, p1):
    """Parameter of a point lying on the curve between the vertices with
    parameters p0 and p1, or None."""
    if p0 == p1:
        return float(p0)
    for i in range(min(p0, p1), max(p0, p1)):
        a, b = curve.pts[i - 1], curve.pts[i]
        dx, dy = b[0] - a[0], b[1] - a[1]
        L2 = dx * dx + dy * dy
        if L2 == 0:
            if math.hypot(pt[0] - a[0], pt[1] - a[1]) <= _ON_CURVE_TOL:
                return float(i)
            continue
        t = ((pt[0] - a[0]) * dx + (pt[1] - a[1]) * dy) / L2
        t = min(max(t, 0.0), 1.0)
        if math.hypot(pt[0] - a[0] - t * dx, pt[1] - a[1] - t * dy) <= _ON_CURVE_TOL:
            return i + t
    return None


def _check_convex(inst: PolygonInstance):
    if inst.degenerate:
        return
    if not get_engine(inst).convex:
        raise ValueError("instance is not convex")


def _caliper_directions(xy):
    """Caliper normal angles in [0, pi): every edge normal plus the
    midpoints between consecutive normals (vertex-vertex antipodal
    events), rounded to 12 decimals and sorted."""
    nb = len(xy)
    angles = set()
    for k in range(nb):
        a, b = xy[k], xy[(k + 1) % nb]
        theta = math.atan2(b[1] - a[1], b[0] - a[0])
        angles.add((theta + 0.5 * math.pi) % math.pi)
        angles.add((theta - 0.5 * math.pi) % math.pi)
    ang = sorted(angles)
    mids = [(ang[k] + ang[(k + 1) % len(ang)] + (math.pi if k + 1 == len(ang) else 0)) * 0.5 % math.pi
            for k in range(len(ang))]
    return sorted(set(round(t, 12) for t in ang + mids))


def _advance(xy, k, c, s):
    """Move the contact pointer k forward along the CCW cycle while the
    next vertex reaches at least as far in direction (c, s)."""
    nb = len(xy)
    v = xy[k][0] * c + xy[k][1] * s
    for _ in range(nb):
        j = (k + 1) % nb
        w = xy[j][0] * c + xy[j][1] * s
        if w < v:
            break
        k, v = j, w
    return k


def _contact(xy, k, c, s, tol):
    """Sorted indices of the boundary vertices within tol of the maximum of
    x*c + y*s, grown from the extreme vertex k over the contiguous arc
    around it."""
    nb = len(xy)
    top = xy[k][0] * c + xy[k][1] * s
    arc = {k: top}
    for step in (1, -1):
        j = (k + step) % nb
        while j not in arc:
            v = xy[j][0] * c + xy[j][1] * s
            if v < top - tol:
                break
            arc[j] = v
            top = max(top, v)
            j = (j + step) % nb
    return sorted(j for j, v in arc.items() if abs(v - top) <= tol)


def tangent_pairs(inst: PolygonInstance) -> list[TangentPair]:
    """Antipodal tangent pairs with one contact on R and the other on B,
    ordered by the R parameter, then by decreasing B parameter."""
    _check_convex(inst)
    if inst.degenerate:
        return []
    xy = inst.boundary.tolist()
    rpar, bpar = boundary_params(inst)
    directions = _caliper_directions(xy)
    # the two contact pointers of the caliper: as the normal turns CCW
    # through [0, pi) each one advances monotonically along the CCW cycle
    c, s = math.cos(directions[0]), math.sin(directions[0])
    dots = [x * c + y * s for x, y in xy]
    hi = dots.index(max(dots))
    lo = dots.index(min(dots))

    seen = set()
    out = []
    for theta in directions:
        c, s = math.cos(theta), math.sin(theta)
        hi = _advance(xy, hi, c, s)
        lo = _advance(xy, lo, -c, -s)
        tol = 1e-9 * max(1.0, abs(xy[hi][0] * c + xy[hi][1] * s),
                         abs(xy[lo][0] * c + xy[lo][1] * s))
        hi_ks = _contact(xy, hi, c, s, tol)
        lo_ks = _contact(xy, lo, -c, -s, tol)
        for (rk, bk) in ((hi_ks, lo_ks), (lo_ks, hi_ks)):
            rk = [k for k in rk if rpar[k] is not None]
            bk = [k for k in bk if bpar[k] is not None]
            if not rk or not bk:
                continue
            rp, bp = _seg_seg_closest(xy[rk[0]], xy[rk[-1]], xy[bk[0]], xy[bk[-1]])
            key = (round(rp[0], 9), round(rp[1], 9), round(bp[0], 9), round(bp[1], 9))
            if key in seen:
                continue
            seen.add(key)
            xr = _param_between(inst.R, rp, rpar[rk[0]], rpar[rk[-1]])
            yb = _param_between(inst.B, bp, bpar[bk[0]], bpar[bk[-1]])
            tang = (-math.sin(theta), math.cos(theta))
            out.append(((xr if xr is not None else 0.0, -(yb if yb is not None else 0.0)),
                        TangentPair(Point2(*rp), Point2(*bp), Point2(*tang))))

    out.sort(key=lambda kp: kp[0])
    return [pair for _, pair in out]


def _points_at(curve, xs):
    """The points curve.eval gives at the parameters xs, as a (k, 2) array."""
    pts = curve.pts
    n = len(pts)
    xs = np.asarray(xs, dtype=float)
    if n == 1:
        return np.repeat(pts, len(xs), axis=0)
    xs = np.clip(xs, 1.0, float(n))
    i = np.minimum(np.floor(xs).astype(np.intp), n - 1)
    t = (xs - i)[:, None]
    return pts[i - 1] * (1.0 - t) + pts[i] * t


def _dists(P, Q):
    d = P - Q
    return np.hypot(d[:, 0], d[:, 1])


def _level_at(psi, x):
    """The vertex levels psi interpolated at curve parameter x."""
    if len(psi) == 1:
        return psi[0]
    i = max(min(int(math.floor(x)), len(psi) - 1), 1)
    return psi[i - 1] + (psi[i] - psi[i - 1]) * (x - i)


def _up_crossing(psi, c, start, tol):
    """Smallest parameter >= start where psi rises strictly above level c:
    on the edge ending at the first vertex above c + tol. The curve's last
    parameter when psi stays <= c + tol."""
    i0 = max(int(math.floor(start)), 1)
    v0 = _level_at(psi, start)
    if v0 > c + tol:
        return start
    above = np.flatnonzero(psi[i0:] > c + tol)
    if not len(above):
        return float(len(psi))
    i = i0 + int(above[0])
    t0, v0 = (start, v0) if i == i0 else (float(i), psi[i - 1])
    v1 = psi[i]
    t = t0 + (c - v0) / (v1 - v0) * (float(i + 1) - t0) if v0 < c else t0
    return min(max(t, t0), float(i + 1))


def _monotone_on(psi, a, b, tol):
    """psi non-decreasing along the curve parameters [a, b]."""
    lo = math.floor(a - 1e-12) + 1
    hi = math.ceil(b + 1e-12) - 1
    vals = np.concatenate(([_level_at(psi, a)], psi[lo - 1:hi], [_level_at(psi, b)]))
    return bool(np.all(vals[1:] >= vals[:-1] - tol))


def _fan_maxima(inst):
    """Per curve, the prefix maxima of the vertex distances to s1 and the
    suffix maxima of those to s2."""
    s1, s2 = inst.R.pts[0], inst.R.pts[-1]
    return [(np.maximum.accumulate(_dists(c.pts, s1)),
             np.maximum.accumulate(_dists(c.pts, s2)[::-1])[::-1])
            for c in (inst.R, inst.B)]


class _Split(NamedTuple):
    bound: float  # max(d*, fan cost), at most the pair's cost
    fan_cost: float
    u: np.ndarray  # unit normal of the level lines, s1 to s2 ascending
    levels: tuple  # (c1, c2): the levels of s1 and s2
    params: tuple  # (x1, x2, y1, y2): the parallel part of R and B


def _split(inst: PolygonInstance, pair: TangentPair, fans) -> Optional[_Split]:
    """Split of the matching for one tangent pair into two endpoint fans
    and a parallel part, or None when the level function is not monotone
    on the parallel part (invalid split).

    The parallel part matches points on common lines perpendicular to u.
    By the affine-diameter property its cost is d* = |r* - b*|; the fans
    cost their largest distance to s1 and to s2. The distance to a point
    is convex along an edge, so a fan peaks at a vertex or a partial-edge
    end."""
    R, B = inst.R, inst.B
    s1, s2 = R.vertex(1), R.vertex(R.n)
    vx, vy = pair.r_star[0] - pair.b_star[0], pair.r_star[1] - pair.b_star[1]
    d_star = math.hypot(vx, vy)
    if d_star < 1e-15:
        u = (pair.direction[0], pair.direction[1])
    else:
        u = (-vy / d_star, vx / d_star)
    if u[0] * (s2[0] - s1[0]) + u[1] * (s2[1] - s1[1]) < 0:
        u = (-u[0], -u[1])
    c1 = u[0] * s1[0] + u[1] * s1[1]
    c2 = u[0] * s2[0] + u[1] * s2[1]
    u = np.array(u)
    psis = [R.pts @ u, B.pts @ u]
    tol = _TOL * max(1.0, *(float(np.abs(psi).max()) for psi in psis))

    params, fan_cost = [], 0.0
    for curve, psi, (head, tail) in zip((R, B), psis, fans):
        a = _up_crossing(psi, c1, 1.0, tol)
        b = _up_crossing(psi, c2, a, tol)
        if not _monotone_on(psi, a, b, tol):
            return None
        ends = _dists(_points_at(curve, [a, b]), np.array([s1, s2]))
        fan_cost = max(fan_cost, head[math.floor(a) - 1], tail[math.ceil(b) - 1], *ends)
        params += [a, b]
    fan_cost = float(fan_cost)
    return _Split(max(d_star, fan_cost), fan_cost, u, (c1, c2), tuple(params))


def _piece(psi, a, b, ca, cb):
    """Parameters and running-maximum levels of the monotone piece [a, b]."""
    ks = np.arange(math.floor(a + 1e-12) + 1, math.ceil(b - 1e-12))
    levels = np.concatenate(([ca], psi[ks - 1], [cb]))
    return np.concatenate(([a], ks, [b])), np.maximum.accumulate(levels)


def _params_at(X, L, c):
    """First and last parameter of the piece (X, L) at each level in c."""
    k = np.minimum(np.searchsorted(L, c), len(L) - 1)
    j = np.maximum(np.searchsorted(L, c, side="right") - 1, 0)
    lo = np.maximum(k - 1, 0)
    rise = L[k] - L[lo]
    t = np.clip((c - L[lo]) / np.where(rise > 0, rise, 1.0), 0.0, 1.0)
    first = np.where(L[k] > c, X[lo] + (X[k] - X[lo]) * t, X[k])
    return first, np.where(L[j] == c, X[j], first)


def _merge(inst: PolygonInstance, split: _Split) -> MatchingPath:
    """The matching of a split: the fans, then the parallel part matched
    level by level. Each event level is a vertex level of either piece; a
    plateau at one level is walked on R, then on B."""
    R, B = inst.R, inst.B
    n, m = R.n, B.n
    u, (c1, c2), (x1, x2, y1, y2) = split.u, split.levels, split.params
    rx, rl = _piece(R.pts @ u, x1, x2, c1, c2)
    by, bl = _piece(B.pts @ u, y1, y2, c1, c2)
    events = np.union1d(rl, bl)
    xf, xl = _params_at(rx, rl, events)
    yf, yl = _params_at(by, bl, events)
    # fan at s1 on B, then on R (the first event), the parallel part, and
    # the fan at s2 on B, then on R
    xs = np.concatenate(([1.0, 1.0], np.stack([xf, xl, xl], axis=1).ravel(), [x2, n]))
    ys = np.concatenate(([1.0, y1], np.stack([yf, yf, yl], axis=1).ravel(), [m, m]))
    xs, ys = np.maximum.accumulate(xs), np.maximum.accumulate(ys)
    cost = max(split.fan_cost, float(_dists(_points_at(R, xs), _points_at(B, ys)).max()))
    keep = np.concatenate(([True], (np.diff(xs) > 0) | (np.diff(ys) > 0)))
    return MatchingPath([ParamPoint(x, y) for x, y in zip(xs[keep].tolist(), ys[keep].tolist())], cost)


def parallel_matching_cost(inst: PolygonInstance, pair: TangentPair) -> Optional[MatchingPath]:
    """Candidate matching for one tangent pair, or None when the level
    function is not monotone on the middle part (invalid split)."""
    _check_convex(inst)
    split = _split(inst, pair, _fan_maxima(inst))
    return None if split is None else _merge(inst, split)


def convex_frechet(inst: PolygonInstance) -> MatchingPath:
    """Exact Fréchet matching between R and B bounding a convex polygon.

    Merges the valid splits in increasing (bound, caliper index) until a
    bound reaches the best cost. A pair's bound is at least its d*, so the
    pairs are split in increasing d* and a pending split is merged once no
    unsplit pair can come before it."""
    _check_convex(inst)
    n, m = inst.R.n, inst.B.n
    if inst.degenerate:
        wps = [ParamPoint(1.0, 1.0), ParamPoint(float(n), float(m))]
        return MatchingPath(wps, 0.0)
    fans = _fan_maxima(inst)
    pairs = tangent_pairs(inst)
    d_star = [math.hypot(p.r_star[0] - p.b_star[0], p.r_star[1] - p.b_star[1]) for p in pairs]
    order = iter(sorted(range(len(pairs)), key=d_star.__getitem__))
    k = next(order, None)
    pending = []  # (bound, caliper index) of the splits not merged yet
    best = None
    while True:
        while (k is not None and (not pending or d_star[k] <= pending[0][0])
               and (best is None or d_star[k] < best.cost)):
            split = _split(inst, pairs[k], fans)
            if split is not None:
                heapq.heappush(pending, (split.bound, k))
            k = next(order, None)
        if not pending or (best is not None and pending[0][0] >= best.cost):
            break
        path = parallel_matching_cost(inst, pairs[heapq.heappop(pending)[1]])
        if best is None or path.cost < best.cost:
            best = path
    if best is None:
        raise RuntimeError("no valid tangent pair produced a matching")
    return best
