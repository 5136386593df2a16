"""Exact Fréchet matching for curves bounding a convex polygon.

`tangent_pairs` is a rotating-calipers sweep (Toussaint 1983) done as
array code over all caliper directions at once. The caliper normal turns
through the normal (theta + pi/2) mod pi of every edge and the midpoints
between consecutive ones, sorted once in O(N log N). The outward edge
normals of a convex cycle turn monotonically, so each direction's extreme
vertex on either supporting line is a binary search over their angles. A
direction's contact set, the vertices within 1e-9 * max |extreme dot| of
its supporting line, is read from a window of indices around that vertex,
two to either side, and measured again in one twice as wide where it
reaches the window's edge, so the sweep's work and memory stay O(N +
total contact size). A contact's curve and parameter are read off its
boundary index. The closest points of the two contact segments are
computed for all directions as arrays, and a pair is kept once per exact
(r*, b*). No tolerance is in units of length, so scaling the input by a
power of two scales r*, b* and the cost exactly and keeps the waypoints.

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
worst case stays O(N^2): the benchmark ellipses split one pair each, but
a thin ellipse split near the ends of its minor axis splits about a third
of its pairs (`gen_convex_worst` in the tests).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import MatchingPath, ParamPoint, Point2, PolygonInstance, boundary_params

_TOL = 1e-9
_ON_CURVE_TOL = 1e-7  # a point this close to a curve edge, relative to its length, lies on it


@dataclass(frozen=True)
class TangentPair:
    r_star: Point2
    b_star: Point2
    direction: Point2  # unit direction of the parallel tangent lines


def _param_between(curve, pt, p0, p1):
    """Parameter of a point lying on the curve between the vertices with
    parameters p0 and p1, or None."""
    if p0 == p1:
        return float(p0)
    for i in range(min(p0, p1), max(p0, p1)):
        a, b = curve.pts[i - 1], curve.pts[i]
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((pt[0] - a[0]) * dx + (pt[1] - a[1]) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        off = math.hypot(pt[0] - a[0] - t * dx, pt[1] - a[1] - t * dy)
        if off <= _ON_CURVE_TOL * math.hypot(dx, dy):
            return i + t
    return None


def _check_convex(inst: PolygonInstance):
    if not inst.degenerate and not inst.convex:
        raise ValueError("instance is not convex")


def _caliper_directions(bd):
    """Caliper normal angles in [0, pi): the normal (theta + pi/2) mod pi
    of every edge plus the midpoints between consecutive normals
    (vertex-vertex antipodal events), sorted and without repeats."""
    theta = np.array([math.atan2(dy, dx) for dx, dy in (np.roll(bd, -1, axis=0) - bd).tolist()])
    ang = np.unique((theta + 0.5 * math.pi) % math.pi)
    wrap = np.zeros(len(ang))
    wrap[-1] = math.pi
    mids = (ang + np.roll(ang, -1) + wrap) * 0.5 % math.pi
    return np.unique(np.concatenate((ang, mids)))


def _extreme_vertices(bd, angles):
    """Per angle in [0, 2*pi), a boundary vertex reaching farthest in that
    direction: the start of the first edge whose outward normal angle is
    at least the angle. The normals turn CCW along the cycle; rounding
    noise is evened out by a running maximum."""
    nb = len(bd)
    d = np.roll(bd, -1, axis=0) - bd
    psi = np.arctan2(-d[:, 0], d[:, 1]) % (2 * math.pi)
    order = np.roll(np.arange(nb), -int(np.argmin(psi)))
    ks = np.searchsorted(np.maximum.accumulate(psi[order]), angles % (2 * math.pi))
    return order[ks % nb]


def _contact_ends(bd, on_r, on_b, k_hi, k_lo, c, s, h):
    """For the directions (c, s) with extreme vertices k_hi (farthest
    along (c, s)) and k_lo (farthest against it): an (8, k) array of the
    first and last index of the contact vertices on R and on B, at the
    high side and then at the low side (nb and -1 where there are none),
    and whether a contact set reached the edge of its window k +- h, so
    that it may go on beyond.

    A contact vertex lies within tol of its side's maximum, tol =
    1e-9 * max(|top dot of either side|), which is at least 1e-9 times
    half the polygon's width along (c, s); the dot products are those of
    the scalar x*c + y*s."""
    nb = len(bd)
    full = 2 * h + 1 >= nb
    off = np.arange(nb) - nb // 2 if full else np.arange(-h, h + 1)
    sides = []
    for k, sign in ((k_hi, 1.0), (k_lo, -1.0)):
        idx = (k[:, None] + off) % nb
        v = sign * (bd[idx, 0] * c[:, None] + bd[idx, 1] * s[:, None])
        sides.append((idx, v, v.max(axis=1)))
    tol = 1e-9 * np.maximum(np.abs(sides[0][2]), np.abs(sides[1][2]))
    ends, hit = [], np.zeros(len(c), dtype=bool)
    for idx, v, top in sides:
        near = np.abs(v - top[:, None]) <= tol[:, None]
        if not full:
            hit |= near[:, 0] | near[:, -1]
        for on in (on_r, on_b):
            mine = near & on[idx]
            ends += [np.where(mine, idx, nb).min(axis=1), np.where(mine, idx, -1).max(axis=1)]
    return np.array(ends), hit


def _foot(P, S0, S1):
    """The point of segment S0-S1 closest to P, row by row: the clamped
    projection, S0 itself where the segment is a point."""
    dx, dy = (S1 - S0).T
    L2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((P[:, 0] - S0[:, 0]) * dx + (P[:, 1] - S0[:, 1]) * dy) / L2
    t = np.where(0.0 > t, 0.0, t)
    t = np.where(t > 1.0, 1.0, t)
    t = np.where(L2 == 0, 0.0, t)
    return np.stack([S0[:, 0] + t * dx, S0[:, 1] + t * dy], axis=1)


def _closest_pairs(a0, a1, b0, b1):
    """Closest pair of points between the segments a0-a1 and b0-b1, row
    by row, as a (k, 4) array of (r, b) rows. The candidates are each
    segment end with its foot on the other segment, in the order a0, a1,
    b0, b1; the first at the least math.hypot distance wins. np.hypot
    may differ from it in the last bit, so where distinct candidates lie
    within rounding of the least distance, math.hypot decides."""
    P = np.stack([a0, a1, _foot(b0, a0, a1), _foot(b1, a0, a1)], axis=1)
    Q = np.stack([_foot(a0, b0, b1), _foot(a1, b0, b1), b0, b1], axis=1)
    cand = np.concatenate([P, Q], axis=2)  # (k, 4 candidates, 4)
    dist = np.hypot(P[..., 0] - Q[..., 0], P[..., 1] - Q[..., 1])
    j = np.argmin(dist, axis=1)
    rows = np.arange(len(j))
    out = cand[rows, j]
    near = dist <= dist[rows, j][:, None] * (1 + 1e-12)
    tied = (near & (cand != out[:, None, :]).any(axis=2)).any(axis=1)
    for i in np.flatnonzero(tied).tolist():
        d = (P[i] - Q[i]).tolist()
        out[i] = cand[i, min(range(4), key=lambda t: math.hypot(*d[t]))]
    return out


def tangent_pairs(inst: PolygonInstance) -> list[TangentPair]:
    """Antipodal tangent pairs with one contact on R and the other on B,
    ordered by the R parameter, then by decreasing B parameter."""
    _check_convex(inst)
    if inst.degenerate:
        return []
    bd = inst.boundary
    rpar, bpar = boundary_params(inst)
    on_r = np.array([p is not None for p in rpar])
    on_b = np.array([p is not None for p in bpar])
    theta = _caliper_directions(bd)
    cos = [math.cos(t) for t in theta.tolist()]
    sin = [math.sin(t) for t in theta.tolist()]
    c, s = np.array(cos), np.array(sin)
    k_hi = _extreme_vertices(bd, theta)
    k_lo = _extreme_vertices(bd, theta + math.pi)

    # contact ends per direction; a direction whose contact set reaches
    # its window is measured again in a window twice as wide
    contact = np.empty((8, len(theta)), dtype=np.intp)
    todo, h = np.arange(len(theta)), 2
    while len(todo):
        contact[:, todo], hit = _contact_ends(bd, on_r, on_b, k_hi[todo], k_lo[todo],
                                              c[todo], s[todo], h)
        todo, h = todo[hit], 2 * h
    hi_r0, hi_r1, hi_b0, hi_b1, lo_r0, lo_r1, lo_b0, lo_b1 = contact

    # per direction the R contacts of the high side with the B contacts of
    # the low side, then the other way round; keep the rows with both
    r0 = np.stack([hi_r0, lo_r0], axis=1).ravel()
    r1 = np.stack([hi_r1, lo_r1], axis=1).ravel()
    b0 = np.stack([lo_b0, hi_b0], axis=1).ravel()
    b1 = np.stack([lo_b1, hi_b1], axis=1).ravel()
    rows = np.flatnonzero((r1 >= 0) & (b1 >= 0))
    r0, r1, b0, b1 = r0[rows], r1[rows], b0[rows], b1[rows]
    pq = _closest_pairs(bd[r0], bd[r1], bd[b0], bd[b1])
    # consecutive directions mostly touch the same vertices; a row equal
    # to the one before it has the same key, so it is dropped here already
    first = np.flatnonzero(np.concatenate(([True], (pq[1:] != pq[:-1]).any(axis=1))))
    pq = pq[first]
    ends = np.stack([r0, r1, b0, b1, rows // 2])[:, first].T.tolist()
    seen = set()
    out = []
    for (i0, i1, j0, j1, d), key in zip(ends, map(tuple, pq.tolist())):
        if key in seen:
            continue
        seen.add(key)
        rx, ry, bx, by = key
        xr = _param_between(inst.R, (rx, ry), rpar[i0], rpar[i1])
        yb = _param_between(inst.B, (bx, by), bpar[j0], bpar[j1])
        out.append(((xr if xr is not None else 0.0, -(yb if yb is not None else 0.0)),
                    TangentPair(Point2(rx, ry), Point2(bx, by), Point2(-sin[d], cos[d]))))

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
    d_star = math.hypot(vx, vy)  # at least the polygon's width: r*, b* lie on opposite tangents
    u = (-vy / d_star, vx / d_star)
    if u[0] * (s2[0] - s1[0]) + u[1] * (s2[1] - s1[1]) < 0:
        u = (-u[0], -u[1])
    c1 = u[0] * s1[0] + u[1] * s1[1]
    c2 = u[0] * s2[0] + u[1] * s2[1]
    u = np.array(u)
    psis = [R.pts @ u, B.pts @ u]
    tol = _TOL * max(float(np.abs(psi).max()) for psi in psis)

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
