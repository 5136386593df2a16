"""Exact Fréchet matching for curves bounding a convex polygon.

`tangent_pairs` is a rotating-calipers sweep (Toussaint 1983). The caliper
normal turns through every edge normal of the boundary and the midpoints
between consecutive ones, sorted once in O(N log N). The two contact
pointers, one per supporting line, only advance along the CCW cycle, so a
step costs O(1) amortized plus the size of its contact sets; whether a
contact lies on R or on B, and its curve parameter, is read off its
boundary index.

A candidate matching is built per antipodal tangent pair: two endpoint
fans around the shared endpoints plus a middle part that matches points
lying on a common line parallel to r*-b*. It costs O(n + m) per pair, with
curve points evaluated as arrays. The minimum over all caliper pairs is
the exact Fréchet distance; with O(N) pairs the solver is O(N^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import MatchingPath, ParamPoint, Point2, PolygonInstance, boundary_params
from .geodesic import get_engine

_TOL = 1e-9


@dataclass(frozen=True)
class TangentPair:
    r_star: Point2
    b_star: Point2
    direction: Point2  # unit direction of the parallel tangent lines


@dataclass
class ParallelMatching:
    fan1: tuple
    parallel: tuple  # (x1, x2, y1, y2)
    fan2: tuple
    cost: float
    d_star: float
    waypoints: list


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


def _param_between(curve, pt, p0, p1, tol=1e-7):
    """Parameter of a point lying on the curve between the vertices with
    parameters p0 and p1, or None."""
    if p0 == p1:
        return float(p0)
    for i in range(min(p0, p1), max(p0, p1)):
        a, b = curve.pts[i - 1], curve.pts[i]
        dx, dy = b[0] - a[0], b[1] - a[1]
        L2 = dx * dx + dy * dy
        if L2 == 0:
            if math.hypot(pt[0] - a[0], pt[1] - a[1]) <= tol:
                return float(i)
            continue
        t = ((pt[0] - a[0]) * dx + (pt[1] - a[1]) * dy) / L2
        t = min(max(t, 0.0), 1.0)
        if math.hypot(pt[0] - a[0] - t * dx, pt[1] - a[1] - t * dy) <= tol:
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


def _psi_values(curve, u):
    """Levels <u, c_i> of the curve's vertices, as a list of floats."""
    return (curve.pts @ np.array(u)).tolist()


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


def _first_up_crossing(psi, c, start, tol):
    """Smallest parameter >= start where psi rises strictly above level c.

    Returns the crossing parameter, or None when psi stays <= c."""
    n = len(psi)
    if n == 1:
        return None
    x = start
    i0 = int(math.floor(start))
    for i in range(max(1, i0), n):
        t0 = max(start, float(i))
        v0 = psi[i - 1] + (psi[i] - psi[i - 1]) * (t0 - i)
        v1 = psi[i]
        if v0 > c + tol:
            return t0
        if v1 > c + tol:
            if abs(v1 - v0) < 1e-18:
                return t0
            t = t0 + (c - v0) / (v1 - v0) * (float(i + 1) - t0) if v0 < c else t0
            return min(max(t, t0), float(i + 1))
    return None


def _monotone_on(psi, a, b, tol):
    """psi non-decreasing along the curve parameters [a, b]."""
    lo = int(math.ceil(a - 1e-12))
    hi = int(math.floor(b + 1e-12))
    vals = []

    def at(x):
        if len(psi) == 1:
            return psi[0]
        i = min(int(math.floor(x)), len(psi) - 1)
        i = max(i, 1)
        return psi[i - 1] + (psi[i] - psi[i - 1]) * (x - i)

    vals.append(at(a))
    vals.extend(psi[i - 1] for i in range(lo, hi + 1) if a - 1e-12 < i < b + 1e-12)
    vals.append(at(b))
    return all(vals[k + 1] >= vals[k] - tol for k in range(len(vals) - 1))


def _fan_max(curve, x1, x2, s1, s2):
    """Largest distance from s1 to curve[1, x1] and from s2 to curve[x2, n].

    The distance to a point is convex on every edge, so it peaks at an end
    of a piece or at a vertex inside it."""
    n = curve.n
    head = [1.0, x1] + list(range(1, int(math.floor(x1)) + 1))
    tail = [x2, float(n)] + list(range(int(math.ceil(x2)), n + 1))
    P = _points_at(curve, head + tail)
    k = len(head)
    return float(max(_dists(P[:k], s1).max(), _dists(P[k:], s2).max()))


def _level_nodes(curve, psi, a, b, ca, cb):
    """Ordered (param, level) nodes of the monotone piece [a, b]."""
    nodes = [(a, ca)]
    for i in range(int(math.ceil(a - 1e-12)), int(math.floor(b + 1e-12)) + 1):
        if a + 1e-12 < i < b - 1e-12:
            nodes.append((float(i), psi[i - 1]))
    nodes.append((b, cb))
    # clamp tiny numeric dips so the merge below stays monotone
    out = [nodes[0]]
    for (x, c) in nodes[1:]:
        out.append((x, max(c, out[-1][1])))
    return out


def _merge_parallel(rn, bn):
    """Merge level-node lists into matched waypoints at every event level,
    returned as the lists of their R and B parameters."""
    xs, ys = [rn[0][0]], [bn[0][0]]
    lr, lb = len(rn) - 1, len(bn) - 1
    ir = ib = 0
    while ir < lr or ib < lb:
        nr = rn[ir + 1][1] if ir < lr else math.inf
        nb = bn[ib + 1][1] if ib < lb else math.inf
        c = min(nr, nb)
        if nr <= nb + 1e-15 and ir < lr:
            ir += 1
        if nb <= nr + 1e-15 and ib < lb:
            ib += 1
        xs.append(max(_at_level(rn, ir, c), xs[-1]))
        ys.append(max(_at_level(bn, ib, c), ys[-1]))
    return xs, ys


def _at_level(nodes, k, c):
    """Parameter where the level reaches c, at node k or on the piece after it.
    At the last node c can exceed its level by rounding: both lists end at
    level c2, but a vertex of the other curve can lie an ulp above c2 and
    the clamp in _level_nodes carries that to its end. The piece ends at
    the last node, so that node is the answer."""
    x0, c0 = nodes[k]
    if c0 >= c - 1e-15 or k == len(nodes) - 1:
        return x0
    x1, c1 = nodes[k + 1]
    if c1 - c0 < 1e-15:
        return x1
    t = (c - c0) / (c1 - c0)
    return x0 + (x1 - x0) * min(max(t, 0.0), 1.0)


def parallel_matching_cost(inst: PolygonInstance, pair: TangentPair) -> Optional[ParallelMatching]:
    """Candidate matching for one tangent pair, or None when the level
    function is not monotone on the middle part (invalid split)."""
    _check_convex(inst)
    R, B = inst.R, inst.B
    n, m = R.n, B.n
    s1 = R.vertex(1)
    s2 = R.vertex(n)
    vx, vy = pair.r_star[0] - pair.b_star[0], pair.r_star[1] - pair.b_star[1]
    d_star = math.hypot(vx, vy)
    if d_star < 1e-15:
        u = (pair.direction[0], pair.direction[1])
    else:
        u = (-vy / d_star, vx / d_star)
    if u[0] * (s2[0] - s1[0]) + u[1] * (s2[1] - s1[1]) < 0:
        u = (-u[0], -u[1])
    psir = _psi_values(R, u)
    psib = _psi_values(B, u)
    c1 = u[0] * s1[0] + u[1] * s1[1]
    c2 = u[0] * s2[0] + u[1] * s2[1]
    scale = max(1.0, max(map(abs, psir)), max(map(abs, psib)))
    tol = _TOL * scale

    x1 = _first_up_crossing(psir, c1, 1.0, tol)
    y1 = _first_up_crossing(psib, c1, 1.0, tol)
    x1 = float(n) if x1 is None else x1
    y1 = float(m) if y1 is None else y1
    x2 = _first_up_crossing(psir, c2, x1, tol)
    y2 = _first_up_crossing(psib, c2, y1, tol)
    x2 = float(n) if x2 is None else x2
    y2 = float(m) if y2 is None else y2
    if not (_monotone_on(psir, x1, x2, tol) and _monotone_on(psib, y1, y2, tol)):
        return None

    fan_cost = max(_fan_max(R, x1, x2, s1, s2), _fan_max(B, y1, y2, s1, s2))

    rn = _level_nodes(R, psir, x1, x2, c1, c2)
    bn = _level_nodes(B, psib, y1, y2, c1, c2)
    xs, ys = _merge_parallel(rn, bn)
    par_cost = float(_dists(_points_at(R, xs), _points_at(B, ys)).max())

    wps = [ParamPoint(1.0, 1.0)]
    if y1 > 1.0:
        wps.append(ParamPoint(1.0, y1))
    if x1 > 1.0:
        wps.append(ParamPoint(x1, y1))
    for x, y in zip(xs, ys):
        if x > wps[-1].x + 1e-15 or y > wps[-1].y + 1e-15:
            wps.append(ParamPoint(x, y))
    if wps[-1] != ParamPoint(x2, y2):
        wps.append(ParamPoint(max(x2, wps[-1].x), max(y2, wps[-1].y)))
    if wps[-1].y < float(m):
        wps.append(ParamPoint(wps[-1].x, float(m)))
    if wps[-1].x < float(n):
        wps.append(ParamPoint(float(n), float(m)))

    cost = max(fan_cost, par_cost)
    return ParallelMatching(fan1=(s1, (1.0, x1), (1.0, y1)),
                            parallel=(x1, x2, y1, y2),
                            fan2=(s2, (x2, float(n)), (y2, float(m))),
                            cost=cost, d_star=d_star, waypoints=wps)


def convex_frechet(inst: PolygonInstance) -> MatchingPath:
    """Exact Fréchet matching between R and B bounding a convex polygon."""
    _check_convex(inst)
    n, m = inst.R.n, inst.B.n
    if inst.degenerate:
        wps = [ParamPoint(1.0, 1.0), ParamPoint(float(n), float(m))]
        return MatchingPath(wps, 0.0)
    best = None
    for pair in tangent_pairs(inst):
        pm = parallel_matching_cost(inst, pair)
        if pm is None:
            continue
        if best is None or pm.cost < best.cost:
            best = pm
    if best is None:
        raise RuntimeError("no valid tangent pair produced a matching")
    return MatchingPath(best.waypoints, best.cost)
