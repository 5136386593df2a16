"""Shared test oracles, independent of the library's query structures."""
from __future__ import annotations

import heapq
import importlib.util
import math
import os
import random
import sys
from types import SimpleNamespace

import numpy as np

import geofrechet.geometry as geometry
from geofrechet import convex
from geofrechet.farslab import far_decide
from geofrechet.geometry import orient, seg_intersect
from geofrechet.geodesic import PAR_TOL, SegmentProfile, get_engine
from geofrechet.nearslab import transit_exits_on_interval
from geofrechet.oracle import (TOL, _corner_reachable, _corner_sets,
                               _freespace_1d, _reach_dp)


def _point_seg_dist(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = min(max(((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / L2, 0.0), 1.0)
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def _seg_blocked(p, q, wall_a, wall_b):
    """Proper crossing test; walls touching an endpoint of pq are skipped
    by the caller, so only interior obstructions count."""
    o1 = orient(p, q, wall_a)
    o2 = orient(p, q, wall_b)
    o3 = orient(wall_a, wall_b, p)
    o4 = orient(wall_a, wall_b, q)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return False


def _boundary_segments(inst):
    bd = [tuple(v) for v in inst.boundary]
    return list(zip(bd, bd[1:] + bd[:1])) if len(bd) >= 3 else []


def inside_oracle(inst, p, tol: float = 1e-9) -> bool:
    """Point in the closed polygon: within tol of a boundary edge, or
    inside by ray casting."""
    segs = _boundary_segments(inst)
    if any(_point_seg_dist(p, a, b) <= tol for (a, b) in segs):
        return True
    inside = False
    x, y = p[0], p[1]
    for (x0, y0), (x1, y1) in segs:
        if (y0 > y) != (y1 > y):
            if x < (x1 - x0) * (y - y0) / (y1 - y0) + x0:
                inside = not inside
    return inside


def visible_oracle(inst, p, q) -> bool:
    """Conservative visibility along pq inside the polygon: no proper wall
    crossing (walls incident to p or q within 1e-9 are ignored) and the
    midpoint lies inside."""
    for (a, b) in _boundary_segments(inst):
        if _point_seg_dist(p, a, b) < 1e-9 or _point_seg_dist(q, a, b) < 1e-9:
            continue
        if _seg_blocked(p, q, a, b):
            return False
    mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
    return inside_oracle(inst, mid)


def dijkstra_geodesic(inst, p, q) -> float:
    """Geodesic distance by Dijkstra over the visibility graph of the
    polygon vertices plus the two query points."""
    p = (float(p[0]), float(p[1]))
    q = (float(q[0]), float(q[1]))
    nodes = [p, q] + [tuple(v) for v in inst.boundary]
    k = len(nodes)
    adj = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if visible_oracle(inst, nodes[i], nodes[j]):
                w = math.hypot(nodes[i][0] - nodes[j][0], nodes[i][1] - nodes[j][1])
                adj[i].append((j, w))
                adj[j].append((i, w))
    dist = [math.inf] * k
    dist[0] = 0.0
    pq = [(0.0, 0)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u] + 1e-15:
            continue
        if u == 1:
            return d
        for (v, w) in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist[1]


def segment_profile_bisect(inst, src, a, b) -> SegmentProfile:
    """Profile of the geodesic distance from src along a-b, built
    independently of the funnel merge: recursive bisection on the apex
    (last bend) of point queries, splitting until each piece has one apex."""
    eng = get_engine(inst)
    src = (float(src[0]), float(src[1]))
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    if eng.degenerate or eng.convex:
        return SegmentProfile([(0.0, 1.0, src, 0.0)], a, b)

    def s(t):
        return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)

    def same(ap1, ap2):
        return math.hypot(ap1[0] - ap2[0], ap1[1] - ap2[1]) < 1e-9

    pieces = []

    def rec(t0, ap0, D0, t1, ap1, D1, depth):
        if same(ap0, ap1):
            tm = 0.5 * (t0 + t1)
            apm, Dm = eng._apex(src, s(tm))
            if same(apm, ap0) or t1 - t0 < PAR_TOL:
                pieces.append((t0, t1, ap0, D0))
                return
            rec(t0, ap0, D0, tm, apm, Dm, depth + 1)
            rec(tm, apm, Dm, t1, ap1, D1, depth + 1)
            return
        if t1 - t0 < PAR_TOL or depth > 60:
            pieces.append((t0, 0.5 * (t0 + t1), ap0, D0))
            pieces.append((0.5 * (t0 + t1), t1, ap1, D1))
            return
        tm = 0.5 * (t0 + t1)
        apm, Dm = eng._apex(src, s(tm))
        rec(t0, ap0, D0, tm, apm, Dm, depth + 1)
        rec(tm, apm, Dm, t1, ap1, D1, depth + 1)

    ap0, D0 = eng._apex(src, a)
    ap1, D1 = eng._apex(src, b)
    rec(0.0, ap0, D0, 1.0, ap1, D1, 0)
    # merge adjacent pieces with identical apex
    merged = [list(pieces[0])]
    for pc in pieces[1:]:
        if same(pc[2], merged[-1][2]) and abs(pc[3] - merged[-1][3]) < 1e-9:
            merged[-1][1] = pc[1]
        else:
            merged.append(list(pc))
    return SegmentProfile([tuple(pc) for pc in merged], a, b)


def nn_search_reference(inst, source, target, x):
    """nnprofile._nn_search by a scan over every target edge: the nearest
    point (global parameter on target, distance, target edge), ties within
    1e-12 to the smaller parameter, and every edge's geodesic minimum."""
    eng = get_engine(inst)
    p = source.eval(x)
    if target.n == 1:
        return (1.0, eng.distance(p, tuple(target.pts[0])), 1), []
    best = None
    minima = []
    for j in range(1, target.n):
        t, v = eng.segment_profile(p, target.pts[j - 1], target.pts[j]).minimum()
        minima.append(v)
        cand = (j + t, v, j)
        if best is None or cand[1] < best[1] - 1e-12 or \
                (abs(cand[1] - best[1]) <= 1e-12 and cand[0] < best[0]):
            best = cand
    return best, minima


def nn_point_reference(inst, source, target, x):
    """nnprofile._nn_point by a scan over every target edge."""
    return nn_search_reference(inst, source, target, x)[0]


def nn_profile_bisect(inst, source, target):
    """nnprofile._build_profile with midpoint bisection: an interval whose
    ends have different nearest edges is halved down to width _BP_TOL."""
    from geofrechet import nnprofile as nnp
    n = source.n
    segs = nnp._segments(target)
    xs = [float(i) for i in range(1, n + 1)]
    nns = [nnp._nn_point(inst, source, target, segs, x) for x in xs]
    top = max(v for (_, v, _) in nns)
    breakpoints = []
    stack = [(xs[i], xs[i + 1], nns[i], nns[i + 1])
             for i in range(len(xs) - 1)][::-1]
    while stack:
        xa, xb, a, b = stack.pop()
        if a[2] == b[2]:
            continue
        if xb - xa <= nnp._BP_TOL:
            top = max(top, min(
                nnp._edge_min(inst, source.eval(xb), segs[a[2] - 1])[1],
                nnp._edge_min(inst, source.eval(xa), segs[b[2] - 1])[1]))
            if nnp._jumps(source, target, xa, xb, a, b):
                breakpoints.append((0.5 * (xa + xb), a[0], b[0]))
            continue
        xm = 0.5 * (xa + xb)
        mid = nnp._nn_point(inst, source, target, segs, xm)
        top = max(top, mid[1])
        stack.append((xm, xb, mid, b))
        stack.append((xa, xm, a, mid))
    ends = [(1.0, None, nns[0][0])] + breakpoints + [(float(n), nns[-1][0], None)]
    regimes = [(x0, x1, min(y0, y1), max(y0, y1))
               for (x0, _, y0), (x1, y1, _) in zip(ends, ends[1:])]
    return nnp.NNProfile(breakpoints, regimes, top, inst, source, target, segs)


def param_on_curve_reference(curve, p, tol: float = 1e-7):
    """Curve parameter of point p by a scan over every edge of the curve
    (the nearest edge within tol wins, then the first), or None."""
    best = None
    for i in range(1, max(curve.n, 2)):
        a = curve.pts[min(i, curve.n) - 1]
        b = curve.pts[min(i + 1, curve.n) - 1]
        dx, dy = b[0] - a[0], b[1] - a[1]
        L2 = dx * dx + dy * dy
        if L2 <= 1e-30:
            t = 0.0
        else:
            t = min(max(((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / L2, 0.0), 1.0)
        d = math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)
        if d <= tol and (best is None or d < best[1]):
            best = (min(i + t, float(curve.n)), d)
    return None if best is None else best[0]


def max_value_reference(prof) -> float:
    """sup_x of prof.nn_at(x) distances by search, not by the build:
    regime ends and source vertices, eight points between consecutive
    ones, and a 50-step golden-section search around each sampled local
    maximum. It can only undershoot the supremum."""
    xs = set()
    for (x0, x1, _, _) in prof.regimes:
        xs.update((x0, x1))
        xs.update(float(i) for i in range(math.ceil(x0), math.floor(x1) + 1))
    grid = sorted(xs)
    best = max(prof.nn_at(x)[1] for x in grid)
    for a, b in zip(grid, grid[1:]):
        if b - a <= 1e-9:
            continue
        pts = [a + (b - a) * k / 8 for k in range(9)]
        vals = [prof.nn_at(x)[1] for x in pts]
        best = max(best, max(vals))
        for k in range(1, 8):
            if vals[k] < vals[k - 1] or vals[k] < vals[k + 1]:
                continue
            lo, hi = pts[k - 1], pts[k + 1]
            for _ in range(50):
                m1 = lo + (hi - lo) * 0.382
                m2 = lo + (hi - lo) * 0.618
                if prof.nn_at(m1)[1] < prof.nn_at(m2)[1]:
                    lo = m1
                else:
                    hi = m2
            best = max(best, prof.nn_at(0.5 * (lo + hi))[1])
    return best


def matching_cost_geodesic(inst, waypoints) -> float:
    """Max geodesic distance along a bimonotone matching path, evaluated at
    the waypoints plus every integer-parameter cell crossing (distance is
    convex only per cell, so crossings can carry the maximum)."""
    eng = get_engine(inst)
    out = 0.0
    for k in range(len(waypoints) - 1):
        (x0, y0), (x1, y1) = waypoints[k], waypoints[k + 1]
        ts = {0.0, 1.0}
        for (a0, a1) in ((x0, x1), (y0, y1)):
            if a1 > a0 + 1e-15:
                i = math.ceil(a0 - 1e-12)
                while i <= a1 + 1e-12:
                    t = (i - a0) / (a1 - a0)
                    if -1e-12 <= t <= 1 + 1e-12:
                        ts.add(min(max(t, 0.0), 1.0))
                    i += 1
        for t in sorted(ts):
            x = x0 + (x1 - x0) * t
            y = y0 + (y1 - y0) * t
            out = max(out, eng.distance(tuple(inst.R.eval(x)), tuple(inst.B.eval(y))))
    return out


def matching_cost_euclid(inst, waypoints) -> float:
    out = 0.0
    for k in range(len(waypoints) - 1):
        (x0, y0), (x1, y1) = waypoints[k], waypoints[k + 1]
        ts = {0.0, 1.0}
        for (a0, a1) in ((x0, x1), (y0, y1)):
            if a1 > a0 + 1e-15:
                i = math.ceil(a0 - 1e-12)
                while i <= a1 + 1e-12:
                    ts.add(min(max((i - a0) / (a1 - a0), 0.0), 1.0))
                    i += 1
        for t in sorted(ts):
            x = x0 + (x1 - x0) * t
            y = y0 + (y1 - y0) * t
            rp = inst.R.eval(x)
            bp = inst.B.eval(y)
            out = max(out, math.hypot(rp[0] - bp[0], rp[1] - bp[1]))
    return out


def eval_path_cost(r, b, path) -> float:
    """Max of |r(x)| + |b(y)| along the path of separated 1D curves r, b; segment maxima are attained at
    integer parameters because |values| is linear on each edge."""
    def val(x, arr):
        if arr.size == 1:
            return float(arr[0])
        i = min(int(math.floor(x)), arr.size - 1)
        t = x - i
        return float(arr[i - 1] * (1 - t) + arr[i] * t)

    best = 0.0
    w = path.waypoints
    for k in range(len(w)):
        best = max(best, val(w[k].x, r.A) + val(w[k].y, b.A))
        if k + 1 < len(w):
            p, q = w[k], w[k + 1]
            for xi in range(int(math.ceil(p.x)), int(math.floor(q.x)) + 1):
                t = 0.0 if q.x == p.x else (xi - p.x) / (q.x - p.x)
                best = max(best, val(float(xi), r.A) + val(p.y + t * (q.y - p.y), b.A))
            for yj in range(int(math.ceil(p.y)), int(math.floor(q.y)) + 1):
                t = 0.0 if q.y == p.y else (yj - p.y) / (q.y - p.y)
                best = max(best, val(p.x + t * (q.x - p.x), r.A) + val(float(yj), b.A))
    return best


def sub_instance(inst, Rhat, Bhat):
    """Wrapper exposing subcurves to the free-space oracle while sharing
    the parent polygon's engine."""
    return SimpleNamespace(R=Rhat, B=Bhat, _engine=get_engine(inst), _cache={})


def discrete_matching(inst, samples_per_edge: int = 8):
    """Discrete Frechet matching on densely sampled curves under the
    geodesic metric: (cost, list of (x, y) parameter pairs)."""
    eng = get_engine(inst)
    xs = [1 + i / samples_per_edge for i in range((inst.R.n - 1) * samples_per_edge)]
    xs.append(float(inst.R.n))
    ys = [1 + j / samples_per_edge for j in range((inst.B.n - 1) * samples_per_edge)]
    ys.append(float(inst.B.n))
    rp = [tuple(inst.R.eval(x)) for x in xs]
    bp = [tuple(inst.B.eval(y)) for y in ys]
    n, m = len(xs), len(ys)
    D = [[eng.distance(rp[i], bp[j]) for j in range(m)] for i in range(n)]
    C = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            best = 0.0 if i == j == 0 else min(
                (C[i - 1][j] if i else math.inf),
                (C[i][j - 1] if j else math.inf),
                (C[i - 1][j - 1] if i and j else math.inf))
            C[i][j] = max(D[i][j], best)
    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((xs[i], ys[j]))
        if i == j == 0:
            break
        opts = []
        if i and j:
            opts.append((C[i - 1][j - 1], i - 1, j - 1))
        if i:
            opts.append((C[i - 1][j], i - 1, j))
        if j:
            opts.append((C[i][j - 1], i, j - 1))
        _, i, j = min(opts)
    path.reverse()
    return C[n - 1][m - 1], path


def far_find_exit_reference(inst, slab, entrance, delta, eps):
    """farslab.far_find_exit with a fresh far_decide per probe: the same
    gallop and bisection over the transit exits, nothing shared between
    the probes."""
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
    lo, hi = -1, 0
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


def random_instance(seed: int, max_total: int = 30):
    """Random simple-polygon instance drawn from all generator families."""
    from geofrechet import generators
    rng = random.Random(seed)
    kind = rng.randrange(3)
    n = rng.randint(8, max(8, max_total // 2))
    if kind == 0:
        return generators.gen_pocket(seed, n)
    if kind == 1:
        return generators.gen_simple(seed, n, spikes=rng.randint(0, 2))
    return generators.gen_convex(min(n, 14), seed)


def _proper_cross(a, b, c, d) -> bool:
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def polyline_crossings(P, Q) -> int:
    """Number of proper crossings between two waypoint polylines."""
    out = 0
    for s0, s1 in zip(P, P[1:]):
        for t0, t1 in zip(Q, Q[1:]):
            if _proper_cross(tuple(s0), tuple(s1), tuple(t0), tuple(t1)):
                out += 1
    return out


def check_shortcutting(inst, rng, trials: int = 20):
    """(violations, checks) of: when the geodesic r'-b' properly crosses the
    nearest-neighbor geodesic of r an odd number of times, rerouting r' to
    that nearest neighbor cannot increase the distance."""
    from geofrechet.nnprofile import nn_profile
    eng = get_engine(inst)
    prof = nn_profile(inst)
    viol = checks = 0
    for _ in range(trials):
        x = rng.uniform(1, inst.R.n)
        y, _v = prof.nn_at(x)
        r = tuple(inst.R.eval(x))
        b = tuple(inst.B.eval(y))
        pi = eng.shortest_path(r, b).waypoints
        for _ in range(6):
            rp = tuple(inst.R.eval(rng.uniform(1, inst.R.n)))
            bp = tuple(inst.B.eval(rng.uniform(1, inst.B.n)))
            g = eng.shortest_path(rp, bp).waypoints
            if polyline_crossings(g, pi) % 2 == 1:
                checks += 1
                if eng.distance(rp, b) > eng.distance(rp, bp) + 1e-9:
                    viol += 1
    return viol, checks


def check_lower_envelope(r, b, delta: float):
    """(violations, checks) of: every reachable global prefix-minima pair
    sits vertically above the horizontal greedy path (with extensions) via
    a free connector."""
    from geofrechet.oned import GridPoint, build_greedy_forest, prefix_minima
    s = GridPoint(1, 1)
    if r.a(1) + b.a(1) > delta:
        return 0, 0
    free = [GridPoint(i, j) for i in range(1, r.n + 1)
            for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
    reach = {(int(t[0]), int(t[1]))
             for t in reachable_points_bruteforce(r, b, delta, [s], free)}
    pmr, pmb = set(prefix_minima(r)), set(prefix_minima(b))
    f = build_greedy_forest(r, b, delta, [s], "horizontal")
    edges = [((s.i, s.j), (s.i, s.j))] + list(f.edges()) + list(f.extensions)
    viol = checks = 0
    for (i, j) in sorted(reach):
        if i not in pmr or j not in pmb:
            continue
        checks += 1
        ok = False
        for ((i1, j1), (i2, j2)) in edges:
            if not (min(i1, i2) - 1e-9 <= i <= max(i1, i2) + 1e-9):
                continue
            if min(j1, j2) > j + 1e-9:
                continue
            # highest edge point in this column not above the target, then
            # a free vertical connector up to it
            jstart = min(max(j1, j2), float(j))
            j0 = int(math.ceil(jstart - 1e-9))
            if all(r.a(i) + b.a(jj) <= delta + 1e-9 for jj in range(j0, j + 1)):
                ok = True
                break
        if not ok:
            viol += 1
    return viol, checks


def check_matching_to_fan(inst, samples_per_edge: int = 6):
    """(violations, checks) of: along a dense discrete geodesic matching,
    whenever the B-side point is a nearest-neighbor image, the R-side
    partner lies in the corresponding fan leaf at the matching cost."""
    from geofrechet.nnprofile import fan_leaf, nn_profile
    cost, path = discrete_matching(inst, samples_per_edge)
    prof = nn_profile(inst)
    delta = cost * (1 + 1e-9)
    viol = checks = 0
    for (x, y) in path:
        xs = None
        for (_x0, _x1, y0, y1) in prof.regimes:
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                try:
                    xs = prof.x_for_target(min(max(y, y0), y1))
                except ValueError:
                    xs = None
                break
        if xs is None:
            continue
        try:
            fan = fan_leaf(inst, tuple(inst.B.eval(y)), xs, delta)
        except ValueError:
            continue
        checks += 1
        if not (fan.leaf[0] - 1e-6 <= x <= fan.leaf[1] + 1e-6):
            viol += 1
    return viol, checks


def check_monotone_leaves(inst, per_regime: int = 8):
    """(violations, checks) of: fan leaves advance monotonically with the
    apex along the nearest-neighbor profile."""
    from geofrechet.nnprofile import fan_leaf, nn_profile
    prof = nn_profile(inst)
    delta = prof.max_value() * 1.2
    viol = checks = 0
    for (_x0, _x1, y0, y1) in prof.regimes:
        if y1 - y0 < 1e-6:
            continue
        prev = None
        for k in range(per_regime + 1):
            y = y0 + (y1 - y0) * k / per_regime
            x = prof.x_for_target(y)
            leaf = fan_leaf(inst, tuple(inst.B.eval(y)), x, delta).leaf
            if prev is not None:
                checks += 1
                if leaf[0] < prev[0] - 1e-6 or leaf[1] < prev[1] - 1e-6:
                    viol += 1
            prev = leaf
    return viol, checks


def check_snapping(inst, eps: float, rng, trials: int = 40):
    """(violations, checks) of: routing a separator-crossing geodesic via
    its best anchor costs at most eps*delta extra."""
    from geofrechet.farslab import build_separator_anchors
    eng = get_engine(inst)
    m = inst.B.n
    ya, yb = sorted((rng.uniform(1, m), rng.uniform(1, m)))
    b1 = tuple(inst.B.eval(ya))
    b2 = tuple(inst.B.eval(yb))
    delta = eng.distance(b1, b2)
    if delta < 1e-9:
        return 0, 0
    A = build_separator_anchors(inst, b1, b2, delta, eps)
    if A is None:
        return 0, 0
    sep = eng.shortest_path(b1, b2).waypoints
    viol = checks = 0
    for _ in range(trials):
        rp = tuple(inst.R.eval(rng.uniform(1, inst.R.n)))
        bp = tuple(inst.B.eval(rng.uniform(1, m)))
        g = eng.shortest_path(rp, bp).waypoints
        if polyline_crossings(g, sep) == 0:
            continue
        true = eng.distance(rp, bp)
        snapped = min(eng.distance(rp, tuple(a)) + eng.distance(tuple(a), bp)
                      for a in A.anchors)
        checks += 1
        if snapped > true + eps * delta + 1e-9:
            viol += 1
    return viol, checks


# -- all-pairs references for instance validation and triangulation --------

def is_simple_pairwise(pts) -> bool:
    """No two non-adjacent edges of the polyline cross (open segments),
    checked over all pairs."""
    k = len(pts) - 1
    for i in range(k):
        for j in range(i + 2, k):
            if seg_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                return False
    return True


def curves_cross_pairwise(R, B) -> bool:
    """Some edge of R crosses some edge of B (open segments), checked over
    all pairs."""
    for i in range(R.n - 1):
        for j in range(B.n - 1):
            if seg_intersect(R.pts[i], R.pts[i + 1], B.pts[j], B.pts[j + 1]):
                return True
    return False


# polygons with a zero turn where the shared start point lies inside a straight side
STRAIGHT_ANGLE_INPUTS = [
    ([(0, 2), (0, 0), (3, 0), (3, 3)], [(0, 2), (0, 3), (3, 3)]),
    ([(1, 0), (2, 0), (2, 2), (1, 2)], [(1, 0), (0, 0), (0, 2), (1, 2)]),
    ([(1, 0), (2, 0), (0, 2)], [(1, 0), (0, 0), (0, 2)]),
    ([(1, 0), (2, 0), (2, 1), (1, 1), (1, 2)], [(1, 0), (0, 0), (0, 2), (1, 2)]),  # L-shape
]


def ear_clip_reference(poly):
    """Ear clipping that rescans from the lowest-index vertex after every
    clip and tests every remaining vertex against every candidate ear."""
    v = len(poly)
    if v < 3:
        return []
    idx = list(range(v))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 4 * v * v:
        guard += 1
        ear_found = False
        k = len(idx)
        for pos in range(k):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % k]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = orient(a, b, c)
            if cross < 0:
                continue
            if cross == 0:
                # a flat vertex is an ear only where its neighbours coincide,
                # and it is clipped without a triangle
                if math.hypot(*(c - a)) == 0.0:
                    idx.pop(pos)
                    ear_found = True
                    break
                continue
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if geometry._point_in_triangle(poly[j], a, b, c):
                    ok = False
                    break
            if not ok:
                continue
            tris.append((i0, i1, i2))
            idx.pop(pos)
            ear_found = True
            break
        if not ear_found:
            # fall back: clip the convex vertex with smallest area violation
            best = None
            for pos in range(len(idx)):
                i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)]
                cr = orient(poly[i0], poly[i1], poly[i2])
                if cr >= 0 and (best is None or cr < best[0]):
                    best = (cr, pos)
            if best is None:
                break
            pos = best[1]
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)]
            if orient(poly[i0], poly[i1], poly[i2]) > 0:
                tris.append((i0, i1, i2))
            idx.pop(pos)
    if len(idx) == 3:
        if orient(poly[idx[0]], poly[idx[1]], poly[idx[2]]) > 0:
            tris.append((idx[0], idx[1], idx[2]))
    return tris


def seg_seg_closest_reference(a0, a1, b0, b1):
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


def caliper_directions_reference(xy):
    """Caliper normal angles in [0, pi): the normal (theta + pi/2) mod pi
    of every edge plus the midpoints between consecutive normals, sorted
    and without repeats, one vertex at a time."""
    nb = len(xy)
    angles = set()
    for k in range(nb):
        a, b = xy[k], xy[(k + 1) % nb]
        theta = math.atan2(b[1] - a[1], b[0] - a[0])
        angles.add((theta + 0.5 * math.pi) % math.pi)
    ang = sorted(angles)
    mids = [(ang[k] + ang[(k + 1) % len(ang)] + (math.pi if k + 1 == len(ang) else 0)) * 0.5 % math.pi
            for k in range(len(ang))]
    return sorted(set(ang + mids))


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


def tangent_pairs_sweep(inst):
    """convex.tangent_pairs as a scalar rotating-calipers sweep: two
    contact pointers advance along the CCW cycle, one caliper direction at
    a time, and each direction's contact sets are grown from them."""
    convex._check_convex(inst)
    if inst.degenerate:
        return []
    xy = inst.boundary.tolist()
    rpar, bpar = geometry.boundary_params(inst)
    directions = caliper_directions_reference(xy)
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
        tol = 1e-9 * max(abs(xy[hi][0] * c + xy[hi][1] * s),
                         abs(xy[lo][0] * c + xy[lo][1] * s))
        hi_ks = _contact(xy, hi, c, s, tol)
        lo_ks = _contact(xy, lo, -c, -s, tol)
        for (rk, bk) in ((hi_ks, lo_ks), (lo_ks, hi_ks)):
            rk = [k for k in rk if rpar[k] is not None]
            bk = [k for k in bk if bpar[k] is not None]
            if not rk or not bk:
                continue
            rp, bp = seg_seg_closest_reference(xy[rk[0]], xy[rk[-1]], xy[bk[0]], xy[bk[-1]])
            key = (rp[0], rp[1], bp[0], bp[1])
            if key in seen:
                continue
            seen.add(key)
            xr = convex._param_between(inst.R, rp, rpar[rk[0]], rpar[rk[-1]])
            yb = convex._param_between(inst.B, bp, bpar[bk[0]], bpar[bk[-1]])
            tang = (-math.sin(theta), math.cos(theta))
            out.append(((xr if xr is not None else 0.0, -(yb if yb is not None else 0.0)),
                        convex.TangentPair(geometry.Point2(*rp), geometry.Point2(*bp),
                                           geometry.Point2(*tang))))

    out.sort(key=lambda kp: kp[0])
    return [pair for _, pair in out]


def gen_convex_worst(n, seed):
    """A convex instance on which about a third of the tangent pairs have
    d* below the Frechet distance, so convex_frechet splits them all.

    n points on the ellipse (cos t, b sin t), b in [0.05, 0.2], at jittered
    even angles from t = -pi/2, split near the ends of the minor axis: R
    is the right half, B the left one. Antipodal contacts t and t + pi lie
    on different curves at d* = 2 sqrt(cos^2 t + b^2 sin^2 t), while
    d_F >= 1 - O(1/n): when R is at its tip (1, 0), B is on the left half,
    whose points closest to the tip are near (0, +-b). So every pair with
    |cos t| < 1/2 has d* below d_F."""
    rng = random.Random(seed)
    b = rng.uniform(0.05, 0.2)
    pts = [(math.cos(t), b * math.sin(t)) for t in
           (2 * math.pi * (i + rng.uniform(0.1, 0.9)) / n - 0.5 * math.pi for i in range(n))]
    k = n // 2
    return geometry.build_instance(pts[:k + 1], [pts[0]] + pts[k:][::-1])


def merge_duplicates_reference(pts):
    """The vertex list with each run of equal consecutive vertices cut to
    its first, as a Python loop over lists."""
    out = [list(map(float, pts[0]))]
    for p in pts[1:]:
        q = list(map(float, p))
        if q != out[-1]:
            out.append(q)
    return out


def convex_flag_reference(poly):
    """No boundary turn clockwise by more than 1e-12, by orient() vertex by
    vertex."""
    nb = len(poly)
    return not any(orient(poly[k - 1], poly[k], poly[(k + 1) % nb]) < -1e-12
                   for k in range(nb))


def perfbench_workloads():
    """The benchmark's workloads module, loaded once from perfbench/."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def convex_frechet_all_pairs(inst):
    """convex_frechet that splits every tangent pair, sorts the valid splits
    by bound (ties in caliper order) and merges them in that order until a
    bound reaches the best cost."""
    fans = convex._fan_maxima(inst)
    bounds = []
    for pair in convex.tangent_pairs(inst):
        split = convex._split(inst, pair, fans)
        if split is not None:
            bounds.append((split.bound, pair))
    bounds.sort(key=lambda bp: bp[0])
    best = None
    for bound, pair in bounds:
        if best is not None and bound >= best.cost:
            break
        path = convex.parallel_matching_cost(inst, pair)
        if best is None or path.cost < best.cost:
            best = path
    return best


def reference_build_instance(R, B):
    """build_instance with the all-pairs checks and the reference ear
    clipping in place of the library's."""
    saved = (geometry.PolyCurve.is_simple, geometry._curves_cross, geometry.ear_clip)
    geometry.PolyCurve.is_simple = lambda self: is_simple_pairwise(self.pts)
    geometry._curves_cross = curves_cross_pairwise
    geometry.ear_clip = ear_clip_reference
    try:
        return geometry.build_instance(R, B)
    finally:
        (geometry.PolyCurve.is_simple, geometry._curves_cross,
         geometry.ear_clip) = saved


def reachable_points_bruteforce(r, b, delta: float, S, E):
    """Subset of E delta-reachable from S via the interval DP (oneD metric)."""
    rv = np.abs(np.asarray(getattr(r, "values", r), dtype=float))
    bv = np.abs(np.asarray(getattr(b, "values", b), dtype=float))
    n, m = len(rv), len(bv)
    S = [tuple(p) for p in S]
    E = [tuple(p) for p in E]
    for (i, j) in S + E:
        if rv[i - 1] + bv[j - 1] > delta:
            raise ValueError(f"point ({i},{j}) outside free space")
    out = set(p for p in E if p in set(S))
    if n == 1 or m == 1:
        for (ei, ej) in E:
            for (si, sj) in S:
                if si <= ei and sj <= ej:
                    okr = np.all(rv[si - 1:ei] + bv[sj - 1] <= delta + TOL) if n > 1 else True
                    okb = np.all(rv[ei - 1] + bv[sj - 1:ej] <= delta + TOL) if m > 1 else True
                    # movement order: along r at b(sj) then along b at r(ei),
                    # or the other order; either suffices on a path graph
                    okr2 = np.all(rv[si - 1:ei] + bv[ej - 1] <= delta + TOL) if n > 1 else True
                    okb2 = np.all(rv[si - 1] + bv[sj - 1:ej] <= delta + TOL) if m > 1 else True
                    if (okr and okb) or (okr2 and okb2):
                        out.add((ei, ej))
        return sorted(out)
    fs = _freespace_1d(rv, bv, delta)
    VL, HB = _reach_dp(fs, S)
    top, right = _corner_sets(fs, VL, HB, S)
    for (ei, ej) in E:
        if (ei, ej) in out:
            continue
        if ej == m and top[ei]:
            out.add((ei, ej))
        elif ei == n and right[ej]:
            out.add((ei, ej))
        elif ej < m and ei < n and _corner_reachable(fs, VL, HB, ei, ej):
            out.add((ei, ej))
    return sorted(out)
