"""Independent brute-force references: free-space decision DP and bisection
optimization.

Everything here is written against the textbook cell-interval propagation
and deliberately shares no logic with the slab/anchor pipeline. Intended
for small inputs (n, m up to a few dozen).
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

TOL = 1e-12


def _interval_linear(a0: float, a1: float, U: float):
    """{t in [0,1] : (1-t)a0 + t*a1 <= U} for a linear function."""
    f0 = a0 <= U
    f1 = a1 <= U
    if f0 and f1:
        return (0.0, 1.0)
    if not f0 and not f1:
        return None
    t = (U - a0) / (a1 - a0)
    return (0.0, t) if f0 else (t, 1.0)


def _interval_quadratic(p, a, b, delta: float):
    """{t in [0,1] : |(1-t)a + t*b - p| <= delta} for 2D points."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    vx, vy = a[0] - p[0], a[1] - p[1]
    A = dx * dx + dy * dy
    if A < TOL:
        return (0.0, 1.0) if math.hypot(vx, vy) <= delta + TOL else None
    Bc = vx * dx + vy * dy
    C = vx * vx + vy * vy - delta * delta
    disc = Bc * Bc - A * C
    if disc < 0:
        return None
    s = math.sqrt(disc)
    lo = (-Bc - s) / A
    hi = (-Bc + s) / A
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if lo > hi:
        return None
    return (lo, hi)


class FreeSpaceCellIntervals:
    """Free intervals on the vertical/horizontal cell boundaries.

    vfree(i, j): boundary x=i, y in [j, j+1] (1 <= i <= n, 1 <= j <= m-1).
    hfree(i, j): boundary y=j, x in [i, i+1] (1 <= i <= n-1, 1 <= j <= m).
    Both return (lo, hi) offsets in [0,1] or None.
    """

    def __init__(self, n: int, m: int, vfree: Callable, hfree: Callable):
        self.n = n
        self.m = m
        self.vfree = vfree
        self.hfree = hfree


def _reach_dp(fs: FreeSpaceCellIntervals, seeds: list[tuple[int, int]]):
    """Multi-source monotone interval propagation.

    Returns (VL, HB): minimal reachable offsets per boundary (math.inf for
    unreachable). Seeds are free grid corners.
    """
    n, m = fs.n, fs.m
    VL = {}
    HB = {}
    seedset = set(seeds)
    for (si, sj) in seedset:
        if sj <= m - 1:
            iv = fs.vfree(si, sj)
            if iv is not None and iv[0] <= TOL:
                VL[(si, sj)] = min(VL.get((si, sj), math.inf), iv[0])
        if si <= n - 1:
            iv = fs.hfree(si, sj)
            if iv is not None and iv[0] <= TOL:
                HB[(si, sj)] = min(HB.get((si, sj), math.inf), iv[0])
    for i in range(1, n):
        for j in range(1, m):
            left = VL.get((i, j))
            bottom = HB.get((i, j))
            if left is None and bottom is None:
                continue
            ivr = fs.vfree(i + 1, j)
            if ivr is not None:
                cand = math.inf
                if bottom is not None:
                    cand = ivr[0]
                if left is not None:
                    cand = min(cand, max(ivr[0], left))
                if cand <= ivr[1] + TOL:
                    VL[(i + 1, j)] = min(VL.get((i + 1, j), math.inf), cand)
            ivt = fs.hfree(i, j + 1)
            if ivt is not None:
                cand = math.inf
                if left is not None:
                    cand = ivt[0]
                if bottom is not None:
                    cand = min(cand, max(ivt[0], bottom))
                if cand <= ivt[1] + TOL:
                    HB[(i, j + 1)] = min(HB.get((i, j + 1), math.inf), cand)
    return VL, HB


def _corner_reachable(fs: FreeSpaceCellIntervals, VL, HB, i: int, j: int) -> bool:
    n, m = fs.n, fs.m
    if j >= 2 and (i, j - 1) in VL:
        iv = fs.vfree(i, j - 1)
        if iv is not None and iv[1] >= 1.0 - TOL:
            return True
    if i >= 2 and (i - 1, j) in HB:
        iv = fs.hfree(i - 1, j)
        if iv is not None and iv[1] >= 1.0 - TOL:
            return True
    if j <= m - 1 and VL.get((i, j), math.inf) <= TOL:
        return True
    if i <= n - 1 and HB.get((i, j), math.inf) <= TOL:
        return True
    return False


def _full(iv) -> bool:
    return iv is not None and iv[0] <= TOL and iv[1] >= 1.0 - TOL


def _corner_sets(fs: FreeSpaceCellIntervals, VL, HB, seeds):
    """Reachability of corners on the top row and right column, where
    movement runs along the diagram border and crosses corners without a
    cell above/right to propagate through."""
    n, m = fs.n, fs.m
    seedset = set(seeds)

    def base(i, j):
        return (i, j) in seedset or _corner_reachable(fs, VL, HB, i, j)

    top = {}
    prev = False
    for i in range(1, n + 1):
        cur = base(i, m) or (prev and i >= 2 and _full(fs.hfree(i - 1, m)))
        top[i] = cur
        prev = cur
    right = {}
    prev = False
    for j in range(1, m + 1):
        cur = base(n, j) or (prev and j >= 2 and _full(fs.vfree(n, j - 1)))
        right[j] = cur
        prev = cur
    return top, right


def _freespace_1d(r_values, b_values, delta: float) -> FreeSpaceCellIntervals:
    Ar = np.abs(np.asarray(r_values, dtype=float))
    Ab = np.abs(np.asarray(b_values, dtype=float))

    def vfree(i, j):
        return _interval_linear(Ar[i - 1] + Ab[j - 1], Ar[i - 1] + Ab[j], delta)

    def hfree(i, j):
        return _interval_linear(Ar[i - 1] + Ab[j - 1], Ar[i] + Ab[j - 1], delta)

    return FreeSpaceCellIntervals(len(Ar), len(Ab), vfree, hfree)


def _freespace_euclid(r_pts, b_pts, delta: float) -> FreeSpaceCellIntervals:
    R = np.asarray(r_pts, dtype=float)
    B = np.asarray(b_pts, dtype=float)

    def vfree(i, j):
        return _interval_quadratic(R[i - 1], B[j - 1], B[j], delta)

    def hfree(i, j):
        return _interval_quadratic(B[j - 1], R[i - 1], R[i], delta)

    return FreeSpaceCellIntervals(len(R), len(B), vfree, hfree)


def _freespace_geodesic(inst, delta: float) -> FreeSpaceCellIntervals:
    """Geodesic free space via per-boundary unimodal profiles, cached on the
    instance so bisection reuses them."""
    from .geodesic import get_engine

    eng = get_engine(inst)
    R = inst.R
    B = inst.B

    cache = inst._cache.setdefault("oracle_profiles", {})

    def vprof(i, j):
        key = ("v", i, j)
        if key not in cache:
            cache[key] = eng.segment_profile(R.pts[i - 1], B.pts[j - 1], B.pts[j])
        return cache[key]

    def hprof(i, j):
        key = ("h", i, j)
        if key not in cache:
            cache[key] = eng.segment_profile(B.pts[j - 1], R.pts[i - 1], R.pts[i])
        return cache[key]

    def vfree(i, j):
        return vprof(i, j).free_interval(delta)

    def hfree(i, j):
        return hprof(i, j).free_interval(delta)

    return FreeSpaceCellIntervals(R.n, B.n, vfree, hfree)


def _build_freespace(inp, metric: str, delta: float) -> FreeSpaceCellIntervals:
    if metric == "oneD":
        r, b = inp
        rv = getattr(r, "values", r)
        bv = getattr(b, "values", b)
        return _freespace_1d(rv, bv, delta)
    if metric == "euclidean":
        if hasattr(inp, "R"):
            return _freespace_euclid(inp.R.pts, inp.B.pts, delta)
        r, b = inp
        return _freespace_euclid(np.asarray(r), np.asarray(b), delta)
    if metric == "geodesic":
        return _freespace_geodesic(inp, delta)
    raise ValueError(f"unknown metric {metric}")


def _endpoint_dist(inp, metric: str, which: str) -> float:
    if metric == "oneD":
        r, b = inp
        rv = np.abs(np.asarray(getattr(r, "values", r), dtype=float))
        bv = np.abs(np.asarray(getattr(b, "values", b), dtype=float))
        return float(rv[0] + bv[0]) if which == "start" else float(rv[-1] + bv[-1])
    if hasattr(inp, "R"):
        R, B = inp.R.pts, inp.B.pts
    else:
        R, B = np.asarray(inp[0], dtype=float), np.asarray(inp[1], dtype=float)
    a, b = (R[0], B[0]) if which == "start" else (R[-1], B[-1])
    if metric == "euclidean":
        return float(math.hypot(a[0] - b[0], a[1] - b[1]))
    from .geodesic import get_engine
    return get_engine(inp).distance(a, b)


def freespace_decide(inp, metric: str, delta: float) -> bool:
    """Exact Alt-Godau style decision: d_F <= delta (up to root tolerance)."""
    if _endpoint_dist(inp, metric, "start") > delta + TOL:
        return False
    if _endpoint_dist(inp, metric, "end") > delta + TOL:
        return False
    fs = _build_freespace(inp, metric, delta)
    n, m = fs.n, fs.m
    if n == 1 and m == 1:
        return True
    if n == 1 or m == 1:
        # single column/row: every boundary interval must be fully free
        if n == 1:
            return all(fs.vfree(1, j) == (0.0, 1.0) for j in range(1, m))
        return all(fs.hfree(i, 1) == (0.0, 1.0) for i in range(1, n))
    VL, HB = _reach_dp(fs, [(1, 1)])
    top, right = _corner_sets(fs, VL, HB, [(1, 1)])
    return top[n] or right[m]


def _diameter_bound(inp, metric: str) -> float:
    if metric == "oneD":
        r, b = inp
        rv = np.abs(np.asarray(getattr(r, "values", r), dtype=float))
        bv = np.abs(np.asarray(getattr(b, "values", b), dtype=float))
        return float(rv.max() + bv.max())
    if hasattr(inp, "R"):
        R, B = inp.R.pts, inp.B.pts
    else:
        R, B = np.asarray(inp[0], dtype=float), np.asarray(inp[1], dtype=float)
    d = 0.0
    for p in R:
        for q in B:
            d = max(d, math.hypot(p[0] - q[0], p[1] - q[1]))
    if metric == "geodesic":
        from .geodesic import get_engine
        eng = get_engine(inp)
        d = 0.0
        for p in R:
            for q in B:
                d = max(d, eng.distance(p, q))
    return d


def frechet_bisect(inp, metric: str = "euclidean", tol: float = 1e-10) -> float:
    """Bisection on delta; returns the upper end of the final interval."""
    lo = max(_endpoint_dist(inp, metric, "start"),
             _endpoint_dist(inp, metric, "end"))
    hi = max(lo, _diameter_bound(inp, metric)) + tol
    if freespace_decide(inp, metric, lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if freespace_decide(inp, metric, mid):
            hi = mid
        else:
            lo = mid
    return hi
