"""Nearest-neighbor profile of R onto B, near/far classification, slab
partition with entrance/exit intervals, and nearest-neighbor fans.

The profile starts from the source vertices and splits an interval (a
bracket) only while the nearest target edge differs at its two ends. A
simple polygon with its geodesic metric is CAT(0), so along one source
edge the distance to one target edge is convex and the nearest point on
it moves continuously; the nearest point can only jump where the nearest
edge changes. A bracket is split only strictly inside, is dropped once
its ends share the nearest edge, and stops at width `_BP_TOL`, where the
change is kept as a breakpoint unless the nearest point merely slid
across the vertex shared by two adjacent edges.

The split point is not the midpoint but a regula-falsi estimate of the
root of h = g_a - g_b, the difference of the distances to the nearest
edges a and b at the two ends (see _split_point), so a bracket closes in a
few queries instead of some 33 halvings. h is read off the values the
nearest-point search already has: an edge's geodesic minimum where the
search queried it, its Euclidean lower bound where it pruned it. Where h
gives no estimate, as when one end sits on the vertex shared by a and b
and h is 0 there, the split is the midpoint. The invariant above holds
wherever a split lands, so a poor estimate costs queries only, and the
split points move the breakpoints and the maximum only within the final
bracket width.

Nothing guards a nearest edge that leaves edge j for edge k and comes
back to j inside one source edge, where both ends see j. It has not been
seen: on 960 profiles vertex starts found the same breakpoints as 12
samples per edge, and 24,614 dense nearest points (31 per source edge)
all fell inside the regime holding them. The maximum does not depend on
it (see NNProfile.max_value).

The nearest point itself is found without querying every target edge: a
geodesic is never shorter than the straight segment, so edges are taken
in increasing order of their Euclidean distance and the search stops once
that lower bound exceeds the best geodesic minimum found (see _nn_search).

The Hausdorff bound reads only the maximum of the reverse profile (B onto
R). For it the build drops every bracket whose convexity bound lies below
the largest value seen so far in either direction (see _bracket_below and
_reverse_top); `nn_profile_reverse` stays the full profile.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .geometry import Point2, PolyCurve, PolygonInstance
from .geodesic import get_engine

_BP_TOL = 1e-10


class EmptyFanLeaf(Exception):
    """Raised when a near apex has no fan leaf; only possible for δ < δ_H."""


@dataclass
class Fan:
    apex: Point2
    leaf: tuple  # (x_lo, x_hi) on R


@dataclass
class Slab:
    kind: str  # "near" | "far"
    y_lo: float
    y_hi: float
    entrance: tuple  # x-interval at y_lo
    exit: tuple      # x-interval at y_hi


@dataclass
class NNProfile:
    """Envelope of nearest points on `target` seen from along `source`."""
    breakpoints: list  # (x, y_before, y_after)
    regimes: list      # (x0, x1, y0, y1)
    top: float         # largest nearest distance the build evaluated
    inst: PolygonInstance = field(repr=False)
    source: PolyCurve = field(repr=False)
    target: PolyCurve = field(repr=False)
    segs: list = field(repr=False)  # _segments(target)

    def nn_at(self, x: float):
        """(nearest parameter on target, distance) for source point x."""
        return _nn_point(self.inst, self.source, self.target, self.segs, x)[:2]

    def max_value(self) -> float:
        """sup_x d(source(x), target): the largest value the build
        evaluated, never below the supremum and above it by at most
        _BP_TOL times the longest source edge.

        Let g_j(x) be the distance from source(x) to target edge j. Along
        one source edge g_j is convex, because the polygon is CAT(0). On an
        interval whose ends have the same nearest edge j, the envelope
        min_k g_k is at most g_j, whose maximum there sits at an end, where
        the envelope equals g_j; so the interval adds nothing above its
        ends. Intervals whose ends have nearest edges a != b are split
        down to width _BP_TOL, where the build also evaluates g_a and g_b
        at the far ends and takes the smaller. This needs two conditions:
        every source vertex is a sample, so that each interval lies on one
        source edge, and `SegmentProfile.minimum` is the exact distance to
        an edge, so that an evaluated value is g_j itself and not a bound.
        The argument holds even where the nearest edge changes and changes
        back inside an interval, so no further samples are needed.
        """
        return self.top

    def x_for_target(self, y: float) -> float:
        """Some x whose nearest neighbor is target(y); y must be near."""
        for (x0, x1, y0, y1) in self.regimes:
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                if y <= y0:
                    return x0
                if y >= y1:
                    return x1
                lo, hi = x0, x1
                while True:
                    mid = 0.5 * (lo + hi)
                    if mid == lo or mid == hi:
                        return mid  # no float left between lo and hi
                    ym, _v = self.nn_at(mid)
                    if ym < y:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo < _BP_TOL:
                        return 0.5 * (lo + hi)
        raise ValueError(f"target parameter {y} is not a near point")


def _segments(curve: PolyCurve) -> list:
    """Edges of curve as float tuples (ax, ay, bx, by), edge j at j - 1."""
    p = curve.pts.tolist()
    return [(a[0], a[1], b[0], b[1]) for a, b in zip(p, p[1:])]


def _edge_min(inst, p, seg):
    """(t_min in [0,1], value) of d(p, edge seg)."""
    ax, ay, bx, by = seg
    return get_engine(inst).segment_profile(p, (ax, ay), (bx, by)).minimum()


def _seg_dist(px, py, seg) -> float:
    """Straight-line distance from (px, py) to edge seg."""
    ax, ay, bx, by = seg
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = min(max(((px - ax) * dx + (py - ay) * dy) / L2, 0.0), 1.0) if L2 > 0 else 0.0
    return math.hypot(ax + dx * t - px, ay + dy * t - py)


def _nn_point(inst, source, target, segs, x):
    """(global parameter on target, distance, target edge) of the nearest
    point; ties within 1e-12 go to the smaller parameter. `segs` is
    `_segments(target)`."""
    return _nn_search(inst, source, target, segs, x)[0]


def _nn_search(inst, source, target, segs, x):
    """_nn_point, and per target edge j (at j - 1) its geodesic minimum
    where the search queried it and its Euclidean lower bound where it
    pruned it.

    A geodesic is never shorter than the straight segment, so the
    Euclidean distance to an edge bounds its geodesic minimum from below.
    Edges are queried in increasing order of that bound until it exceeds
    the best minimum found by more than the 1e-12 tie window and a 1e-9
    relative slack for the rounding of both computations. A skipped edge
    cannot tie with the minimum, and the tie-break runs over the queried
    edges in edge order, as a scan over all edges does; the two can differ
    only through a chain of pairwise ties longer than the slack."""
    p = source.eval(x)
    if not segs:
        return (1.0, get_engine(inst).distance(p, tuple(target.pts[0])), 1), []
    px, py = p
    found = []
    best = math.inf
    g = [_seg_dist(px, py, sg) for sg in segs]
    for lb, j in sorted(zip(g, range(1, len(segs) + 1))):
        if lb * (1 - 1e-9) > best + 1e-12:
            break
        t, v = _edge_min(inst, p, segs[j - 1])
        found.append((j + t, v, j))
        g[j - 1] = v
        best = min(best, v)
    out = None
    for cand in sorted(found, key=lambda c: c[2]):
        if out is None or cand[1] < out[1] - 1e-12 or \
                (abs(cand[1] - out[1]) <= 1e-12 and cand[0] < out[0]):
            out = cand
    return out, g


def _jumps(source, target, xa, xb, a, b) -> bool:
    """Whether the nearest point jumps between source params xa and xb
    (_BP_TOL apart), whose nearest points a and b lie on different edges.
    It slides instead when the edges are adjacent and it sits on their
    shared vertex or moved at most twice as far as the source point."""
    if abs(a[2] - b[2]) != 1:
        return True
    shared = float(max(a[2], b[2]))
    if a[0] == shared or b[0] == shared:
        return False
    moved = math.dist(target.eval(a[0]), target.eval(b[0]))
    return moved > 2 * math.dist(source.eval(xa), source.eval(xb))


def _split_point(xa, xb, fa, fb, moved, stalls) -> float:
    """Where to split the bracket [xa, xb] around the root of h = g_a - g_b,
    given the (possibly scaled) values fa <= 0 <= fb of h at its ends.

    Regula falsi, nudged by w = 0.4 * _BP_TOL past the root toward the end
    that did not move last (moved: -1 left, 1 right, 0 neither) so that
    the bracket closes from both sides, and clamped to w inside the
    bracket. The midpoint after three splits that failed to halve the
    width, or when h does not change sign."""
    w = 0.4 * _BP_TOL
    if stalls >= 3 or not fa < 0 < fb:
        return 0.5 * (xa + xb)
    x = xa + (xb - xa) * (fa / (fa - fb)) - moved * w
    return min(max(x, xa + w), xb - w)


def _ab_scale(fm, fp) -> float:
    """Anderson-Bjorck factor for the value of an end kept twice in a row,
    when the other end, of value fp, moved to a point of value fm."""
    m = 1.0 - fm / fp if fp else 0.0
    return m if m > 0 else 0.5


def _bracket_below(inst, source, segs, xa, xb, a, b, level) -> bool:
    """Whether nothing the build evaluates inside the bracket [xa, xb],
    whose ends have nearest points a and b on edges a != b, can exceed
    `level`. Along one source edge g_a and g_b are convex, so inside the
    bracket the envelope and the values evaluated at its closing stay
    below min(max(g_a(xa), g_a(xb)), max(g_b(xa), g_b(xb))); the factor
    1 + 1e-9 covers the rounding of the four values."""
    ga = _edge_min(inst, source.eval(xb), segs[a[2] - 1])[1]
    gb = _edge_min(inst, source.eval(xa), segs[b[2] - 1])[1]
    return min(max(a[1], ga), max(gb, b[1])) * (1 + 1e-9) < level


def _build_profile(inst, source: PolyCurve, target: PolyCurve,
                   floor=None) -> NNProfile:
    """The profile of source onto target. With a `floor`, only
    max(floor, top) is wanted: a bracket is dropped when it cannot raise
    max(top so far, floor) (see _bracket_below), which leaves that maximum
    unchanged but the breakpoints and regimes incomplete."""
    n = source.n
    segs = _segments(target)
    if inst.degenerate:
        return NNProfile([], [(1.0, float(n), 1.0, float(target.n))], 0.0,
                         inst, source, target, segs)
    xs = [float(i) for i in range(1, n + 1)]
    nns, gs = zip(*(_nn_search(inst, source, target, segs, x) for x in xs))
    top = max(v for (_, v, _) in nns)

    breakpoints = []  # left to right
    # (xa, xb, nearest at xa, nearest at xb, edge values at xa and at xb,
    # end that moved last)
    stack = [(xs[i], xs[i + 1], nns[i], nns[i + 1], gs[i], gs[i + 1], 0)
             for i in range(len(xs) - 1)][::-1]
    while stack:
        xa, xb, a, b, ga, gb, moved = stack.pop()
        if a[2] == b[2] or floor is not None and _bracket_below(
                inst, source, segs, xa, xb, a, b, max(top, floor)):
            continue
        # h = g_a - g_b at the two ends, a pruned edge's value a lower bound
        fa, fb = a[1] - ga[b[2] - 1], gb[a[2] - 1] - b[1]
        stalls = 0
        while xb - xa > _BP_TOL:
            width = xb - xa
            xm = _split_point(xa, xb, fa, fb, moved, stalls)
            mid, gm = _nn_search(inst, source, target, segs, xm)
            top = max(top, mid[1])
            if mid[2] == a[2]:
                fm = mid[1] - gm[b[2] - 1]
                if moved == -1:  # the right end kept twice
                    fb *= _ab_scale(fm, fa)
                xa, a, ga, fa, moved = xm, mid, gm, fm, -1
            elif mid[2] == b[2]:
                fm = gm[a[2] - 1] - mid[1]
                if moved == 1:  # the left end kept twice
                    fa *= _ab_scale(fm, fb)
                xb, b, gb, fb, moved = xm, mid, gm, fm, 1
            else:
                stack.append((xm, xb, mid, b, gm, gb, -1))
                stack.append((xa, xm, a, mid, ga, gm, 1))
                break
            stalls = stalls + 1 if xb - xa > 0.5 * width else 0
        else:
            # the envelope here lies below both edges' convex distances
            top = max(top, min(_edge_min(inst, source.eval(xb), segs[a[2] - 1])[1],
                               _edge_min(inst, source.eval(xa), segs[b[2] - 1])[1]))
            if _jumps(source, target, xa, xb, a, b):
                breakpoints.append((0.5 * (xa + xb), a[0], b[0]))

    ends = [(1.0, None, nns[0][0])] + breakpoints + [(float(n), nns[-1][0], None)]
    regimes = [(x0, x1, min(y0, y1), max(y0, y1))
               for (x0, _, y0), (x1, y1, _) in zip(ends, ends[1:])]
    return NNProfile(breakpoints, regimes, top, inst, source, target, segs)


def nn_profile(inst: PolygonInstance) -> NNProfile:
    """Nearest-neighbor profile of R onto B."""
    key = "nn_profile_RB"
    if key not in inst._cache:
        inst._cache[key] = _build_profile(inst, inst.R, inst.B)
    return inst._cache[key]


def nn_profile_reverse(inst: PolygonInstance) -> NNProfile:
    """Nearest-neighbor profile of B onto R (used for the Hausdorff bound)."""
    key = "nn_profile_BR"
    if key not in inst._cache:
        inst._cache[key] = _build_profile(inst, inst.B, inst.R)
    return inst._cache[key]


def _reverse_top(inst: PolygonInstance, floor: float) -> float:
    """max(floor, nn_profile_reverse(inst).top), building the reverse
    profile only where it can raise that maximum unless it is cached."""
    prof = inst._cache.get("nn_profile_BR")
    if prof is None:
        prof = _build_profile(inst, inst.B, inst.R, floor=floor)
    return max(floor, prof.top)


def fan_leaf(inst: PolygonInstance, apex, seed_x: float, delta: float) -> Fan:
    """Maximal interval of R containing seed_x within distance δ of apex."""
    eng = get_engine(inst)
    R = inst.R
    n = R.n
    apex = (float(apex[0]), float(apex[1]))
    if eng.distance(tuple(R.eval(seed_x)), apex) > delta * (1 + 1e-9) + 1e-12:
        raise ValueError("seed point is farther than delta from the apex")
    if n == 1:
        return Fan(Point2(*apex), (1.0, 1.0))

    def edge_free(i):
        prof = eng.segment_profile(apex, R.pts[i - 1], R.pts[i])
        return prof.free_interval(delta)

    i0 = min(max(int(math.floor(seed_x)), 1), n - 1)
    iv = edge_free(i0)
    if iv is None:
        # seed sits on a vertex shared with the neighbor edge
        if seed_x <= i0 + 1e-9 and i0 > 1:
            i0 -= 1
            iv = edge_free(i0)
        if iv is None:
            raise ValueError("seed point is farther than delta from the apex")
    lo = i0 + iv[0]
    hi = i0 + iv[1]
    i, iv0 = i0, iv
    while iv[0] <= 1e-12 and i > 1:
        i -= 1
        iv2 = edge_free(i)
        if iv2 is None or iv2[1] < 1.0 - 1e-12:
            break
        iv = iv2
        lo = i + iv[0]
    i, iv = i0, iv0
    while iv[1] >= 1.0 - 1e-12 and i < n - 1:
        i += 1
        iv2 = edge_free(i)
        if iv2 is None or iv2[0] > 1e-12:
            break
        iv = iv2
        hi = i + iv[1]
    return Fan(Point2(*apex), (lo, hi))


def build_slabs(inst: PolygonInstance, profile: NNProfile, delta: float) -> list[Slab]:
    """Tile [1, m] into alternating maximal near/far slabs for R onto B."""
    m = inst.B.n
    near = sorted((y0, y1) for (_, _, y0, y1) in profile.regimes)
    merged = [list(near[0])] if near else [[1.0, 1.0]]
    for (a, b) in near[1:]:
        if a <= merged[-1][1] + 1e-9:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # the shared endpoints are always near (distance 0 to the other curve)
    merged[0][0] = 1.0
    if merged[-1][1] < float(m) - 1e-9:
        merged.append([float(m), float(m)])
    else:
        merged[-1][1] = float(m)

    @functools.cache  # a boundary is one slab's exit and the next's entrance
    def fan_at(y):
        y = min(max(y, 1.0), float(m))
        apex = inst.B.eval(y)
        if y <= 1.0 + 1e-12:
            seed = 1.0
        elif y >= float(m) - 1e-12:
            seed = float(inst.R.n)
        else:
            seed = profile.x_for_target(y)
        try:
            fan = fan_leaf(inst, apex, seed, delta)
        except ValueError as exc:
            raise EmptyFanLeaf(str(exc)) from exc
        return fan.leaf

    slabs = []
    for (a, b) in merged:
        if slabs and a > slabs[-1].y_hi + 1e-12:
            prev_hi = slabs[-1].y_hi
            slabs.append(Slab("far", prev_hi, a, fan_at(prev_hi), fan_at(a)))
        slabs.append(Slab("near", a, max(a, b), fan_at(a), fan_at(b)))
    return slabs
