"""Planar primitives, curve parameterization, polygon validation, triangulation.

Curves use the edge-affine parameterization C(i+t) = (1-t)*c_i + t*c_{i+1}
with parameters living in [1, n] for a curve with n vertices.
"""
from __future__ import annotations

import bisect
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

ORIENT_EPS = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class ParamPoint(NamedTuple):
    """A point (x, y) in the parameter rectangle [1,n] x [1,m]."""
    x: float
    y: float


@dataclass
class MatchingPath:
    """Bimonotone polyline in parameter space together with its cost.

    cost is the maximum pointwise distance over the path under the metric
    of whatever module produced it.
    """
    waypoints: list[ParamPoint]
    cost: float

    def check_bimonotone(self, tol: float = 1e-12) -> bool:
        w = self.waypoints
        return all(w[k + 1].x >= w[k].x - tol and w[k + 1].y >= w[k].y - tol
                   for k in range(len(w) - 1))


def orient(a, b, c) -> float:
    """Signed twice-area of triangle abc; > 0 when counter-clockwise.

    Uses a tolerance of ORIENT_EPS relative to the coordinate magnitudes;
    near-zero results are recomputed with exact arithmetic.
    """
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    scale = max(abs(b[0] - a[0]), abs(c[1] - a[1]), abs(b[1] - a[1]),
                abs(c[0] - a[0]), 1.0)
    if abs(det) > ORIENT_EPS * scale:
        return det
    # exact fallback via integer-free Fraction-less trick: math.fsum of products
    terms = [b[0] * c[1], -b[0] * a[1], -a[0] * c[1],
             -b[1] * c[0], b[1] * a[0], a[1] * c[0]]
    return math.fsum(terms)


def seg_intersect(p1, p2, p3, p4, closed: bool = False) -> bool:
    """True if segment p1-p2 intersects p3-p4.

    With closed=False shared endpoints and collinear overlap do not count.
    """
    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        if not closed:
            return False
        # collinear: project on the dominant axis
        ax = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        lo1, hi1 = sorted((p1[ax], p2[ax]))
        lo2, hi2 = sorted((p3[ax], p4[ax]))
        return hi1 >= lo2 and hi2 >= lo1
    if closed:
        return (o1 * o2 <= 0) and (o3 * o4 <= 0)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


class PolyCurve:
    """2D polygonal curve with parameter domain [1, n]."""

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("curve needs a (k,2) array of vertices, k >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinate")
        self.pts = pts

    @property
    def n(self) -> int:
        return self.pts.shape[0]

    def __len__(self) -> int:
        return self.pts.shape[0]

    def vertex(self, i: int) -> Point2:
        return Point2(float(self.pts[i - 1, 0]), float(self.pts[i - 1, 1]))

    def eval(self, x: float) -> Point2:
        n = self.n
        if not (1.0 - 1e-9 <= x <= n + 1e-9):
            raise ValueError(f"parameter {x} outside [1,{n}]")
        x = min(max(x, 1.0), float(n))
        i = min(int(math.floor(x)), n - 1) if n > 1 else 1
        t = x - i
        p = self.pts[i - 1] * (1.0 - t) + self.pts[i] * t if n > 1 else self.pts[0]
        return Point2(float(p[0]), float(p[1]))

    def subcurve(self, x: float, x2: float) -> "PolyCurve":
        if x2 < x:
            raise ValueError("reversed range")
        a = self.eval(x)
        b = self.eval(x2)
        lo = int(math.ceil(x - 1e-12))
        hi = int(math.floor(x2 + 1e-12))
        mids = [self.pts[i - 1] for i in range(lo, hi + 1)
                if x + 1e-12 < i < x2 - 1e-12]
        verts = [list(a)] + [list(p) for p in mids] + [list(b)]
        # drop exact duplicates created when x or x2 sits on a vertex
        out = [verts[0]]
        for v in verts[1:]:
            if v != out[-1]:
                out.append(v)
        return PolyCurve(out)

    def reversed(self) -> "PolyCurve":
        return PolyCurve(self.pts[::-1])

    def is_simple(self) -> bool:
        p = self.pts.tolist()
        segs = list(zip(p, p[1:]))
        return not any(j > i + 1 and seg_intersect(*segs[i], *segs[j])
                       for i, j in _bbox_pairs(segs))


def _bbox_pairs(segs):
    """Index pairs (i, j), i < j, of the segments ((x0, y0), (x1, y1)) whose
    closed bounding boxes overlap, found by a sweep in x."""
    boxes = [(min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
             for (x0, y0), (x1, y1) in segs]
    active = []
    for i in sorted(range(len(segs)), key=lambda i: boxes[i][0]):
        xlo, _, ylo, yhi = boxes[i]
        active = [j for j in active if boxes[j][1] >= xlo]
        for j in active:
            if boxes[j][2] <= yhi and ylo <= boxes[j][3]:
                yield (j, i) if j < i else (i, j)
        active.append(i)


def _curves_cross(R: "PolyCurve", B: "PolyCurve") -> bool:
    """Some edge of R crosses some edge of B; shared endpoints and collinear
    overlap do not count."""
    r, b = R.pts.tolist(), B.pts.tolist()
    segs = list(zip(r, r[1:])) + list(zip(b, b[1:]))
    k = R.n - 1
    return any(i < k <= j and seg_intersect(*segs[i], *segs[j])
               for i, j in _bbox_pairs(segs))


def eval_curve(curve: PolyCurve, x: float) -> Point2:
    return curve.eval(x)


def subcurve(curve: PolyCurve, x: float, x2: float) -> PolyCurve:
    return curve.subcurve(x, x2)


def _merge_duplicates(pts) -> list[list[float]]:
    out = [list(map(float, pts[0]))]
    for p in pts[1:]:
        q = list(map(float, p))
        if q != out[-1]:
            out.append(q)
    return out


def _signed_area(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _point_in_triangle(p, a, b, c, eps: float = 1e-12) -> bool:
    d1 = orient(a, b, p)
    d2 = orient(b, c, p)
    d3 = orient(c, a, p)
    neg = (d1 < -eps) or (d2 < -eps) or (d3 < -eps)
    pos = (d1 > eps) or (d2 > eps) or (d3 > eps)
    return not (neg and pos)


def ear_clip(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon by ear clipping.

    Returns index triples into poly. Collinear vertices are tolerated.
    Every step clips the lowest-index vertex that is an ear: not reflex at
    its current neighbours, and no other remaining vertex in the closed
    triangle they span (a vertex whose neighbours coincide is clipped
    without a triangle). An ear test looks only at the vertices in a
    bounding box around the triangle, and a vertex is tested again only
    when a neighbour or the vertex that blocked it is clipped.

    When every turn exceeds 4*err, the threshold above which an ear test
    looks only at its bounding box, the polygon is strictly convex beyond
    rounding. Every fan triangle from the last vertex is then an ear, so
    the loop would clip vertices 0, 1, ..., v-4 in turn; their fan is
    returned in O(v) without the loop.
    """
    v = len(poly)
    if v < 3:
        return []
    P = np.asarray(poly, dtype=float).tolist()
    # the eps of _point_in_triangle plus a bound on the rounding error of
    # orient() over these coordinates (about 4e-15 * big**2)
    big = max(1.0, max(abs(c) for p in P for c in p))
    err = 1e-12 + 1e-13 * big * big
    if all(orient(P[k - 1], P[k], P[(k + 1) % v]) > 4 * err for k in range(v)):
        return [(v - 1, k, k + 1) for k in range(v - 3)] + [(v - 3, v - 2, v - 1)]
    prv = [(k - 1) % v for k in range(v)]
    nxt = [(k + 1) % v for k in range(v)]
    alive = [True] * v
    by_x = sorted(range(v), key=lambda k: P[k][0])
    xs = [P[k][0] for k in by_x]
    blocks = defaultdict(list)      # vertex -> the ears it was found inside
    is_ear = [False] * v

    def candidates(a, b, c, cross):
        """Remaining vertices that may lie in the closed triangle abc.

        When cross > 4*err, _point_in_triangle holds only where all three
        orientations exceed -err, so the barycentric coordinates exceed
        -mu and the point lies in the bounding box grown by 2*mu times its
        width (height)."""
        if cross <= 4 * err:
            return (j for j in range(v) if alive[j])
        mu = err / (cross - err)
        xlo, xhi = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        ylo, yhi = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
        sx = 2 * mu * (xhi - xlo) + 1e-12 * big
        sy = 2 * mu * (yhi - ylo) + 1e-12 * big
        ylo, yhi = ylo - sy, yhi + sy
        lo = bisect.bisect_left(xs, xlo - sx)
        hi = bisect.bisect_right(xs, xhi + sx)
        return (j for j in by_x[lo:hi] if alive[j] and ylo <= P[j][1] <= yhi)

    def test(k):
        i0, i2 = prv[k], nxt[k]
        a, b, c = P[i0], P[k], P[i2]
        cross = orient(a, b, c)
        if cross < 0:
            return False
        if cross == 0 and a == c:
            return True
        for j in candidates(a, b, c, cross):
            if j != i0 and j != k and j != i2 and _point_in_triangle(P[j], a, b, c):
                blocks[j].append(k)
                return False
        return True

    heap = []

    def retest(k):
        is_ear[k] = test(k)
        if is_ear[k]:
            heapq.heappush(heap, k)

    for k in range(v):
        retest(k)
    tris: list[tuple[int, int, int]] = []
    left = v
    last = 0
    while left > 3:
        while heap and not (alive[heap[0]] and is_ear[heap[0]]):
            heapq.heappop(heap)
        if heap:
            k = heapq.heappop(heap)
            i0, i2 = prv[k], nxt[k]
            if orient(P[i0], P[k], P[i2]) > 0:
                tris.append((i0, k, i2))
        else:
            # fall back: clip the convex vertex with smallest area violation
            best = None
            for j in range(v):
                if alive[j]:
                    cr = orient(P[prv[j]], P[j], P[nxt[j]])
                    if cr >= 0 and (best is None or cr < best[0]):
                        best = (cr, j)
            if best is None:
                break
            k = best[1]
            i0, i2 = prv[k], nxt[k]
            if orient(P[i0], P[k], P[i2]) > 0:
                tris.append((i0, k, i2))
        alive[k] = False
        left -= 1
        nxt[i0], prv[i2] = i2, i0
        last = i0
        for j in {i0, i2}.union(w for w in blocks.pop(k, ()) if alive[w]):
            retest(j)
    if left == 3:
        t = sorted((last, nxt[last], nxt[nxt[last]]))
        if orient(P[t[0]], P[t[1]], P[t[2]]) > 0:
            tris.append(tuple(t))
    return tris


@dataclass
class PolygonInstance:
    """Validated pair (R, B) bounding a simple polygon.

    boundary holds the polygon cycle in CCW order; triangles index into it.
    degenerate marks zero-area instances where both curves run monotonically
    along one segment (accepted so that identical-boundary strips work).
    """
    R: PolyCurve
    B: PolyCurve
    boundary: np.ndarray
    triangles: list[tuple[int, int, int]]
    adjacency: dict
    degenerate: bool = False
    _engine: object = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.R.n

    @property
    def m(self) -> int:
        return self.B.n

    def area(self) -> float:
        return abs(_signed_area(self.boundary))


def _collinear_monotone(curve: PolyCurve, a, b) -> bool:
    d = np.array([b[0] - a[0], b[1] - a[1]])
    L = np.hypot(*d)
    if L == 0:
        return False
    d = d / L
    proj = (curve.pts - np.array(a)) @ d
    off = np.abs((curve.pts - np.array(a)) @ np.array([-d[1], d[0]]))
    return bool(np.all(off < 1e-9) and np.all(np.diff(proj) > 0))


def build_instance(R, B) -> PolygonInstance:
    """Validate curves R and B and build the triangulated instance.

    R and B may be PolyCurve or array-like vertex lists. Raises ValueError
    on endpoint mismatch, self-intersection, crossing curves, or a
    degenerate polygon that is not a collinear strip.
    """
    R = R if isinstance(R, PolyCurve) else PolyCurve(_merge_duplicates(np.asarray(R, dtype=float)))
    B = B if isinstance(B, PolyCurve) else PolyCurve(_merge_duplicates(np.asarray(B, dtype=float)))
    R = PolyCurve(_merge_duplicates(R.pts))
    B = PolyCurve(_merge_duplicates(B.pts))
    if R.n < 1 or B.n < 1:
        raise ValueError("empty curve")
    tol = 1e-9
    if (math.hypot(R.pts[0, 0] - B.pts[0, 0], R.pts[0, 1] - B.pts[0, 1]) > tol or
            math.hypot(R.pts[-1, 0] - B.pts[-1, 0], R.pts[-1, 1] - B.pts[-1, 1]) > tol):
        raise ValueError("endpoint mismatch: R and B must share both endpoints")
    if not R.is_simple() or not B.is_simple():
        raise ValueError("self-intersecting curve")

    # boundary cycle: R forward then B backward (drop duplicated endpoints)
    cyc = np.vstack([R.pts, B.pts[::-1][1:-1]]) if B.n > 2 else R.pts.copy()
    if R.n == 1:
        cyc = B.pts[:-1] if B.n > 1 else B.pts
    area2 = _signed_area(cyc)

    if abs(area2) < 1e-12 * max(1.0, float(np.max(np.abs(cyc))) ** 2):
        a = tuple(R.pts[0])
        b = tuple(R.pts[-1])
        if _collinear_monotone(R, a, b) and _collinear_monotone(B, a, b):
            inst = PolygonInstance(R, B, cyc, [], {}, degenerate=True)
            return inst
        raise ValueError("degenerate (zero-area) polygon")

    if _curves_cross(R, B):
        raise ValueError("curves cross")

    if area2 < 0:
        # R clockwise builds a clockwise cycle; flip for CCW triangulation
        cyc = cyc[::-1].copy()
    else:
        cyc = cyc.copy()
    # cyc is now CCW
    tris = ear_clip(cyc)
    if len(tris) != len(cyc) - 2:
        raise ValueError("triangulation failed; polygon may not be simple")
    adjacency: dict = {}
    edge_owner: dict = {}
    for t_i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            if key in edge_owner:
                other = edge_owner[key]
                adjacency.setdefault(t_i, {})[key] = other
                adjacency.setdefault(other, {})[key] = t_i
            else:
                edge_owner[key] = t_i
    for t_i in range(len(tris)):
        adjacency.setdefault(t_i, {})
    return PolygonInstance(R, B, cyc, tris, adjacency)


def boundary_params(inst: PolygonInstance):
    """rpar[k], bpar[k]: the 1-based parameter of boundary vertex k on R and
    on B, or None when the vertex is not on that curve.

    Follows the layout of build_instance: R forward, then the interior of B
    backward (B forward without its closing vertex when R is one point),
    reversed when that runs clockwise."""
    bd = inst.boundary
    nb = len(bd)
    n, m = inst.R.n, inst.B.n
    rpar = [None] * nb
    bpar = [None] * nb
    if n > 1:
        rpar[:n] = range(1, n + 1)
        bpar[0] = 1
        if m > 1:
            bpar[n - 1] = m
        for j in range(2, m):
            bpar[n + m - 1 - j] = j
        flipped = not np.array_equal(bd[:n], inst.R.pts)
    else:
        rpar[0] = 1
        bpar[:nb] = range(1, nb + 1)
        flipped = not np.array_equal(bd, inst.B.pts[:nb])
    if flipped:
        rpar.reverse()
        bpar.reverse()
    return rpar, bpar


def instance_to_json_dict(inst: PolygonInstance) -> dict:
    return {"R": [[float(x), float(y)] for x, y in inst.R.pts],
            "B": [[float(x), float(y)] for x, y in inst.B.pts]}


def instance_from_json_dict(d: dict) -> PolygonInstance:
    return build_instance(d["R"], d["B"])
