"""Geodesic shortest paths, distances, unimodal point-to-edge distance
profiles, and ray shooting inside a triangulated simple polygon.

A path query locates both end points, takes the sleeve between their
triangles from the dual tree (rooted once; a walk to the lowest common
ancestor) and runs the funnel over its portals, which yields the straight
segment when the two points see each other. Convex and degenerate
polygons skip the sleeve.

Point location validates every input: it raises ValueError for a point
outside the polygon, so no query scans the boundary beforehand. A point
is in a triangle when no corner turn toward it is clockwise by more than
LOC_TOL * M * E, with M the largest |coordinate| on the boundary and E
its extent: rounding moves a computed point by about 1e-16 * M, and a
turn multiplies that by an edge no longer than E. Location thus scales
with the polygon, and a translation widens it only in proportion. Each
engine keeps one cache, keyed on the exact float coordinates of the
query, for point locations, paths, distances and segment profiles; a
point is therefore located by a scan over the triangles only the first
time it is seen.

Numeric slack contract: bisection tolerances 1e-10 in parameter and 1e-9
in distance; callers comparing against a threshold delta should allow
delta * (1 + 1e-9).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .geometry import PolygonInstance, PolyCurve, Point2

PAR_TOL = 1e-10
DIST_TOL = 1e-9
SLACK = 1e-9
BETWEEN_TOL = 1e-9  # funnel: slack of the collinear "b between a and c"
LOC_TOL = 1e-12  # point location, relative; see the module docstring


@dataclass
class GeodesicPath:
    waypoints: list[Point2]
    length: float


def _is_between(a, b, c) -> bool:
    """b on segment a-c (collinearity assumed by the caller)."""
    dax, day = b[0] - a[0], b[1] - a[1]
    dcx, dcy = c[0] - b[0], c[1] - b[1]
    return dax * dcx + day * dcy >= -BETWEEN_TOL


def _triarea2(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _funnel(portals, start, goal):
    """Simple stupid funnel over (right, left) portal pairs."""
    pts = [tuple(start)]
    portals = [(tuple(start), tuple(start))] + portals + [(tuple(goal), tuple(goal))]
    apex = pleft = pright = tuple(start)
    left_i = right_i = apex_i = 0
    i = 0
    while i < len(portals):
        right, left = portals[i]
        if _triarea2(apex, pright, right) >= 0.0:
            if apex == pright or _triarea2(apex, pleft, right) < 0.0 or \
                    (_triarea2(apex, pleft, right) == 0.0 and _is_between(pleft, right, apex)):
                pright = right
                right_i = i
            else:
                if pts[-1] != pleft:
                    pts.append(pleft)
                apex = pleft
                apex_i = left_i
                pleft = pright = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        if _triarea2(apex, pleft, left) <= 0.0:
            if apex == pleft or _triarea2(apex, pright, left) > 0.0 or \
                    (_triarea2(apex, pright, left) == 0.0 and _is_between(pright, left, apex)):
                pleft = left
                left_i = i
            else:
                if pts[-1] != pright:
                    pts.append(pright)
                apex = pright
                apex_i = right_i
                pleft = pright = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        i += 1
    if pts[-1] != tuple(goal):
        pts.append(tuple(goal))
    return pts


class SegmentProfile:
    """Geodesic distance from a fixed source to points of a segment a-b.

    Piecewise representation: on piece k, for t in [t0, t1],
    d(t) = D_k + |apex_k - s(t)| with s(t) = (1-t) a + t b. The profile is
    unimodal: it decreases to a single minimum and increases after it.
    """

    def __init__(self, pieces, a, b):
        self.pieces = pieces  # list of (t0, t1, (ax, ay), D)
        self.a = (float(a[0]), float(a[1]))
        self.b = (float(b[0]), float(b[1]))
        self._min = None

    def _s(self, t):
        return (self.a[0] + (self.b[0] - self.a[0]) * t,
                self.a[1] + (self.b[1] - self.a[1]) * t)

    def eval(self, t: float) -> float:
        t = min(max(t, 0.0), 1.0)
        for (t0, t1, apex, D) in self.pieces:
            if t <= t1 + PAR_TOL:
                s = self._s(t)
                return D + math.hypot(s[0] - apex[0], s[1] - apex[1])
        t0, t1, apex, D = self.pieces[-1]
        s = self._s(t)
        return D + math.hypot(s[0] - apex[0], s[1] - apex[1])

    def minimum(self):
        """(t_min, value) of the global minimum."""
        if self._min is not None:
            return self._min
        best = (0.0, self.eval(0.0))
        for (t0, t1, apex, D) in self.pieces:
            dx, dy = self.b[0] - self.a[0], self.b[1] - self.a[1]
            L2 = dx * dx + dy * dy
            if L2 > 0:
                tp = ((apex[0] - self.a[0]) * dx + (apex[1] - self.a[1]) * dy) / L2
                tp = min(max(tp, t0), t1)
            else:
                tp = t0
            for t in (t0, t1, tp):
                s = self._s(t)
                v = D + math.hypot(s[0] - apex[0], s[1] - apex[1])
                if v < best[1]:
                    best = (t, v)
        self._min = best
        return best

    def free_interval(self, delta: float):
        """{t : d(t) <= delta} as one interval (unimodality), or None.
        Comparisons use the engine slack delta * (1 + SLACK)."""
        dl = delta * (1.0 + SLACK) + 1e-15
        tmin, vmin = self.minimum()
        if vmin > dl:
            return None
        lo, hi = None, None
        for (t0, t1, apex, D) in self.pieces:
            rem = dl - D
            if rem < 0:
                continue
            dx, dy = self.b[0] - self.a[0], self.b[1] - self.a[1]
            vx, vy = self.a[0] - apex[0], self.a[1] - apex[1]
            A = dx * dx + dy * dy
            if A < 1e-18:
                if math.hypot(vx, vy) <= rem:
                    lo = t0 if lo is None else min(lo, t0)
                    hi = t1 if hi is None else max(hi, t1)
                continue
            Bc = vx * dx + vy * dy
            C = vx * vx + vy * vy - rem * rem
            disc = Bc * Bc - A * C
            if disc < 0:
                continue
            s = math.sqrt(disc)
            r0 = max((-Bc - s) / A, t0)
            r1 = min((-Bc + s) / A, t1)
            if r0 > r1:
                continue
            lo = r0 if lo is None else min(lo, r0)
            hi = r1 if hi is None else max(hi, r1)
        if lo is None:
            return None
        return (max(lo, 0.0), min(hi, 1.0))

    def threshold_crossings(self, delta: float):
        """Parameters strictly inside (0,1) where d = delta, at most 2."""
        iv = self.free_interval(delta)
        if iv is None:
            return []
        out = []
        if iv[0] > PAR_TOL:
            out.append(iv[0])
        if iv[1] < 1.0 - PAR_TOL:
            out.append(iv[1])
        return out


@dataclass
class EdgeDistanceProfile:
    """Distance profile from a source to one curve edge, unimodal.

    min_param lives in the curve parameterization [i, i+1]."""
    source: Point2
    edge: tuple
    min_param: float
    min_value: float
    profile: SegmentProfile

    def eval_at(self, x: float) -> float:
        i = self.edge[1]
        return self.profile.eval(x - i)


class GeodesicEngine:
    def __init__(self, inst: PolygonInstance):
        self.inst = inst
        self.boundary = inst.boundary
        self.triangles = inst.triangles
        self.adjacency = inst.adjacency
        self.degenerate = inst.degenerate
        # the one query cache, keyed on exact floats: ("l", x, y) -> the
        # triangles holding a point, ("p", p, q) -> path, ("d", p, q) ->
        # distance, ("f", src, a, b) -> segment profile
        self._cache: dict = {}
        bd = self.boundary
        nb = len(bd)
        xy = bd.tolist()
        self._tri_xy = [tuple(xy[i] + xy[j] + xy[k]) for (i, j, k) in self.triangles]
        # boundary segments as (start, edge vector), for ray shooting
        self._seg = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1)
                     in zip(xy, xy[1:] + xy[:1])] if nb >= 3 else []
        span = float((bd.max(0) - bd.min(0)).max())  # E of LOC_TOL
        self._loc_tol = -LOC_TOL * float(abs(bd).max()) * span
        self.convex = inst.convex

    # -- point location ----------------------------------------------------
    def _locate(self, p) -> tuple:
        """Triangles holding the float pair p, memoized by the exact point.
        Raises ValueError for a point outside the polygon."""
        key = ("l",) + p
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._find_tris(p)
        return out

    def _find_tris(self, p) -> tuple:
        if self.degenerate:
            if not self._on_degenerate(p, 1e-9):
                raise ValueError(f"point {p} outside polygon")
            return ()
        px, py = p
        lo = self._loc_tol
        # p is in a triangle when no corner turn toward it is clockwise by
        # more than the tolerance
        out = tuple(t for t, (ax, ay, bx, by, cx, cy) in enumerate(self._tri_xy)
                    if (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= lo and
                    (cx - bx) * (py - by) - (cy - by) * (px - bx) >= lo and
                    (ax - cx) * (py - cy) - (ay - cy) * (px - cx) >= lo)
        if not out:
            raise ValueError(f"point {p} outside polygon")
        return out

    def _on_degenerate(self, p, tol):
        a = self.inst.R.pts[0]
        b = self.inst.R.pts[-1]
        d = b - a
        L = math.hypot(d[0], d[1])
        if L == 0:
            return math.hypot(p[0] - a[0], p[1] - a[1]) <= tol
        t = ((p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]) / (L * L)
        off = abs((p[0] - a[0]) * (-d[1]) + (p[1] - a[1]) * d[0]) / L
        return -tol <= t <= 1 + tol and off <= tol

    # -- sleeves -----------------------------------------------------------
    @cached_property
    def _dual_tree(self):
        """The dual tree rooted at triangle 0 as (parent, depth, up): up[t]
        is the (right, left) portal crossed stepping from t to its parent."""
        T = len(self.triangles)
        parent, depth, up = [-1] * T, [0] * T, [None] * T
        xy = self.boundary.tolist()
        order = [0] if T else []
        seen = set(order)
        for t in order:
            for (i, j), c in self.adjacency[t].items():
                if c in seen:
                    continue
                seen.add(c)
                order.append(c)
                parent[c], depth[c] = t, depth[t] + 1
                # the shared edge runs x -> y counter-clockwise in c, so y
                # is on the left when stepping out of c across it
                a, b, d = self.triangles[c]
                x, y = next(e for e in ((a, b), (b, d), (d, a)) if {i, j} == set(e))
                up[c] = (tuple(xy[x]), tuple(xy[y]))
        if len(order) != T:
            raise RuntimeError("dual graph disconnected")
        return parent, depth, up

    def _sleeve(self, tp, tq):
        """Portals from the triangles holding p to those holding q (disjoint
        sets): the dual-tree path between them, cut to run from its last
        triangle holding p to the first one after it holding q."""
        parent, depth, up = self._dual_tree
        a, b = tp[0], tq[0]
        lo, hi = [a], [b]
        while depth[a] > depth[b]:
            a = parent[a]
            lo.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            hi.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            lo.append(a)
            hi.append(b)
        path = lo + hi[-2::-1]
        s = max(k for k, t in enumerate(path) if t in tp)
        e = next(k for k in range(s + 1, len(path)) if path[k] in tq)
        portals = []
        for k in range(s, e):
            t, u = path[k], path[k + 1]
            if parent[t] == u:
                portals.append(up[t])
            else:
                right, left = up[u]
                portals.append((left, right))
        return portals

    # -- shortest paths ----------------------------------------------------
    def shortest_path(self, p, q) -> GeodesicPath:
        p = (float(p[0]), float(p[1]))
        q = (float(q[0]), float(q[1]))
        key = ("p",) + p + q
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._shortest_path_impl(p, q)
        return out

    def _shortest_path_impl(self, p, q) -> GeodesicPath:
        tp = self._locate(p)
        tq = self._locate(q)
        if p == q:
            return GeodesicPath([Point2(*p)], 0.0)
        if self.degenerate or self.convex or not set(tp).isdisjoint(tq):
            return GeodesicPath([Point2(*p), Point2(*q)],
                                math.hypot(q[0] - p[0], q[1] - p[1]))
        # the funnel returns the straight segment when p and q see each other
        pts = _dedup(_funnel(self._sleeve(tp, tq), p, q))
        length = sum(math.hypot(pts[k + 1][0] - pts[k][0], pts[k + 1][1] - pts[k][1])
                     for k in range(len(pts) - 1))
        return GeodesicPath([Point2(*w) for w in pts], length)

    def distance(self, p, q) -> float:
        p = (float(p[0]), float(p[1]))
        q = (float(q[0]), float(q[1]))
        key = ("d",) + p + q
        d = self._cache.get(key)
        if d is None:
            d = self._cache[key] = self.shortest_path(p, q).length
            self._cache[("d",) + q + p] = d
        return d

    # -- profiles ----------------------------------------------------------
    def _apex(self, src, pt):
        """(apex point, geodesic distance source->apex) for target pt."""
        path = self.shortest_path(src, pt)
        w = path.waypoints
        if len(w) <= 2:
            return (w[0][0], w[0][1]), 0.0
        ap = w[-2]
        return (ap[0], ap[1]), path.length - math.hypot(pt[0] - ap[0], pt[1] - ap[1])

    def segment_profile(self, src, a, b) -> SegmentProfile:
        """Exact profile from the two endpoint funnels: the apex sequence
        along a-b walks one funnel chain up to the split vertex and the
        other chain down, with piece boundaries where consecutive apexes
        line up with the segment."""
        src = (float(src[0]), float(src[1]))
        a = (float(a[0]), float(a[1]))
        b = (float(b[0]), float(b[1]))
        key = ("f",) + src + a + b
        prof = self._cache.get(key)
        if prof is None:
            prof = self._cache[key] = self._segment_profile_impl(src, a, b)
        return prof

    def _segment_profile_impl(self, src, a, b) -> SegmentProfile:
        if self.degenerate or self.convex:
            return SegmentProfile([(0.0, 1.0, src, 0.0)], a, b)
        if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-15:
            ap, D = self._apex(src, a)
            return SegmentProfile([(0.0, 1.0, ap, D)], a, b)

        pa = [tuple(w) for w in self.shortest_path(src, a).waypoints]
        pb = [tuple(w) for w in self.shortest_path(src, b).waypoints]
        prefa = [0.0]
        for k in range(1, len(pa)):
            prefa.append(prefa[-1] + math.hypot(pa[k][0] - pa[k - 1][0],
                                                pa[k][1] - pa[k - 1][1]))
        prefb = [0.0]
        for k in range(1, len(pb)):
            prefb.append(prefb[-1] + math.hypot(pb[k][0] - pb[k - 1][0],
                                                pb[k][1] - pb[k - 1][1]))
        c = 0
        while c < len(pa) and c < len(pb) and \
                abs(pa[c][0] - pb[c][0]) <= 1e-12 and abs(pa[c][1] - pb[c][1]) <= 1e-12:
            c += 1

        chain = []  # (apex, source distance), ordered from the a end
        if c == len(pa):
            # a lies on the path to b; its predecessor may still see past it
            if c >= 2:
                chain.append((pa[c - 2], prefa[c - 2]))
            chain.append((pa[c - 1], prefa[c - 1]))
        else:
            for k in range(len(pa) - 2, c - 2, -1):
                chain.append((pa[k], prefa[k]))
        if c == len(pb):
            if c >= 2:
                chain.append((pb[c - 2], prefb[c - 2]))
        else:
            for k in range(c, len(pb) - 1):
                chain.append((pb[k], prefb[k]))

        pieces = []
        ex, ey = b[0] - a[0], b[1] - a[1]
        t_prev = 0.0
        for k in range(len(chain) - 1):
            (u, Du), (w, _) = chain[k], chain[k + 1]
            ux, uy = u[0] - w[0], u[1] - w[1]
            den = ex * uy - ey * ux
            if abs(den) < 1e-15:
                t_cut = t_prev
            else:
                t_cut = ((w[0] - a[0]) * uy - (w[1] - a[1]) * ux) / den
                t_cut = min(1.0, max(t_prev, t_cut))
            if t_cut > t_prev:
                pieces.append((t_prev, t_cut, u, Du))
                t_prev = t_cut
        pieces.append((t_prev, 1.0, chain[-1][0], chain[-1][1]))
        merged = [list(pieces[0])]
        for pc in pieces[1:]:
            if math.hypot(pc[2][0] - merged[-1][2][0], pc[2][1] - merged[-1][2][1]) < 1e-12:
                merged[-1][1] = pc[1]
            else:
                merged.append(list(pc))
        return SegmentProfile([tuple(pc) for pc in merged], a, b)


def _dedup(pts):
    out = [pts[0]]
    for p in pts[1:]:
        if math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > 1e-12:
            out.append(p)
    return out


def get_engine(inst: PolygonInstance) -> GeodesicEngine:
    if inst._engine is None:
        inst._engine = GeodesicEngine(inst)
    return inst._engine


# -- module-level operations ----------------------------------------------

def shortest_path(inst: PolygonInstance, p, q) -> GeodesicPath:
    return get_engine(inst).shortest_path(p, q)


def geodesic_distance(inst: PolygonInstance, p, q) -> float:
    return get_engine(inst).distance(p, q)


def edge_profile(inst: PolygonInstance, source, curve: PolyCurve, i: int) -> EdgeDistanceProfile:
    """Unimodal distance profile from source to curve edge [i, i+1]."""
    if not (1 <= i <= curve.n - 1):
        raise ValueError("edge index out of range")
    eng = get_engine(inst)
    prof = eng.segment_profile(source, curve.pts[i - 1], curve.pts[i])
    t, v = prof.minimum()
    cid = "R" if curve is inst.R else ("B" if curve is inst.B else "?")
    return EdgeDistanceProfile(Point2(float(source[0]), float(source[1])),
                               (cid, i), i + t, v, prof)


def _ray_hit(inst: PolygonInstance, origin, direction):
    """(first boundary point hit by the ray from origin along direction,
    index k of the boundary segment from vertex k to vertex k + 1 it hit)."""
    eng = get_engine(inst)
    ox, oy = float(origin[0]), float(origin[1])
    eng._locate((ox, oy))
    dx, dy = float(direction[0]), float(direction[1])
    nrm = math.hypot(dx, dy)
    if nrm == 0:
        raise ValueError("zero direction")
    dx, dy = dx / nrm, dy / nrm
    best = None
    for k, (ax, ay, ex, ey) in enumerate(eng._seg):
        den = dx * ey - dy * ex
        if abs(den) < 1e-15:
            continue
        t = ((ax - ox) * ey - (ay - oy) * ex) / den
        u = ((ax - ox) * dy - (ay - oy) * dx) / den
        if t > 1e-9 and -1e-12 <= u <= 1 + 1e-12 and (best is None or t < best):
            best, seg = t, k
    if best is None:
        raise ValueError("ray does not hit the boundary")
    return Point2(ox + best * dx, oy + best * dy), seg


def ray_shoot(inst: PolygonInstance, origin, direction) -> Point2:
    """First boundary point hit by the ray from origin along direction."""
    return _ray_hit(inst, origin, direction)[0]


def threshold_crossings(profile: EdgeDistanceProfile, delta: float):
    """Edge parameters (curve parameterization) where distance = delta."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    i = profile.edge[1]
    return [i + t for t in profile.profile.threshold_crossings(delta)]
