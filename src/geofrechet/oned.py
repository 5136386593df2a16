"""Separated one-dimensional curves: prefix minima, linear-time matching,
greedy forests, support indices, one-sided segment contact marking,
reachability propagation.

A Curve1D lives strictly on one side of 0; the distance between a left
point r and a right point b is |r| + |b|. Exact value ties are broken by a
symbolic perturbation rank: key = (|value|, side, original index),
lexicographically smaller meaning closer to 0.

Reachability propagation has two exact paths. Small grids, such as the
snapped curves of far slabs, are swept vertex by vertex: |r| and |b| are
linear on each edge, so a monotone free path snapped to the end of each
edge with the smaller value is a free staircase of vertices with unit and
diagonal steps (see _propagate_grid). Grids above `_GRID_MAX_CELLS`
vertex pairs take the near-linear greedy forests of Bringmann and
Kuennemann, generalized to many seeds (see _propagate_forests).
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from sortedcontainers import SortedList

from .geometry import MatchingPath, ParamPoint


class GridPoint(NamedTuple):
    i: int
    j: int


class Curve1D:
    """1D curve with all vertices strictly on one side of 0.

    orig_idx carries the perturbation indices; reversal keeps the original
    indices so that forward and reversed structures break ties identically.
    """

    def __init__(self, values, side: Optional[str] = None, orig_idx=None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("need a non-empty 1D value array")
        if np.any(v == 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite and nonzero")
        inferred = "left" if v[0] < 0 else "right"
        side = side or inferred
        if side == "left" and np.any(v >= 0):
            raise ValueError("left curve must be strictly negative")
        if side == "right" and np.any(v <= 0):
            raise ValueError("right curve must be strictly positive")
        self.values = v
        self.side = side
        self.A = np.abs(v)
        if orig_idx is None:
            orig_idx = np.arange(1, v.size + 1, dtype=np.int64)
        self.orig_idx = np.asarray(orig_idx, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def key(self, i: int):
        """Perturbation rank of vertex i (1-based); smaller = closer to 0."""
        s = 0 if self.side == "left" else 1
        return (float(self.A[i - 1]), s, int(self.orig_idx[i - 1]))

    def a(self, i: int) -> float:
        return float(self.A[i - 1])

    def reversed(self) -> "Curve1D":
        return Curve1D(self.values[::-1], self.side, self.orig_idx[::-1])

    @functools.cached_property
    def index(self) -> "CurveIndex":
        """Range index of this curve, built on first use."""
        return CurveIndex(self)

    def _ranks(self) -> np.ndarray:
        """Dense ranks of the perturbation keys within this curve."""
        order = np.lexsort((self.orig_idx, self.A))
        ranks = np.empty(self.n, dtype=np.int64)
        ranks[order] = np.arange(self.n)
        return ranks


def prefix_minima(c: Curve1D) -> list[int]:
    """Indices i (1-based) with key(i) minimal among the prefix [1, i]."""
    out = []
    best = None
    for i in range(1, c.n + 1):
        k = c.key(i)
        if best is None or k < best:
            out.append(i)
            best = k
    return out


def suffix_minima(c: Curve1D) -> list[int]:
    """Indices i with key(i) minimal among the suffix [i, n], ascending."""
    out = []
    best = None
    for i in range(c.n, 0, -1):
        k = c.key(i)
        if best is None or k < best:
            out.append(i)
            best = k
    out.reverse()
    return out


def closest_pair_1d(r: Curve1D, b: Curve1D) -> GridPoint:
    """Bichromatic closest vertex pair under the perturbation rank.

    For separated curves the pair distance is |r(i)| + |b(j)|, so the two
    argmins are independent.
    """
    ri = min(range(1, r.n + 1), key=r.key)
    bj = min(range(1, b.n + 1), key=b.key)
    return GridPoint(ri, bj)


def _segment_maxima(A: np.ndarray, idx: list[int]) -> list[float]:
    """max of A over [idx[k], idx[k+1]] for consecutive list entries."""
    out = []
    for k in range(len(idx) - 1):
        lo, hi = idx[k], idx[k + 1]
        out.append(float(np.max(A[lo - 1:hi])))
    return out


def _one_sided_greedy(r: Curve1D, b: Curve1D):
    """Greedy cheaper-advance walk over prefix minima up to the closest pair.

    Returns (waypoints, max step cost). Waypoints start at (1,1) and end at
    (i*, j*) in the forward orientation of the given curves.
    """
    pm_r = prefix_minima(r)
    pm_b = prefix_minima(b)
    seg_r = _segment_maxima(r.A, pm_r)
    seg_b = _segment_maxima(b.A, pm_b)
    cost = r.a(1) + b.a(1)
    way = [ParamPoint(1.0, 1.0)]
    a = bnd = 0
    while a < len(pm_r) - 1 or bnd < len(pm_b) - 1:
        can_r = a < len(pm_r) - 1
        can_b = bnd < len(pm_b) - 1
        h = seg_r[a] + b.a(pm_b[bnd]) if can_r else math.inf
        v = r.a(pm_r[a]) + seg_b[bnd] if can_b else math.inf
        if h <= v:
            a += 1
            cost = max(cost, h)
        else:
            bnd += 1
            cost = max(cost, v)
        way.append(ParamPoint(float(pm_r[a]), float(pm_b[bnd])))
    cost = max(cost, r.a(pm_r[-1]) + b.a(pm_b[-1]))
    return way, cost


def frechet_matching_1d(r: Curve1D, b: Curve1D) -> MatchingPath:
    """Exact Fréchet matching between separated 1D curves, O(n + m).

    Runs the prefix-minima greedy forward from (1,1) and backward from
    (n,m); the two meet at the bichromatic closest pair.
    """
    fwd, c1 = _one_sided_greedy(r, b)
    bwd, c2 = _one_sided_greedy(r.reversed(), b.reversed())
    n, m = r.n, b.n
    back = [ParamPoint(n + 1 - p.x, m + 1 - p.y) for p in reversed(bwd)]
    star = closest_pair_1d(r, b)
    assert fwd[-1] == ParamPoint(float(star.i), float(star.j))
    assert back[0] == fwd[-1]
    way = fwd + back[1:]
    return MatchingPath(way, max(c1, c2))


# ---------------------------------------------------------------------------
# support index

class CurveIndex:
    """Range max / rank-argmin sparse tables plus ANSV links.

    All queries are 1-based with inclusive ranges and answer exactly what a
    linear scan over the same curve would. The perturbation key orders by
    |value| first, so the range min is the value at the range argmin.
    """

    def __init__(self, c: Curve1D):
        self.curve = c
        A = c.A
        n = A.size
        self.n = n
        ranks = c._ranks()
        self._maxt = [A.copy()]
        argmin0 = np.arange(n, dtype=np.int64)
        self._rankt = [ranks.copy()]
        self._argt = [argmin0]
        k = 1
        while (1 << k) <= n:
            h = 1 << (k - 1)
            pm = self._maxt[-1]
            self._maxt.append(np.maximum(pm[:-h], pm[h:]))
            pr, pa = self._rankt[-1], self._argt[-1]
            left_wins = pr[:-h] <= pr[h:]
            self._rankt.append(np.where(left_wins, pr[:-h], pr[h:]))
            self._argt.append(np.where(left_wins, pa[:-h], pa[h:]))
            k += 1
        # ANSV: next index with strictly smaller rank
        nxt = np.full(n, -1, dtype=np.int64)
        stack: list[int] = []
        for i in range(n):
            while stack and ranks[stack[-1]] > ranks[i]:
                nxt[stack.pop()] = i
            stack.append(i)
        self._next_smaller = nxt

    def _check(self, i: int, j: int):
        if not (1 <= i <= j <= self.n):
            raise ValueError(f"bad range [{i},{j}] for n={self.n}")

    def range_max(self, i: int, j: int) -> float:
        self._check(i, j)
        k = (j - i + 1).bit_length() - 1
        t = self._maxt[k]
        return float(max(t[i - 1], t[j - (1 << k)]))

    def range_min(self, i: int, j: int) -> float:
        return self.curve.a(self.range_argmin(i, j))

    def range_argmin(self, i: int, j: int) -> int:
        """Index in [i,j] with the smallest perturbation key."""
        self._check(i, j)
        k = (j - i + 1).bit_length() - 1
        r, a = self._rankt[k], self._argt[k]
        p, q = i - 1, j - (1 << k)
        return int(a[p] + 1) if r[p] <= r[q] else int(a[q] + 1)

    def last_below(self, x: int, U: float, v: float = 0.0) -> Optional[int]:
        """Largest x' >= x with max over [x, x'] + v <= U; None if
        A(x) + v > U. The sum is compared, not A with U - v, so that the
        test is the free-space test A + B <= delta itself."""
        if self.curve.a(x) + v > U:
            return None
        # binary lifting: level k extends the run by 2**k when the block
        # past its end fits, one lookup per level
        last = x  # 1-based end of the run so far, = 0-based start past it
        for k in range(len(self._maxt) - 1, -1, -1):
            t = self._maxt[k]
            if last < t.size and t[last] + v <= U:
                last += 1 << k
        return last

    def first_below(self, i: int, j: int, U: float,
                    v: float = 0.0) -> Optional[int]:
        """First index in [i,j] with A + v <= U, or None."""
        self._check(i, j)
        if self.range_min(i, j) + v > U:
            return None
        lo, hi = i, j
        while lo < hi:
            mid = (lo + hi) // 2
            if self.range_min(i, mid) + v <= U:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def next_smaller(self, i: int) -> Optional[int]:
        """First i2 > i whose key is smaller than key(i), or None."""
        v = self._next_smaller[i - 1]
        return None if v < 0 else int(v + 1)


# ---------------------------------------------------------------------------
# greedy steps and forests

def _hstep(r: Curve1D, b: Curve1D, i: int, j: int,
           delta: float) -> Optional[tuple[int, int]]:
    """One horizontal-preferring greedy step from free vertex pair (i,j)."""
    ri, bi = r.index, b.index
    i2 = ri.next_smaller(i)
    bj = b.a(j)
    if i2 is not None and ri.range_max(i, i2) + bj <= delta:
        i1 = ri.last_below(i, delta, bj)
        return (ri.range_argmin(i, i1), j)
    j_hat = bi.last_below(j, delta, r.a(i))
    if j_hat is None:
        raise ValueError(f"point ({i},{j}) outside free space")
    if i2 is not None:
        jp = bi.first_below(j, b.n, delta, ri.range_max(i, i2))
        if jp is not None and jp <= j_hat:
            return (i, jp) if jp != j else None
    j_star = bi.range_argmin(j, j_hat)
    if j_star > j:
        return (i, j_star)
    return None


def _step(r: Curve1D, b: Curve1D, i: int, j: int, delta: float,
          orientation: str):
    """greedy_step on a free vertex pair (i, j) without the input checks."""
    if orientation == "horizontal":
        return _hstep(r, b, i, j, delta)
    if orientation == "vertical":
        q = _hstep(b, r, j, i, delta)
        return None if q is None else (q[1], q[0])
    raise ValueError("orientation must be horizontal or vertical")


def greedy_step(r: Curve1D, b: Curve1D, p: GridPoint, delta: float,
                orientation: str = "horizontal") -> Optional[GridPoint]:
    """Next vertex of the greedy matching from p, or None at a terminal.

    orientation 'horizontal' prefers the longest admissible horizontal jump
    to a prefix minimum; 'vertical' is the transposed rule.
    """
    i, j = p
    if not (1 <= i <= r.n and 1 <= j <= b.n):
        raise ValueError("grid point out of range")
    if r.a(i) + b.a(j) > delta:
        raise ValueError(f"point ({i},{j}) outside free space")
    q = _step(r, b, i, j, delta, orientation)
    return None if q is None else GridPoint(*q)


@dataclass
class GreedyForest:
    """Union of greedy matchings from a seed set, merged on first contact.

    Coordinates are (x, y) grid parameters. parent maps a vertex to the
    next vertex toward its root (roots map to None); a greedy step only
    increases a coordinate, so each vertex is smaller than its parent.
    Every root has one extension, the free run from it in the forest's
    orientation, whose far end may be fractional.
    """
    orientation: str
    parent: dict
    roots: list[tuple[float, float]]
    extensions: list[tuple[tuple[float, float], tuple[float, float]]]

    def edges(self):
        """(child, parent) for every non-root vertex."""
        return [(v, p) for v, p in self.parent.items() if p is not None]

    def path_from(self, seed: GridPoint) -> list[tuple[float, float]]:
        p = (float(seed.i), float(seed.j))
        out = [p]
        while self.parent.get(p) is not None:
            p = self.parent[p]
            out.append(p)
        return out


def _between(a, p, b) -> bool:
    """p strictly inside axis-aligned segment a-b (assumed collinear)."""
    if a[0] == b[0] == p[0]:
        lo, hi = min(a[1], b[1]), max(a[1], b[1])
        return lo < p[1] < hi
    if a[1] == b[1] == p[1]:
        lo, hi = min(a[0], b[0]), max(a[0], b[0])
        return lo < p[0] < hi
    return False


def _forest(r: Curve1D, b: Curve1D, delta: float, seeds,
            orientation: str) -> GreedyForest:
    """build_greedy_forest on seeds known to be free vertex pairs."""
    parent: dict = {}
    children: dict = {}
    roots: list = []
    for s in sorted(set(seeds)):
        p = (float(s.i), float(s.j))
        if p in parent:
            continue
        while True:
            q = _step(r, b, int(p[0]), int(p[1]), delta, orientation)
            if q is None:
                parent[p] = None
                roots.append(p)
                break
            q = (float(q[0]), float(q[1]))
            if q in parent:
                # merge: existing vertices on segment (p, q] lie on one chain
                # toward q; walk down to the one nearest p
                cur = q
                while nxt := next((u for u in children.get(cur, ())
                                   if _between(p, u, cur)), None):
                    cur = nxt
                sub = next((u for u in children.get(cur, ())
                            if _between(u, p, cur)), None)
                if sub is not None:
                    # p interior to existing edge sub-cur: subdivide at p
                    children[cur].remove(sub)
                    children.setdefault(p, []).append(sub)
                    parent[sub] = p
                children.setdefault(cur, []).append(p)
                parent[p] = cur
                break
            children.setdefault(q, []).append(p)
            parent[p] = q
            p = q
    ext = []
    hor = orientation == "horizontal"
    for v in roots:
        # the free run from the root along the curve the orientation moves on
        i, j = int(v[0]), int(v[1])
        c, k, other = (r, i, b.a(j)) if hor else (b, j, r.a(i))
        k1 = c.index.last_below(k, delta, other)
        U = delta - other
        end = float(k1)
        if k1 < c.n:
            a0, a1 = c.a(k1), c.a(k1 + 1)
            if a1 > U >= a0 and a1 > a0:
                end = k1 + (U - a0) / (a1 - a0)
        ext.append((v, (end, v[1]) if hor else (v[0], end)))
    return GreedyForest(orientation, parent, roots, ext)


def build_greedy_forest(r: Curve1D, b: Curve1D, delta: float,
                        seeds: list[GridPoint],
                        orientation: str = "horizontal") -> GreedyForest:
    """Build the geometric forest of greedy matchings from the seeds.

    Each seed's path follows greedy_step until it terminates or meets the
    existing structure; meeting points are always greedy targets, so a path
    either lands on an existing vertex or subdivides the edge it lies on.
    """
    for s in seeds:
        if not (1 <= s.i <= r.n and 1 <= s.j <= b.n):
            raise ValueError(f"seed {tuple(s)} out of range")
        if r.a(s.i) + b.a(s.j) > delta:
            raise ValueError(f"seed {tuple(s)} outside free space")
    return _forest(r, b, delta, seeds, orientation)


# ---------------------------------------------------------------------------
# one-sided contact marking of axis-aligned segments

def _split_hv(segs):
    """Horizontal items (y, x1, x2, index) and vertical items
    (x, y1, y2, index) of axis-aligned segments; a point is both."""
    hs, vs = [], []
    for idx, ((x1, y1), (x2, y2)) in enumerate(segs):
        if y1 == y2:
            hs.append((y1, min(x1, x2), max(x1, x2), idx))
        if x1 == x2:
            vs.append((x1, min(y1, y2), max(y1, y2), idx))
        elif y1 != y2:
            raise ValueError("segments must be axis-aligned")
    return hs, vs


def _crossing_hits(queries, items):
    """Indices of queries (c, lo, hi, index) met by a perpendicular item
    (c', lo', hi', _) with lo <= c' <= hi and lo' <= c <= hi'. The sweep
    runs along c; at equal keys inserts come before queries and queries
    before removals, so contact counts."""
    events = [(c, 1, lo, hi, idx) for c, lo, hi, idx in queries]
    for c, lo, hi, _ in items:
        events.append((lo, 0, c))
        events.append((hi, 2, c))
    events.sort(key=lambda e: (e[0], e[1]))
    active = SortedList()
    hit = set()
    for e in events:
        if e[1] == 0:
            active.add(e[2])
        elif e[1] == 2:
            active.remove(e[2])
        else:
            k = active.bisect_left(e[2])
            if k < len(active) and active[k] <= e[3]:
                hit.add(e[4])
    return hit


def _overlap_hits(segs, by):
    """Indices of items of segs overlapping an item of by on the same line:
    a prefix maximum of the interval ends of by, per line."""
    lines: dict = {}
    for c, lo, hi, _ in by:
        lines.setdefault(c, []).append((lo, hi))
    for c, ivs in lines.items():
        ivs.sort()
        lines[c] = ([lo for lo, _ in ivs],
                    list(itertools.accumulate((hi for _, hi in ivs), max)))
    hit = set()
    for c, lo, hi, idx in segs:
        if c in lines:
            starts, reach = lines[c]
            k = bisect.bisect_right(starts, hi) - 1
            if k >= 0 and reach[k] >= lo:
                hit.add(idx)
    return hit


def _touched(segs, by) -> set:
    """Indices of the segments in segs that touch a segment of by (closed:
    shared endpoints and collinear overlap count)."""
    sh, sv = _split_hv(segs)
    bh, bv = _split_hv(by)
    return (_crossing_hits(sh, bv) | _crossing_hits(sv, bh) |
            _overlap_hits(sh, bh) | _overlap_hits(sv, bv))


def bichromatic_intersections(red, blue):
    """Report the red and blue axis-aligned segments that intersect a
    segment of the other color (closed semantics). Returns two index lists."""
    return sorted(_touched(red, blue)), sorted(_touched(blue, red))


# ---------------------------------------------------------------------------
# reachability propagation

def propagate_reachability(r: Curve1D, b: Curve1D, delta: float,
                           S: list[GridPoint], E: list[GridPoint]) -> list[GridPoint]:
    """All points of E that are delta-reachable from some point of S.

    Up to `_GRID_MAX_CELLS` vertex pairs this is the O(n*m) vertex-grid
    sweep of `_propagate_grid`, exact because a monotone free path snaps
    to a staircase of free vertices; above it, the near-linear greedy
    forests of `_propagate_forests`. Both return the same points, so the
    crossover only moves time.
    """
    S = [GridPoint(*p) for p in S]
    E = [GridPoint(*p) for p in E]
    for p in S + E:
        if not (1 <= p.i <= r.n and 1 <= p.j <= b.n):
            raise ValueError(f"grid point {tuple(p)} out of range")
        if r.a(p.i) + b.a(p.j) > delta:
            raise ValueError(f"point {tuple(p)} outside free space")
    if not S or not E:
        return []
    if r.n * b.n <= _GRID_MAX_CELLS:
        return _propagate_grid(r, b, delta, S, E)
    return _propagate_forests(r, b, delta, S, E)


# Largest n*m that propagate_reachability sweeps vertex by vertex. On
# gen_comb_1d curves (n = m; a 2-CPU x86_64 host, Python 3.11) the sweep
# took 0.55 ms against 1.33 ms for the forests at 2^18 cells and 1.89 ms
# against 2.23 ms at 2^20, and lost at 2^21, 3.5 ms against 2.9 ms
# (scripts/benchmark.py tabulates this in docs/benchmark.md). The sweep's
# time follows n*m whatever the instance and the forests' time does not,
# so the bound sits a factor 4-8 below the crossing. Criterion 8's combs
# (10^6 cells and up) keep the forests.
_GRID_MAX_CELLS = 1 << 18


def _propagate_grid(r: Curve1D, b: Curve1D, delta: float,
                    S: list[GridPoint], E: list[GridPoint]) -> list[GridPoint]:
    """propagate_reachability by a row sweep over the free vertex pairs.

    A vertex pair (i, j) is free when A(i) + B(j) <= delta and reached
    when it is free and is a source or has a reached free neighbour
    (i-1, j), (i, j-1) or (i-1, j-1). This is exact: |r| and |b| are
    linear on each edge, so snapping every point of a monotone free path
    to the end of its edge with the smaller value keeps it free and
    yields a monotone staircase of free vertices with unit and diagonal
    steps; conversely the sum is linear along such a step, so a step
    between free vertices is free. Each row is a bit mask over j; a
    seed propagates to the end of its run of free bits by one carry.
    """
    masks = np.packbits((r.A[:, None] + b.A[None, :]) <= delta, axis=1,
                        bitorder="little")
    src = [0] * r.n
    for p in S:
        src[p.i - 1] |= 1 << (p.j - 1)
    rows = []
    prev = 0
    for i in range(r.n):
        free = int.from_bytes(masks[i].tobytes(), "little")
        seed = free & (src[i] | prev | prev << 1)
        # adding the seeds carries through the rest of each seeded run
        prev = (free & ~(free + seed)) | seed
        rows.append(prev)
    return sorted({e for e in E if rows[e.i - 1] >> (e.j - 1) & 1})


def _propagate_forests(r: Curve1D, b: Curve1D, delta: float,
                       S: list[GridPoint], E: list[GridPoint]) -> list[GridPoint]:
    """propagate_reachability by greedy forests, for checked non-empty S
    and E.

    Builds the extended horizontal- and vertical-greedy forests of S (red)
    and of E on the reversed curves (blue). Each blue segment is owned by
    one vertex: an edge by its child end, an extension by its root. The
    owners whose segment touches a red segment are marked (one-sided: red
    is never marked), and an E point is reachable when a vertex on its
    reverse path, in either blue forest, is marked.
    """
    red = []
    for o in ("horizontal", "vertical"):
        f = _forest(r, b, delta, S, o)
        red += f.edges() + f.extensions
    n1, m1 = r.n + 1, b.n + 1
    rr, br = r.reversed(), b.reversed()
    E_rev = [GridPoint(n1 - p.i, m1 - p.j) for p in E]
    blue, owners = [], []
    forests = [_forest(rr, br, delta, E_rev, o) for o in ("horizontal", "vertical")]
    for k, f in enumerate(forests):
        for seg in f.edges() + f.extensions:
            (x1, y1), (x2, y2) = seg
            blue.append(((n1 - x1, m1 - y1), (n1 - x2, m1 - y2)))
            owners.append((k, seg[0]))
    marked = {owners[t] for t in _touched(blue, red)}
    out = set()
    for e, p in zip(E, E_rev):
        for k, f in enumerate(forests):
            v = (float(p.i), float(p.j))
            while v is not None and (k, v) not in marked:
                v = f.parent[v]
            if v is not None:
                out.add(e)
                break
    return sorted(out)
