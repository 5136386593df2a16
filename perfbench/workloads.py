"""Workloads: inputs made from a seed, the timed op, and its oracle check.

Every workload draws its instances from a fixed list of base shapes. The
seed places each shape by a random similarity transform (rotation, scale
in [0.5, 2], translation) and shuffles the order of the ops. So every seed
gives other coordinates, answers and digests, while runs with different
seeds measure the same amount of work: op times on fresh random shapes
vary by 2-10x, and a run holds only 5-20 of them.

How many shapes a run holds follows from --seconds through nominal costs
measured on a 2-CPU x86_64 host at the seed commit, so the work of a run
does not depend on how fast the host happens to be.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import geofrechet as gf
from geofrechet import generators
from geofrechet.oracle import frechet_bisect, freespace_decide

# deltas / d_F: even steps over [0.5, 2], none at exactly 1. Most sit
# above the Hausdorff bound, so the median decision walks the slabs
# instead of stopping at the early NO.
LADDER_FACTORS = tuple(0.5 + 0.15 * (k + 0.5) for k in range(10))
WINDOW_TOL = 1e-6


@dataclass
class Item:
    """One fresh instance of a run and the parameters of its op(s)."""
    name: str
    R: list
    B: list
    eps: float
    factors: tuple = ()   # ladder: decision deltas as multiples of d_F
    d_ref: float = 0.0    # ladder: reference Frechet distance

    @property
    def size(self) -> int:
        return len(self.R) + len(self.B)

    @property
    def deltas(self):
        return [f * self.d_ref for f in self.factors]


def sweep_instance(seed: int):
    """Instance `seed` of the acceptance sweep (criterion 5): pockets,
    simple polygons with 0-2 spikes and convex polygons, n+m <= 30."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    n = rng.randint(8, 15)
    if kind == 0:
        return generators.gen_pocket(seed, n)
    if kind == 1:
        return generators.gen_simple(seed, n, spikes=rng.randint(0, 2))
    return generators.gen_convex(min(n, 14), seed)


def ellipse_instance(seed: int, n: int):
    """n points on a random ellipse at jittered even angles, split at a
    random vertex into R (counter-clockwise) and B (clockwise)."""
    rng = random.Random(seed)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.0)
    pts = [(a * math.cos(t), b * math.sin(t)) for t in
           (2 * math.pi * (i + rng.uniform(0.1, 0.9)) / n for i in range(n))]
    k = rng.randint(n // 4, 3 * n // 4)
    return pts[:k + 1], [pts[0]] + pts[k:][::-1]


def _curves(inst):
    return inst.R.pts.tolist(), inst.B.pts.tolist()


def _doubling(first: int, cost, seconds: float) -> list[int]:
    """Sizes doubling from `first`, as many as fit `seconds` at two
    shapes per size by the nominal cost; at least two."""
    k = 2
    while 2 * sum(cost(first * 2 ** i) for i in range(k + 1)) <= seconds:
        k += 1
    return [first * 2 ** i for i in range(k)]


def _base_shapes(workload: str, seconds: float):
    """[(name, R, B, eps)] before placement."""
    if workload == "mixed":
        # the first sweep instances, with the sweep's eps cycle (~1 s each)
        out = []
        for s in range(max(3, round(seconds))):
            R, B = _curves(sweep_instance(s))
            out.append((f"sweep{s}", R, B, (0.5, 0.1, 0.05)[s % 3]))
        return out
    if workload == "ladder":
        # ten decisions on each instance take ~1 s
        out = []
        for s in range(100, 100 + max(1, round(seconds))):
            R, B = _curves(sweep_instance(s))
            out.append((f"sweep{s}", R, B, 0.1))
        return out
    if workload == "grow":
        # nominal: 0.4 s at n = 8, growing as n^2.4
        out = []
        for n in _doubling(6, lambda n: 0.4 * (n / 8) ** 2.4, seconds):
            for r in range(2):
                R, B = _curves(generators.gen_simple(r, n, spikes=1))
                out.append((f"simple{n}#{r}", R, B, 0.1))
        return out
    if workload == "convex":
        # nominal: 0.5 s at N = 100, growing as N^2
        out = []
        for n in _doubling(80, lambda n: 0.5 * (n / 100) ** 2, seconds):
            for r in range(2):
                R, B = ellipse_instance(1000 * n + r, n)
                out.append((f"ellipse{n}#{r}", R, B, 0.0))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _place(R, B, rng: random.Random):
    th = rng.uniform(0.0, 2 * math.pi)
    s = rng.uniform(0.5, 2.0)
    tx, ty = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    c, d = s * math.cos(th), s * math.sin(th)

    def tf(pts):
        return [[c * x - d * y + tx, d * x + c * y + ty] for x, y in pts]
    return tf(R), tf(B)


def make_items(workload: str, seed: int, seconds: float) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for name, R, B, eps in _base_shapes(workload, seconds):
        R, B = _place(R, B, rng)
        factors = ()
        if workload == "ladder":
            factors = list(LADDER_FACTORS)
            rng.shuffle(factors)
        items.append(Item(name, R, B, eps, tuple(factors)))
    rng.shuffle(items)
    return items


def digest(items) -> str:
    """sha256 over every generated input, to show two runs measured the
    same instances."""
    blob = json.dumps([(it.name, it.eps, it.factors, it.R, it.B)
                       for it in items])
    return hashlib.sha256(blob.encode()).hexdigest()


def warm_up(workload: str):
    """One untimed op on a small fixed instance, so first-call costs land
    in set-up and not in the first timed op."""
    if workload == "convex":
        R, B = ellipse_instance(0, 24)
        gf.convex_frechet(gf.build_instance(R, B))
        return
    R, B = _curves(generators.gen_simple(0, 8))
    if workload == "ladder":
        gf.approx_decide(gf.build_instance(R, B), 1.0, 0.1)
    else:
        gf.approx_optimize(gf.build_instance(R, B), 0.1)


def reference(item: Item):
    """Ladder reference: d_F by oracle bisection on a separate instance."""
    item.d_ref = frechet_bisect(gf.build_instance(item.R, item.B), "geodesic")


# -- timed ops: each builds a fresh instance from the vertex lists --------

def op_optimize(item: Item) -> float:
    return gf.approx_optimize(gf.build_instance(item.R, item.B), item.eps)


def op_convex(item: Item) -> float:
    return gf.convex_frechet(gf.build_instance(item.R, item.B)).cost


# -- oracle checks, on their own instance objects -------------------------

def check_optimize(item: Item, got: float) -> bool:
    """d_F(1 - tol) <= got <= d_F(1 + eps)(1 + tol)."""
    inst = gf.build_instance(item.R, item.B)
    return (freespace_decide(inst, "geodesic", got / (1 - WINDOW_TOL)) and
            not freespace_decide(inst, "geodesic",
                                 got / ((1 + item.eps) * (1 + WINDOW_TOL))))


def check_convex(item: Item, got: float) -> bool:
    """got = d_F up to a relative 1e-6, by the Euclidean oracle."""
    inst = gf.build_instance(item.R, item.B)
    return (freespace_decide(inst, "euclidean", got * (1 + WINDOW_TOL)) and
            not freespace_decide(inst, "euclidean", got * (1 - WINDOW_TOL)))


def check_decision(item: Item, delta: float, got: bool) -> bool:
    """delta >= d_F must give YES; (1 + eps) delta < d_F must give NO."""
    if delta >= item.d_ref:
        return bool(got)
    if (1 + item.eps) * delta < item.d_ref:
        return not got
    return True
