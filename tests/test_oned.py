"""Separated 1D curves: minima, matching, indexes, forests, propagation."""
import math
import random

import pytest

from geofrechet.generators import gen_random_1d
from geofrechet.oned import (Curve1D, GridPoint, bichromatic_intersections,
                             build_greedy_forest, closest_pair_1d,
                             frechet_matching_1d, greedy_step, prefix_minima,
                             propagate_reachability, suffix_minima)
from geofrechet.oracle import frechet_bisect

from helpers import eval_path_cost, reachable_points_bruteforce


def test_side_validation():
    with pytest.raises(ValueError):
        Curve1D([-1.0, 2.0])
    with pytest.raises(ValueError):
        Curve1D([1.0], side="left")


def test_prefix_minima_example():
    assert prefix_minima(Curve1D([-5, -3, -4, -2, -1])) == [1, 2, 4, 5]


def test_prefix_minima_monotone_curve():
    assert prefix_minima(Curve1D([-5, -4, -3, -2])) == [1, 2, 3, 4]
    assert prefix_minima(Curve1D([7])) == [1]


def test_suffix_minima_mirror():
    c = Curve1D([-5, -3, -4, -2, -1])
    assert suffix_minima(c) == [5]
    assert suffix_minima(Curve1D([-1, -2, -3])) == [1, 2, 3]


def test_closest_pair_examples():
    r = Curve1D([-3, -1])
    b = Curve1D([2, 5])
    assert closest_pair_1d(r, b) == GridPoint(2, 1)
    # exact tie: lower index wins under the perturbation rank
    r = Curve1D([-2, -2])
    b = Curve1D([3, 3])
    assert closest_pair_1d(r, b) == GridPoint(1, 1)


def test_closest_pair_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(30):
        r, b = gen_random_1d(rng.randint(1, 20), rng.randint(1, 20), rng.randint(0, 9999))
        got = closest_pair_1d(r, b)
        best = min(((r.a(i) + b.a(j), i, j)
                    for i in range(1, r.n + 1) for j in range(1, b.n + 1)))
        assert r.a(got.i) + b.a(got.j) == pytest.approx(best[0], abs=1e-12)


def test_matching_examples():
    assert frechet_matching_1d(Curve1D([-1]), Curve1D([2, 5, 2])).cost == pytest.approx(6.0)
    assert frechet_matching_1d(Curve1D([-2, -1]), Curve1D([1, 3])).cost == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(40))
def test_matching_vs_oracle(seed):
    rng = random.Random(seed)
    r, b = gen_random_1d(rng.randint(1, 12), rng.randint(1, 12), seed)
    match = frechet_matching_1d(r, b)
    want = frechet_bisect((r, b), "oneD", tol=1e-12)
    assert match.cost == pytest.approx(want, abs=1e-9)
    assert match.check_bimonotone()
    assert eval_path_cost(r, b, match) == pytest.approx(match.cost, abs=1e-9)


def test_matching_reversal_symmetry():
    for seed in range(20):
        rng = random.Random(seed + 77)
        r, b = gen_random_1d(rng.randint(1, 10), rng.randint(1, 10), seed)
        a = frechet_matching_1d(r, b).cost
        c = frechet_matching_1d(r.reversed(), b.reversed()).cost
        assert a == pytest.approx(c, abs=1e-12)


def test_prefix_minima_matching_property():
    """The emitted path visits only prefix-minima vertex pairs up to the
    closest pair (and suffix minima after it)."""
    for seed in range(15):
        rng = random.Random(seed)
        r, b = gen_random_1d(rng.randint(2, 10), rng.randint(2, 10), seed)
        match = frechet_matching_1d(r, b)
        star = closest_pair_1d(r, b)
        pmr, pmb = set(prefix_minima(r)), set(prefix_minima(b))
        for p in match.waypoints:
            if p.x <= star.i and p.y <= star.j and \
                    p.x == int(p.x) and p.y == int(p.y):
                assert int(p.x) in pmr and int(p.y) in pmb


def test_curve_index_vs_scans():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 30)
        c = Curve1D([-rng.uniform(0.1, 10) for _ in range(n)])
        idx = c.index
        A = [c.a(i) for i in range(1, n + 1)]
        for _ in range(40):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            U = rng.uniform(0, 11)
            assert idx.range_max(i, j) == pytest.approx(max(A[i - 1:j]), abs=0)
            assert idx.range_min(i, j) == pytest.approx(min(A[i - 1:j]), abs=0)
            # last x' >= i with max over [i, x'] <= U
            want = None
            cur = 0.0
            for k in range(i, n + 1):
                cur = max(cur, A[k - 1])
                if cur <= U:
                    want = k
                else:
                    break
            assert idx.last_below(i, U) == want
            # first value <= U inside [i, j]
            wantf = next((k for k in range(i, j + 1) if A[k - 1] <= U), None)
            assert idx.first_below(i, j, U) == wantf
            # next strictly-smaller key
            wantn = next((k for k in range(i + 1, n + 1)
                          if c.key(k) < c.key(i)), None)
            assert idx.next_smaller(i) == wantn


def test_greedy_step_terminal_and_errors():
    r = Curve1D([-2, -1])
    b = Curve1D([1, 3])
    with pytest.raises(ValueError):
        greedy_step(r, b, GridPoint(1, 2), 3.0)  # outside free space
    with pytest.raises(ValueError):
        greedy_step(r, b, GridPoint(0, 1), 99.0)
    # huge delta jumps to the last prefix minimum on r
    q = greedy_step(r, b, GridPoint(1, 1), 100.0, "horizontal")
    assert q == GridPoint(2, 1)


def test_forest_paths_replay_greedy():
    for seed in range(20):
        rng = random.Random(seed)
        r, b = gen_random_1d(rng.randint(2, 12), rng.randint(2, 12), seed)
        delta = r.a(1) + b.a(1) + rng.uniform(0, 4)
        free = [GridPoint(i, j) for i in range(1, r.n + 1)
                for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
        if not free:
            continue
        seeds = [free[rng.randrange(len(free))] for _ in range(min(4, len(free)))]
        f = build_greedy_forest(r, b, delta, seeds, "horizontal")
        for s in seeds:
            path = f.path_from(s)
            # replay the independent step simulation along vertex points
            p = s
            k = 0
            while k < len(path):
                x, y = path[k]
                if x == int(x) and y == int(y) and (x, y) == (float(p.i), float(p.j)):
                    q = greedy_step(r, b, p, delta, "horizontal")
                    if q is None:
                        break
                    p = q
                k += 1
            # every integer vertex of the replay appears on the stored path
            assert (float(p.i), float(p.j)) in [tuple(v) for v in path]


def test_forest_rejects_seeds_out_of_range():
    r = Curve1D([-3, -2, -1])
    b = Curve1D([1, 2, 3])
    for s in (GridPoint(0, 1), GridPoint(4, 1), GridPoint(1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            build_greedy_forest(r, b, 99.0, [s])


def test_forest_merge_shares_structure():
    r = Curve1D([-3, -2, -1])
    b = Curve1D([1, 2, 3])
    f = build_greedy_forest(r, b, 10.0, [GridPoint(1, 1), GridPoint(2, 1)],
                            "horizontal")
    assert len(f.roots) == 1


def _run_end(c, k, U):
    """Far end of the free run along c from vertex k under the budget U,
    by a scan: the last vertex within U, then the linear crossing of U."""
    while k < c.n and c.a(k + 1) <= U:
        k += 1
    if k == c.n:
        return float(k)
    return k + (U - c.a(k)) / (c.a(k + 1) - c.a(k))


def test_forest_extends_every_root():
    for seed in range(60):
        rng = random.Random(seed)
        r, b = gen_random_1d(rng.randint(1, 12), rng.randint(1, 12), 700 + seed)
        delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) + rng.uniform(0, 3)
        free = [GridPoint(i, j) for i in range(1, r.n + 1)
                for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
        if not free:
            continue
        seeds = [free[rng.randrange(len(free))] for _ in range(5)]
        for orientation in ("horizontal", "vertical"):
            f = build_greedy_forest(r, b, delta, seeds, orientation)
            assert sorted(e[0] for e in f.extensions) == sorted(f.roots)
            for (x, y), end in f.extensions:
                i, j = int(x), int(y)
                if orientation == "horizontal":
                    want = (_run_end(r, i, delta - b.a(j)), y)
                else:
                    want = (x, _run_end(b, j, delta - r.a(i)))
                assert end == pytest.approx(want, abs=1e-12)


def test_propagate_repeated_and_shared_points():
    shared = 0
    for seed in range(40):
        rng = random.Random(seed)
        r, b = gen_random_1d(rng.randint(1, 12), rng.randint(1, 12), 900 + seed)
        delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) + rng.uniform(0, 3)
        free = [GridPoint(i, j) for i in range(1, r.n + 1)
                for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
        if not free:
            continue
        S = [free[rng.randrange(len(free))] for _ in range(6)]
        E = [free[rng.randrange(len(free))] for _ in range(6)]
        # the next vertex of an E point's reverse greedy path: an E point on
        # another E point's chain
        n1, m1 = r.n + 1, b.n + 1
        for e in E[:3]:
            q = greedy_step(r.reversed(), b.reversed(), GridPoint(n1 - e.i, m1 - e.j),
                            delta, rng.choice(("horizontal", "vertical")))
            if q is not None:
                E.append(GridPoint(n1 - q.i, m1 - q.j))
                shared += 1
        S += S[:2] + E[:2]
        E += E[:2] + S[:1]
        rng.shuffle(S)
        rng.shuffle(E)
        got = sorted(map(tuple, propagate_reachability(r, b, delta, S, E)))
        want = sorted(map(tuple, reachable_points_bruteforce(r, b, delta, S, E)))
        assert got == want
    assert shared > 20


def test_bichromatic_examples():
    red = [((0.0, 0.0), (2.0, 0.0))]
    blue = [((1.0, -1.0), (1.0, 1.0))]
    mr, mb = bichromatic_intersections(red, blue)
    assert mr == [0] and mb == [0]
    mr, mb = bichromatic_intersections(red, [((5.0, 5.0), (5.0, 6.0))])
    assert mr == [] and mb == []
    # a point on a segment end, horizontal and vertical
    for seg in (((0.0, 0.0), (2.0, 0.0)), ((2.0, 3.0), (2.0, 0.0))):
        assert bichromatic_intersections([((2.0, 0.0), (2.0, 0.0))], [seg]) == ([0], [0])
    # a point on a point, and a point next to it
    pts = [((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 2.0))]
    assert bichromatic_intersections(pts[:1], pts) == ([0], [0])
    # collinear segments touching end to end, and with a gap
    for a, b in ((((0.0, 0.0), (1.0, 0.0)), ((3.0, 0.0), (1.0, 0.0))),
                 (((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 2.0)))):
        assert bichromatic_intersections([a], [b]) == ([0], [0])
    assert bichromatic_intersections([((0.0, 0.0), (1.0, 0.0))],
                                     [((1.5, 0.0), (3.0, 0.0))]) == ([], [])
    # identical duplicates, within one colour and across the two
    s = ((0.0, 0.0), (0.0, 2.0))
    assert bichromatic_intersections([s, s], [s]) == ([0, 1], [0])
    assert bichromatic_intersections([s, s], [((1.0, 0.0), (1.0, 2.0))] * 2) == ([], [])


def test_bichromatic_vs_quadratic():
    rng = random.Random(4)

    def seg():
        x, y = rng.randint(0, 12), rng.randint(0, 12)
        L = rng.randint(0, 4)
        return ((float(x), float(y)), (float(x + L), float(y))) if rng.random() < 0.5 \
            else ((float(x), float(y)), (float(x), float(y + L)))

    def hits(s, t):
        (ax, ay), (bx, by) = s
        (cx, cy), (dx, dy) = t
        return (max(min(ax, bx), min(cx, dx)) <= min(max(ax, bx), max(cx, dx)) and
                max(min(ay, by), min(cy, dy)) <= min(max(ay, by), max(cy, dy)))

    for _ in range(30):
        red = [seg() for _ in range(rng.randint(1, 15))]
        blue = [seg() for _ in range(rng.randint(1, 15))]
        mr, mb = bichromatic_intersections(red, blue)
        wr = sorted(i for i, s in enumerate(red) if any(hits(s, t) for t in blue))
        wb = sorted(j for j, t in enumerate(blue) if any(hits(s, t) for s in red))
        assert mr == wr and mb == wb


def test_propagate_trivial_cases():
    r = Curve1D([-1, -2])
    b = Curve1D([3, 1])
    p = GridPoint(1, 2)
    assert propagate_reachability(r, b, 5.0, [p], [p]) == [p]
    with pytest.raises(ValueError):
        propagate_reachability(r, b, 1.0, [GridPoint(2, 1)], [p])


def test_propagate_huge_delta_dominance():
    r = Curve1D([-1, -2, -1])
    b = Curve1D([2, 1, 2])
    S = [GridPoint(1, 1)]
    E = [GridPoint(i, j) for i in range(1, 4) for j in range(1, 4)]
    got = set(map(tuple, propagate_reachability(r, b, 100.0, S, E)))
    assert got == {(i, j) for i in range(1, 4) for j in range(1, 4)}


@pytest.mark.parametrize("seed", range(40))
def test_propagate_vs_bruteforce(seed):
    rng = random.Random(seed)
    r, b = gen_random_1d(rng.randint(1, 15), rng.randint(1, 15), seed)
    delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) + rng.uniform(0, 2)
    free = [GridPoint(i, j) for i in range(1, r.n + 1)
            for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
    if not free:
        return
    S = sorted({free[rng.randrange(len(free))] for _ in range(10)})
    E = sorted({free[rng.randrange(len(free))] for _ in range(10)})
    got = sorted(map(tuple, propagate_reachability(r, b, delta, S, E)))
    want = sorted(map(tuple, reachable_points_bruteforce(r, b, delta, S, E)))
    assert got == want
