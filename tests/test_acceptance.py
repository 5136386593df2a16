"""Acceptance gate: the nine primary criteria, one verdict line each."""
import functools
import math
import os
import random
import time

import pytest

from geofrechet.convex import convex_frechet
from geofrechet.driver import approx_decide, approx_optimize, geodesic_hausdorff
from geofrechet.farslab import build_separator_anchors
from geofrechet.generators import (gen_comb_1d, gen_convex, gen_random_1d)
from geofrechet.nnprofile import EmptyFanLeaf, build_slabs, nn_profile
from geofrechet.oned import (GridPoint, build_greedy_forest,
                             frechet_matching_1d, propagate_reachability)
from geofrechet.oracle import frechet_bisect, freespace_decide

from helpers import (check_lower_envelope, check_matching_to_fan,
                     check_monotone_leaves, check_shortcutting, check_snapping,
                     eval_path_cost, random_instance,
                     reachable_points_bruteforce, sub_instance)


def emit(capsys, ok: bool, num: int, msg: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_criterion_1_oned_exactness(capsys):
    rng = random.Random(11)
    t0 = time.perf_counter()
    bad = 0
    for k in range(1000):
        r, b = gen_random_1d(rng.randint(1, 12), rng.randint(1, 12), k)
        m = frechet_matching_1d(r, b)
        want = frechet_bisect((r, b), "oneD", tol=1e-11)
        if abs(m.cost - want) > 1e-9 or \
                abs(eval_path_cost(r, b, m) - m.cost) > 1e-9:
            bad += 1
    dt = time.perf_counter() - t0
    emit(capsys, bad == 0 and dt < 5.0, 1,
         f"1000 1D instances vs bisection, {bad} mismatches, {dt:.2f}s")


def _propagation_suite():
    rng = random.Random(22)
    out = []
    for k in range(500):
        r, b = gen_random_1d(rng.randint(1, 15), rng.randint(1, 15), 5000 + k)
        delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) \
            + rng.uniform(0, 2)
        free = [GridPoint(i, j) for i in range(1, r.n + 1)
                for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
        if not free:
            continue
        S = sorted({free[rng.randrange(len(free))] for _ in range(10)})
        E = sorted({free[rng.randrange(len(free))] for _ in range(10)})
        out.append((r, b, delta, S, E))
    return out


def test_criterion_2_propagation(capsys):
    t0 = time.perf_counter()
    bad = 0
    suite = _propagation_suite()
    for (r, b, delta, S, E) in suite:
        got = sorted(map(tuple, propagate_reachability(r, b, delta, S, E)))
        want = sorted(map(tuple, reachable_points_bruteforce(r, b, delta, S, E)))
        if got != want:
            bad += 1
    dt = time.perf_counter() - t0
    emit(capsys, bad == 0 and dt < 10.0, 2,
         f"{len(suite)} propagation instances exact vs brute force, "
         f"{bad} mismatches, {dt:.2f}s")


def test_criterion_3_forest_properties(capsys):
    rng = random.Random(33)
    size_viol = turn_viol = pairs = 0
    worst_ratio = 0.0
    for k in range(250):
        r, b = gen_random_1d(rng.randint(2, 15), rng.randint(2, 15), 9000 + k)
        delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) \
            + rng.uniform(0, 2)
        free = [GridPoint(i, j) for i in range(1, r.n + 1)
                for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
        if not free:
            continue
        seeds = sorted({free[rng.randrange(len(free))] for _ in range(4)})
        f = build_greedy_forest(r, b, delta, seeds, "horizontal")
        verts = set()
        for (p1, p2) in list(f.edges()) + list(f.extensions):
            verts.add(tuple(p1))
            verts.add(tuple(p2))
        worst_ratio = max(worst_ratio, len(verts) / (r.n + b.n))
        if len(verts) > 10 * (r.n + b.n):
            size_viol += 1
        paths = [f.path_from(s) for s in seeds]
        for a in range(len(paths)):
            for c in range(a + 1, len(paths)):
                pa = {tuple(v) for v in paths[a]}
                pc = {tuple(v) for v in paths[c]}
                if pa & pc:
                    continue
                pairs += 1
                cols = {v[0] for v in pa} & {v[0] for v in pc}
                rows = {v[1] for v in pa} & {v[1] for v in pc}
                if len(cols) > 1 and len(rows) > 1:
                    turn_viol += 1
    emit(capsys, size_viol == 0 and turn_viol == 0 and pairs > 0, 3,
         f"forest size ratio max {worst_ratio:.2f} of (n+m) "
         f"(bound 10), aligned-turns over {pairs} disjoint path pairs, "
         f"{size_viol + turn_viol} violations")


def test_criterion_4_convex_exactness(capsys):
    rng = random.Random(44)
    bad = 0
    for k in range(200):
        inst = gen_convex(rng.randint(6, 40), 700 + k)
        got = convex_frechet(inst).cost
        want = frechet_bisect(inst, "euclidean", tol=1e-10)
        if abs(got - want) > 1e-6:
            bad += 1
    emit(capsys, bad == 0, 4, f"200 convex instances vs Euclidean bisection, "
                              f"{bad} beyond 1e-6")


@functools.lru_cache(maxsize=1)
def _polygon_sweep():
    """Shared 200-instance sweep feeding criteria 5, 6 and 7."""
    results = []
    t_opt = 0.0
    for seed in range(200):
        eps = (0.5, 0.1, 0.05)[seed % 3]
        inst = random_instance(seed, max_total=30)
        dstar = frechet_bisect(inst, "geodesic", tol=1e-10)
        t0 = time.perf_counter()
        got = approx_optimize(inst, eps)
        t_opt += time.perf_counter() - t0
        ok5 = dstar * (1 - 1e-6) <= got <= dstar * (1 + eps) * (1 + 1e-6)
        dh = geodesic_hausdorff(inst)
        # the bisected oracle value carries the decider's relative 1e-9 slack
        ok6 = dh <= dstar * (1 + 2e-9) + 1e-9 and \
            dstar <= 3 * dh * (1 + 2e-9) + 1e-9
        for k in range(10):
            dlt = dh * (0.2 + 3.4 * k / 9)
            ans = approx_decide(inst, dlt, eps)
            if dlt < dh * (1 - 1e-9) and ans:
                ok6 = False
            if dlt >= 3 * dh and not ans:
                ok6 = False
        try:
            slabs = build_slabs(inst, nn_profile(inst), dstar * 1.05)
        except EmptyFanLeaf:
            slabs = []
        far = [s for s in slabs
               if s.kind == "far" and s.y_hi > s.y_lo + 1e-6]
        ok7 = True
        if far and seed < 120:
            s = far[0]
            Bhat = inst.B.subcurve(s.y_lo, s.y_hi)
            Rhat = inst.R.subcurve(
                s.entrance[0], min(s.entrance[0] + 1.0, float(inst.R.n)))
            dsub = frechet_bisect(sub_instance(inst, Rhat, Bhat),
                                  "geodesic", tol=1e-8)
            if build_separator_anchors(inst, tuple(Bhat.pts[0]),
                                       tuple(Bhat.pts[-1]),
                                       dsub * (1 + 1e-6), eps) is None:
                ok7 = False
        results.append((ok5, ok6, ok7, bool(far)))
    return results, t_opt


def test_criterion_5_approximation(capsys):
    results, t_opt = _polygon_sweep()
    bad = sum(1 for r in results if not r[0])
    nfar = sum(1 for r in results if r[3])
    emit(capsys, bad == 0 and nfar >= 50 and t_opt < 120.0, 5,
         f"200 instances, eps cycling {{0.5,0.1,0.05}}, {bad} outside "
         f"[d_F(1-1e-6), d_F(1+eps)(1+1e-6)], {nfar} with far slabs, "
         f"optimize time {t_opt:.1f}s")


def test_criterion_6_hausdorff_sandwich(capsys):
    results, _ = _polygon_sweep()
    bad = sum(1 for r in results if not r[1])
    emit(capsys, bad == 0, 6,
         f"sandwich d_H <= d_F <= 3 d_H and 10-point decision grid on "
         f"{len(results)} instances, {bad} violations")


def test_criterion_7_separator_soundness(capsys):
    results, _ = _polygon_sweep()
    checked = sum(1 for r in results[:120] if r[3])
    bad = sum(1 for r in results if not r[2])
    emit(capsys, bad == 0 and checked >= 30, 7,
         f"separator never too long at the sub-instance Frechet threshold "
         f"({checked} far slabs checked, {bad} violations)")


def test_criterion_8_scaling(capsys):
    times_m, times_p, sizes = [], [], [1000, 10000, 100000]
    for n in sizes:
        r, b, delta, S, E = gen_comb_1d(n, 7)
        t0 = time.perf_counter()
        frechet_matching_1d(r, b)
        t1 = time.perf_counter()
        propagate_reachability(r, b, delta, S, E)
        t2 = time.perf_counter()
        times_m.append(t1 - t0)
        times_p.append(t2 - t1)
    slope_m = math.log(times_m[-1] / times_m[0]) / math.log(sizes[-1] / sizes[0])
    slope_p = math.log(times_p[-1] / times_p[0]) / math.log(sizes[-1] / sizes[0])
    doc = os.path.join(os.path.dirname(__file__), "..", "docs", "benchmark.md")
    emit(capsys, slope_m <= 1.15 and slope_p <= 1.15 and os.path.exists(doc), 8,
         f"comb scaling slopes: matching {slope_m:.3f}, propagation "
         f"{slope_p:.3f} (bound 1.15), benchmark doc present")


def test_criterion_9_invariant_suites(capsys):
    viol = checks = 0
    for seed in range(15):
        inst = random_instance(seed)
        for fn in (lambda: check_shortcutting(inst, random.Random(seed), 10),
                   lambda: check_matching_to_fan(inst, samples_per_edge=4),
                   lambda: check_monotone_leaves(inst),
                   lambda: check_snapping(inst, (0.5, 0.1)[seed % 2],
                                          random.Random(seed), 20)):
            v, c = fn()
            viol += v
            checks += c
    rng = random.Random(99)
    for seed in range(60):
        r, b = gen_random_1d(rng.randint(2, 10), rng.randint(2, 10), seed)
        delta = r.a(1) + b.a(1) + rng.uniform(0, 4)
        v, c = check_lower_envelope(r, b, delta)
        viol += v
        checks += c
    emit(capsys, viol == 0 and checks >= 300, 9,
         f"invariant suites: {checks} checks, {viol} violations at 1e-9")
