#!/usr/bin/env python3
"""Measure comb-family 1D scaling, the crossover between the two
propagation paths, far-slab propagation and NN-profile queries on the
sweep instances, approx_optimize against n+m and convex-solver scaling,
count the library's lines, and publish docs/benchmark.md."""
import math
import os
import platform
import random
import statistics
import time

from geofrechet import convex, driver, farslab, generators, nnprofile, oned
from geofrechet.convex import convex_frechet
from geofrechet.driver import approx_optimize
from geofrechet.generators import gen_comb_1d
from geofrechet.geometry import build_instance
from geofrechet.oned import Curve1D, frechet_matching_1d, propagate_reachability

SIZES = [1000, 10000, 100000]
SWEEP = 40
# gen_comb_1d(k) has k x k vertex pairs: 64 to 1,048,576 cells
CROSSOVER_K = [8, 16, 32, 64, 128, 256, 512, 1024]
# gen_simple(3, n, spikes=1) has n+m = 16, 33, 64, 128 at these n
SCALING_N = [14, 32, 62, 130]
CONVEX_SIZES = [200, 400, 800, 1600, 3200]
REPS = 3


def bench(n):
    r, b, delta, S, E = gen_comb_1d(n, 7)
    tm = tp = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        frechet_matching_1d(r, b)
        t1 = time.perf_counter()
        propagate_reachability(r, b, delta, S, E)
        t2 = time.perf_counter()
        tm = min(tm, t1 - t0)
        tp = min(tp, t2 - t1)
    return tm, tp


def bench_crossover(k):
    """(n*m, grid s, forests s, path propagate_reachability takes) on
    gen_comb_1d(k, 7), each path on fresh curves, best of 5."""
    r, b, delta, S, E = gen_comb_1d(k, 7)
    taken = []
    inner = oned._propagate_grid
    oned._propagate_grid = lambda *a: taken.append("grid") or inner(*a)
    try:
        propagate_reachability(r, b, delta, S, E)
    finally:
        oned._propagate_grid = inner
    out = []
    for path in (oned._propagate_grid, oned._propagate_forests):
        best = math.inf
        for _ in range(5):
            rc, bc = Curve1D(r.values), Curve1D(b.values)
            t0 = time.perf_counter()
            path(rc, bc, delta, S, E)
            best = min(best, time.perf_counter() - t0)
        out.append(best)
    return k * k, out[0], out[1], taken[0] if taken else "forests"


def sweep_instance(seed):
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


def bench_sweep():
    """approx_optimize over the first sweep instances with the sweep's eps
    cycle: (total s, s inside propagate_reachability, propagation calls,
    grid-path calls, median n, median m of the snapped curves, NN
    profiles, their vertex starts, their nearest-point queries, far_decide
    calls, gate sets built, rays shot), times best of REPS, counts from
    the last run."""
    inner = farslab.propagate_reachability
    sizes = []
    spent = [0.0]
    counts = {"grid": 0, "nn": 0, "profiles": 0, "starts": 0, "decide": 0,
              "gates": 0, "rays": 0}
    grid, nn_search, build = (oned._propagate_grid, nnprofile._nn_search,
                              nnprofile._build_profile)
    decide, gates, ray = (farslab.far_decide, farslab.build_gate_sets,
                          farslab._ray_hit)

    def counted_decide(*a):
        counts["decide"] += 1
        return decide(*a)

    def counted_gates(*a):
        out = gates(*a)
        counts["gates"] += len(out)
        return out

    def counted_ray(*a):
        counts["rays"] += 1
        return ray(*a)

    def counted_grid(*a):
        counts["grid"] += 1
        return grid(*a)

    def counted_nn(*a):
        counts["nn"] += 1
        return nn_search(*a)

    def counted_build(inst, source, target):
        counts["profiles"] += 1
        counts["starts"] += source.n
        return build(inst, source, target)

    def timed(r, b, delta, S, E):
        sizes.append((r.n, b.n))
        t0 = time.perf_counter()
        out = inner(r, b, delta, S, E)
        spent[0] += time.perf_counter() - t0
        return out

    farslab.propagate_reachability = timed
    oned._propagate_grid = counted_grid
    nnprofile._nn_search = counted_nn
    nnprofile._build_profile = counted_build
    farslab.far_decide = counted_decide
    farslab.build_gate_sets = counted_gates
    farslab._ray_hit = counted_ray
    best_total = best_prop = math.inf
    try:
        for _ in range(REPS):
            sizes.clear()
            counts.update(dict.fromkeys(counts, 0))
            spent[0] = total = 0.0
            for s in range(SWEEP):
                inst = sweep_instance(s)
                t0 = time.perf_counter()
                approx_optimize(inst, (0.5, 0.1, 0.05)[s % 3])
                total += time.perf_counter() - t0
            best_total = min(best_total, total)
            best_prop = min(best_prop, spent[0])
    finally:
        farslab.propagate_reachability = inner
        oned._propagate_grid = grid
        nnprofile._nn_search = nn_search
        nnprofile._build_profile = build
        farslab.far_decide = decide
        farslab.build_gate_sets = gates
        farslab._ray_hit = ray
    return (best_total, best_prop, len(sizes), counts["grid"],
            statistics.median(n for n, _ in sizes),
            statistics.median(m for _, m in sizes),
            counts["profiles"], counts["starts"], counts["nn"],
            counts["decide"], counts["gates"], counts["rays"])


def bench_scaling(n):
    """(n+m, total s, s inside geodesic_hausdorff) of approx_optimize at
    eps 0.1 on a fresh gen_simple(3, n, spikes=1), best of REPS."""
    inner = driver.geodesic_hausdorff
    spent = [0.0]

    def timed(inst):
        t0 = time.perf_counter()
        out = inner(inst)
        spent[0] += time.perf_counter() - t0
        return out

    driver.geodesic_hausdorff = timed
    best_total = best_dh = math.inf
    try:
        for _ in range(REPS):
            inst = generators.gen_simple(3, n, spikes=1)
            spent[0] = 0.0
            t0 = time.perf_counter()
            approx_optimize(inst, 0.1)
            best_total = min(best_total, time.perf_counter() - t0)
            best_dh = min(best_dh, spent[0])
    finally:
        driver.geodesic_hausdorff = inner
    return inst.R.n + inst.B.n, best_total, best_dh


def ellipse(seed, n):
    """n points on a random ellipse at jittered even angles, split at a
    random vertex, as in the convex benchmark workload."""
    rng = random.Random(seed)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.0)
    pts = [(a * math.cos(t), b * math.sin(t)) for t in
           (2 * math.pi * (i + rng.uniform(0.1, 0.9)) / n for i in range(n))]
    k = rng.randint(n // 4, 3 * n // 4)
    return pts[:k + 1], [pts[0]] + pts[k:][::-1]


def bench_convex(n):
    """(build s, solve s, tangent pairs, pairs split) on the ellipse of
    seed 1000·n, times best of REPS; the pairs that convex_frechet splits
    are counted on one more, untimed solve."""
    R, B = ellipse(1000 * n, n)
    tb = ts = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        inst = build_instance(R, B)
        t1 = time.perf_counter()
        convex_frechet(inst)
        t2 = time.perf_counter()
        tb = min(tb, t1 - t0)
        ts = min(ts, t2 - t1)
    split = convex._split
    split_pairs = set()
    convex._split = lambda inst, pair, fans: split_pairs.add(pair) or split(inst, pair, fans)
    try:
        convex_frechet(inst)
    finally:
        convex._split = split
    return tb, ts, len(convex.tangent_pairs(inst)), len(split_pairs)


def library_lines():
    """(module, line count) for each module of the library, by name."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "geofrechet")
    out = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                out.append((name, sum(1 for _ in fh)))
    return out


def slope(sizes, times):
    return math.log(times[-1] / times[0]) / math.log(sizes[-1] / sizes[0])


def main():
    rows = [(n, *bench(n)) for n in SIZES]
    s_m = slope(SIZES, [r[1] for r in rows])
    s_p = slope(SIZES, [r[2] for r in rows])
    xrows = [bench_crossover(k) for k in CROSSOVER_K]
    (sweep_s, prop_s, calls, grid_calls, med_n, med_m,
     profiles, starts, nn_calls, decides, gate_sets, rays) = bench_sweep()
    grows = [bench_scaling(n) for n in SCALING_N]
    s_t = slope([r[0] for r in grows], [r[1] for r in grows])
    s_h = slope([r[0] for r in grows], [r[2] for r in grows])
    crows = [(n, *bench_convex(n)) for n in CONVEX_SIZES]
    s_b = slope(CONVEX_SIZES, [r[1] for r in crows])
    s_s = slope(CONVEX_SIZES, [r[2] for r in crows])
    mods = library_lines()
    out = os.path.join(os.path.dirname(__file__), "..", "docs", "benchmark.md")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        fh.write("# Scaling benchmark\n\n## Comb-family 1D instances\n\n")
        fh.write("Wall time (best of %d runs) of the exact 1D matcher and the\n"
                 "seed-set reachability propagation on comb instances with\n"
                 "n = m teeth. Both are expected to scale near O(n log n);\n"
                 "the acceptance bound is a log-log slope of at most 1.15.\n\n"
                 % REPS)
        fh.write("| n | frechet_matching_1d (s) | propagate_reachability (s) |\n")
        fh.write("|---:|---:|---:|\n")
        for (n, tm, tp) in rows:
            fh.write(f"| {n} | {tm:.4f} | {tp:.4f} |\n")
        fh.write(f"\nLog-log slope over the full range: matching {s_m:.3f}, "
                 f"propagation {s_p:.3f}. Every comb row takes the forest "
                 f"path (n*m >= 10^6 > {oned._GRID_MAX_CELLS}).\n\n")
        fh.write("## Propagation paths: vertex-grid sweep against forests\n\n")
        fh.write("Wall time (best of 5, fresh curves) of the two exact paths of\n"
                 "`propagate_reachability` on `gen_comb_1d(k, 7)` with n = m = k:\n"
                 "the row sweep over the free vertex pairs (`_propagate_grid`)\n"
                 "and the greedy forests (`_propagate_forests`). The sweep is\n"
                 "taken up to n*m = `_GRID_MAX_CELLS` = %d.\n\n"
                 % oned._GRID_MAX_CELLS)
        fh.write("| n*m | grid sweep (ms) | forests (ms) | forests / sweep | path taken |\n")
        fh.write("|---:|---:|---:|---:|---|\n")
        for (nm, tg, tf, path) in xrows:
            fh.write(f"| {nm} | {tg * 1e3:.3f} | {tf * 1e3:.3f} "
                     f"| {tf / tg:.2f} | {path} |\n")
        fh.write("\n")
        fh.write("## Far slabs on the sweep\n\n")
        fh.write("`approx_optimize` on sweep instances 0-%d (criterion 5's\n"
                 "generators, n+m <= 30) with eps cycling 0.5, 0.1, 0.05; each\n"
                 "instance is built fresh, and times are the best of %d runs.\n"
                 "The propagation time is spent inside\n"
                 "`propagate_reachability`, called once per anchor interval\n"
                 "that a far-slab decision (`far_decide`) enters; the calls\n"
                 "are split by the path they take. Each interval but the\n"
                 "last first builds the gate set of the anchor at its far\n"
                 "end, shooting at most one ray per gate candidate.\n\n"
                 % (SWEEP - 1, REPS))
        fh.write("| approx_optimize total (s) | propagate_reachability (s) "
                 "| calls (grid / forests) | median snapped size n × m "
                 "| far_decide calls | gate sets | rays |\n")
        fh.write("|---:|---:|---:|---:|---:|---:|---:|\n")
        fh.write(f"| {sweep_s:.3f} | {prop_s:.3f} | {calls} ({grid_calls} / "
                 f"{calls - grid_calls}) | {med_n:g} × {med_m:g} "
                 f"| {decides} | {gate_sets} | {rays} |\n\n")
        fh.write("The same runs build %d nearest-neighbour profiles (both\n"
                 "directions). Each queries the nearest point (`_nn_search`)\n"
                 "at its source vertices and then at the split points of its\n"
                 "brackets.\n\n" % profiles)
        fh.write("| profiles | queries | at vertices | in brackets "
                 "| queries per profile |\n|---:|---:|---:|---:|---:|\n")
        fh.write(f"| {profiles} | {nn_calls} | {starts} | {nn_calls - starts} "
                 f"| {nn_calls / max(profiles, 1):.1f} |\n\n")
        fh.write("## approx_optimize against n+m\n\n")
        fh.write("`approx_optimize` at eps 0.1 on `gen_simple(3, n, spikes=1)`,\n"
                 "built fresh for each of %d runs (best time kept). The\n"
                 "Hausdorff column is the time inside `geodesic_hausdorff`,\n"
                 "which builds both nearest-neighbour profiles.\n\n" % REPS)
        fh.write("| n+m | approx_optimize (s) | geodesic_hausdorff (s) |\n")
        fh.write("|---:|---:|---:|\n")
        for (nm, tt, th) in grows:
            fh.write(f"| {nm} | {tt:.4f} | {th:.4f} |\n")
        fh.write(f"\nLog-log slope over the full range: total {s_t:.3f}, "
                 f"Hausdorff {s_h:.3f}.\n\n")
        fh.write("## Convex polygons\n\n")
        fh.write("Wall time (best of %d runs) of `build_instance` and of\n"
                 "`convex_frechet` on a fresh instance, for an ellipse with N\n"
                 "boundary vertices split at a random vertex (seed 1000·N).\n"
                 "The target for both is a log-log slope of at most 1.2. The\n"
                 "solver splits a tangent pair only while its d* could still\n"
                 "undercut the lowest pending bound and the best cost; the\n"
                 "last two columns count the pairs of the caliper sweep and\n"
                 "those split.\n\n"
                 % REPS)
        fh.write("| N | build_instance (s) | convex_frechet (s) | pairs | pairs split |\n")
        fh.write("|---:|---:|---:|---:|---:|\n")
        for (n, tb, ts, npairs, nsplit) in crows:
            fh.write(f"| {n} | {tb:.4f} | {ts:.4f} | {npairs} | {nsplit} |\n")
        fh.write(f"\nLog-log slope over the full range: build {s_b:.3f}, "
                 f"solve {s_s:.3f}.\n\n")
        fh.write("## Library size\n\nLines of each module under "
                 "`src/geofrechet`.\n\n| module | lines |\n|---|---:|\n")
        for name, lines in mods:
            fh.write(f"| `{name}` | {lines} |\n")
        fh.write(f"| total | {sum(k for _, k in mods)} |\n\n")
        fh.write(f"Environment: Python {platform.python_version()}, "
                 f"{platform.system()} {platform.machine()}, single process.\n")
    print(f"wrote {os.path.normpath(out)} (comb slopes {s_m:.3f} / {s_p:.3f}, "
          f"sweep {sweep_s:.3f} s with {prop_s:.3f} s propagating, "
          f"{nn_calls / max(profiles, 1):.1f} NN queries per profile, "
          f"approx_optimize slope {s_t:.3f}, "
          f"convex build slope {s_b:.3f}, solve slope {s_s:.3f})")


if __name__ == "__main__":
    main()
