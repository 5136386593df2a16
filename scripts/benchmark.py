#!/usr/bin/env python3
"""Measure comb-family 1D scaling, the crossover between the two
propagation paths, far-slab propagation and NN-profile queries on the
sweep instances, approx_optimize against n+m, convex-solver scaling and
stages, count the library's lines, and publish docs/benchmark.md.

    python scripts/benchmark.py                 # everything, docs/benchmark.md
    python scripts/benchmark.py --stages LABEL --bench BENCH_39.json
    python scripts/benchmark.py --perfbench LABEL DIR --bench BENCH_39.json

--stages times the convex stages of the geofrechet on the import path and
stores them under LABEL in the BENCH file, so that two trees can be
compared by running it once per tree (PYTHONPATH=<tree>/src).
--perfbench stores the medians of the end-to-end metrics of the perfbench
records (perfbench/out/*-trace0.json) in DIR under LABEL."""
import argparse
import glob
import json
import math
import os
import platform
import random
import statistics
import sys
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
# the ellipse sizes of the perfbench convex workload
STAGE_SIZES = [80, 160, 320]
REPS = 3
# the convex stages are timed apart, on a host whose speed drifts
STAGE_REPS = 10
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


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
    grid-path calls, median n, median m of the snapped curves, counts),
    times best of REPS, counts from the last run. The counts are NN
    profiles, their vertex starts, their nearest-point queries, reverse
    brackets dropped, far-slab exits, their probes, gate sets built, gate
    sets that reused their anchor's B-hat side, and rays shot."""
    inner = farslab.propagate_reachability
    sizes = []
    spent = [0.0]
    counts = dict.fromkeys(("grid", "nn", "profiles", "starts", "dropped",
                            "exits", "probes", "gates", "b_sides", "rays"), 0)
    Crossing = farslab._Crossing
    patches = [(oned, "_propagate_grid", "grid"), (nnprofile, "_nn_search", "nn"),
               (driver, "far_find_exit", "exits"), (Crossing, "reaches", "probes"),
               (Crossing, "gate_set", "gates"), (Crossing, "_b_side", "b_sides"),
               (farslab, "_ray_hit", "rays")]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    build, below = nnprofile._build_profile, nnprofile._bracket_below

    def counted(fn, key):
        def inner(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        return inner

    def counted_build(inst, source, target, **kw):
        counts["profiles"] += 1
        counts["starts"] += source.n
        return build(inst, source, target, **kw)

    def counted_below(*a):
        out = below(*a)
        counts["dropped"] += out
        return out

    def timed(r, b, delta, S, E):
        sizes.append((r.n, b.n))
        t0 = time.perf_counter()
        out = inner(r, b, delta, S, E)
        spent[0] += time.perf_counter() - t0
        return out

    farslab.propagate_reachability = timed
    for (obj, name, key), (_, _, fn) in zip(patches, saved):
        setattr(obj, name, counted(fn, key))
    nnprofile._build_profile = counted_build
    nnprofile._bracket_below = counted_below
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
        for obj, name, fn in saved:
            setattr(obj, name, fn)
        nnprofile._build_profile = build
        nnprofile._bracket_below = below
    return (best_total, best_prop, len(sizes), counts["grid"],
            statistics.median(n for n, _ in sizes),
            statistics.median(m for _, m in sizes), counts)


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


def convex_stages(R, B, reps=STAGE_REPS):
    """Wall seconds (best of reps, fresh instance each) of the stages of a
    convex solve: build_instance, the convexity check, tangent_pairs, and
    the rest of convex_frechet (the pair splits and merges), with the
    number of tangent pairs and of pairs split."""
    best = dict.fromkeys(("build", "check", "pairs", "splits_merge"), math.inf)
    inner, split = convex.tangent_pairs, convex._split
    split_pairs = set()

    def counted(inst, pair, fans):
        split_pairs.add(pair)
        return split(inst, pair, fans)

    for _ in range(reps):
        t0 = time.perf_counter()
        inst = build_instance(R, B)
        t1 = time.perf_counter()
        convex._check_convex(inst)
        t2 = time.perf_counter()
        pairs = inner(inst)
        t3 = time.perf_counter()
        convex.tangent_pairs, convex._split = (lambda inst: pairs), counted
        try:
            t4 = time.perf_counter()
            convex_frechet(inst)
            t5 = time.perf_counter()
        finally:
            convex.tangent_pairs, convex._split = inner, split
        for key, t in zip(best, (t1 - t0, t2 - t1, t3 - t2, t5 - t4)):
            best[key] = min(best[key], t)
    return {**best, "n_pairs": len(pairs), "n_split": len(split_pairs)}


def bench_stages():
    """Convex stages on the ellipses of seed 1000·N (N = 200-3200), on the
    base ellipses of the perfbench convex workload (N = 80-320, best of 20)
    and on gen_convex_worst (N = 200-3200), where about a third of the
    pairs get split."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from helpers import gen_convex_worst
    scaling = {str(n): convex_stages(*ellipse(1000 * n, n)) for n in CONVEX_SIZES}
    workload = {f"ellipse{n}#{r}": convex_stages(*ellipse(1000 * n + r, n), reps=20)
                for n in STAGE_SIZES for r in range(2)}
    worst = {}
    for n in CONVEX_SIZES:
        inst = gen_convex_worst(n, n)
        worst[str(n)] = convex_stages(inst.R.pts.tolist(), inst.B.pts.tolist())
    return {"ellipses": scaling, "workload": workload, "worst": worst}


def perfbench_medians(folder):
    """Per workload, the median of each end-to-end metric over the
    untraced perfbench records in folder, with the seeds and whether every
    op was correct."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(folder, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append(rec)
    out = {}
    for wl, recs in runs.items():
        names = recs[0]["end_to_end"]
        out[wl] = {"seeds": [r["seed"] for r in recs],
                   "all_correct": not any(op["wrong"] for r in recs for op in r["ops"]),
                   **{k: {"median": statistics.median(r["end_to_end"][k][0] for r in recs),
                          "runs": [r["end_to_end"][k][0] for r in recs],
                          "unit": names[k][1]} for k in names}}
    return out


def update_bench(path, section, label, value):
    """Store value under [section][label] of the JSON file at path."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data.setdefault(section, {})[label] = value
    data["environment"] = f"Python {platform.python_version()}, {platform.system()} " \
                          f"{platform.machine()}, {os.cpu_count()} CPUs, single process"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def solve_s(r):
    return r["check"] + r["pairs"] + r["splits_merge"]


def stage_table(fh, rows):
    fh.write("| instance | build | convexity | tangent_pairs | splits + merges "
             "| pairs | pairs split |\n|---|---:|---:|---:|---:|---:|---:|\n")
    for name, r in rows.items():
        fh.write(f"| {name} | {r['build'] * 1e3:.2f} | {r['check'] * 1e3:.3f} "
                 f"| {r['pairs'] * 1e3:.2f} | {r['splits_merge'] * 1e3:.2f} "
                 f"| {r['n_pairs']} | {r['n_split']} |\n")


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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stages", metavar="LABEL",
                    help="only time the convex stages and store them under LABEL")
    ap.add_argument("--perfbench", nargs=2, metavar=("LABEL", "DIR"),
                    help="only store the medians of the perfbench records in DIR")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCH_39.json"),
                    help="the BENCH file --stages and --perfbench write to")
    args = ap.parse_args()
    if args.stages:
        update_bench(args.bench, "convex_stages", args.stages, bench_stages())
        print(f"wrote convex stages '{args.stages}' to {os.path.normpath(args.bench)}")
        return
    if args.perfbench:
        label, folder = args.perfbench
        update_bench(args.bench, "perfbench", label, perfbench_medians(folder))
        print(f"wrote perfbench medians '{label}' to {os.path.normpath(args.bench)}")
        return
    rows = [(n, *bench(n)) for n in SIZES]
    s_m = slope(SIZES, [r[1] for r in rows])
    s_p = slope(SIZES, [r[2] for r in rows])
    xrows = [bench_crossover(k) for k in CROSSOVER_K]
    sweep_s, prop_s, calls, grid_calls, med_n, med_m, counts = bench_sweep()
    profiles, nn_calls = counts["profiles"], counts["nn"]
    grows = [bench_scaling(n) for n in SCALING_N]
    s_t = slope([r[0] for r in grows], [r[1] for r in grows])
    s_h = slope([r[0] for r in grows], [r[2] for r in grows])
    stages = bench_stages()
    crows = [stages["ellipses"][str(n)] for n in CONVEX_SIZES]
    s_b = slope(CONVEX_SIZES, [r["build"] for r in crows])
    s_s = slope(CONVEX_SIZES, [solve_s(r) for r in crows])
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
                 "A far-slab exit (`far_find_exit`) probes transit exits with\n"
                 "one decision each, and all probes of an exit share one\n"
                 "crossing of B-hat. The propagation time is spent inside\n"
                 "`propagate_reachability`, called once per anchor interval\n"
                 "that a probe enters; the calls are split by the path they\n"
                 "take. Each interval but the last first builds the gate set\n"
                 "of the anchor at its far end; the B-hat side of an anchor's\n"
                 "gate set, with its rays, is built by the first probe that\n"
                 "reaches the anchor and reused by the others. A ray is shot\n"
                 "once per crossing, anchor and last bend of the geodesics\n"
                 "through it.\n\n"
                 % (SWEEP - 1, REPS))
        fh.write("| approx_optimize total (s) | propagate_reachability (s) "
                 "| calls (grid / forests) | median snapped size n × m "
                 "| exits | probes | gate sets (B-hat side reused) | rays |\n")
        fh.write("|---:|---:|---:|---:|---:|---:|---:|---:|\n")
        fh.write(f"| {sweep_s:.3f} | {prop_s:.3f} | {calls} ({grid_calls} / "
                 f"{calls - grid_calls}) | {med_n:g} × {med_m:g} "
                 f"| {counts['exits']} | {counts['probes']} | {counts['gates']} "
                 f"({counts['gates'] - counts['b_sides']}) | {counts['rays']} |\n\n")
        fh.write("The same runs build %d nearest-neighbour profiles (both\n"
                 "directions). Each queries the nearest point (`_nn_search`)\n"
                 "at its source vertices and then at the split points of its\n"
                 "brackets. The reverse profile (B onto R) feeds only the\n"
                 "Hausdorff bound, so its brackets that cannot raise the\n"
                 "bound are dropped unsplit.\n\n" % profiles)
        fh.write("| profiles | queries | at vertices | in brackets "
                 "| reverse brackets dropped | queries per profile |\n"
                 "|---:|---:|---:|---:|---:|---:|\n")
        fh.write(f"| {profiles} | {nn_calls} | {counts['starts']} "
                 f"| {nn_calls - counts['starts']} | {counts['dropped']} "
                 f"| {nn_calls / max(profiles, 1):.1f} |\n\n")
        fh.write("## approx_optimize against n+m\n\n")
        fh.write("`approx_optimize` at eps 0.1 on `gen_simple(3, n, spikes=1)`,\n"
                 "built fresh for each of %d runs (best time kept). The\n"
                 "Hausdorff column is the time inside `geodesic_hausdorff`,\n"
                 "which builds the nearest-neighbour profile of R onto B and\n"
                 "the reverse one where it can still raise the maximum.\n\n"
                 % REPS)
        fh.write("| n+m | approx_optimize (s) | geodesic_hausdorff (s) |\n")
        fh.write("|---:|---:|---:|\n")
        for (nm, tt, th) in grows:
            fh.write(f"| {nm} | {tt:.4f} | {th:.4f} |\n")
        fh.write(f"\nLog-log slope over the full range: total {s_t:.3f}, "
                 f"Hausdorff {s_h:.3f}.\n\n")
        fh.write("## Convex polygons\n\n")
        fh.write("Wall time in ms (best of %d runs, fresh instance each) of the\n"
                 "stages of a convex solve, for an ellipse with N boundary\n"
                 "vertices split at a random vertex (seed 1000·N):\n"
                 "`build_instance`, the convexity check, `tangent_pairs`, and\n"
                 "the pair splits and merges of the rest of `convex_frechet`.\n"
                 "The target for build and solve (the last three stages) is a\n"
                 "log-log slope of at most 1.2. The solver splits a tangent\n"
                 "pair only while its d* could still undercut the lowest\n"
                 "pending bound and the best cost; the last two columns count\n"
                 "the pairs of the caliper sweep and those split.\n\n"
                 % STAGE_REPS)
        stage_table(fh, {f"N = {n}": r for n, r in zip(CONVEX_SIZES, crows)})
        fh.write(f"\nLog-log slope over the full range: build {s_b:.3f}, "
                 f"solve {s_s:.3f}.\n\n")
        fh.write("The base ellipses of the perfbench `convex` workload (N =\n"
                 "80-320, before placement), best of 20:\n\n")
        stage_table(fh, stages["workload"])
        worst = [stages["worst"][str(n)] for n in CONVEX_SIZES]
        fh.write("\n`gen_convex_worst` (in `tests/helpers.py`): a thin ellipse\n"
                 "split near the ends of its minor axis, where about a third\n"
                 "of the tangent pairs have d* below the Fréchet distance, so\n"
                 "`convex_frechet` splits them all (best of %d).\n\n" % STAGE_REPS)
        stage_table(fh, {f"N = {n}": r for n, r in zip(CONVEX_SIZES, worst)})
        fh.write(f"\nLog-log slope of the splits and merges over the full range: "
                 f"{slope(CONVEX_SIZES, [r['splits_merge'] for r in worst]):.3f}. A split\n"
                 "is O(N) array work, but at these sizes its fixed cost\n"
                 "dominates, so the quadratic term does not show yet.\n\n")
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
