#!/usr/bin/env python3
"""Benchmark of the geofrechet library, one workload per run.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

A run is one process and one thread: a closed loop with one client that
starts each op when the previous one is done. Every op gets a fresh
instance, since all caches of the library live on the instance. The run
prints a summary, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, or the per-layer metrics of a traced run with --trace 1. The
full record of a run (raw seconds of every op, every calibration reading)
is written to perfbench/out/. perfbench/README.md defines every metric.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402  (stdlib only; this file's own directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mixed", "grow", "ladder", "convex")

OP_CAP_S = 60.0       # an op that runs longer fails
LAST_START_S = 120.0  # no op starts later than this after launch
HARD_STOP_S = 160.0   # no op or check runs past this after launch
SETUP_REPS = 3
PERIOD_S = 0.05       # clock tick: one ~1 ms speed probe per 50 ms


class OpTimeout(Exception):
    pass


def elapsed() -> float:
    return time.perf_counter() - T_START


class Clock:
    """SIGALRM every PERIOD_S. The handler enforces the time cap of the
    running op and, while probing, times a short run of the reference
    loop, so host speed is sampled all through the ops it normalizes."""

    def __init__(self):
        self.deadline = math.inf
        self.probing = False
        self.probe_t = array("d")    # probe start, perf_counter seconds
        self.probe_cal = array("d")  # seconds per cal the probe measured

    def _tick(self, signum, frame):
        now = time.perf_counter()
        if now > self.deadline:
            self.deadline = math.inf
            raise OpTimeout()
        if self.probing:
            self.probe_t.append(now)
            self.probe_cal.append(measure.calibrate(measure.PROBE_ROUNDS))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def capped(self, fn, cap: float):
        """(start, end, result, error) of fn(), stopped after cap seconds."""
        out = err = None
        t0 = time.perf_counter()
        self.deadline = t0 + cap
        try:
            out = fn()
        except OpTimeout:
            err = f"over the {cap:.0f} s cap"
        except Exception as exc:  # a failed op is counted, not fatal
            err = repr(exc)
        finally:
            self.deadline = math.inf
        return t0, time.perf_counter(), out, err

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds spent probing between t0 and t1."""
        i = bisect.bisect_left(self.probe_t, t0)
        j = bisect.bisect_right(self.probe_t, t1)
        return sum(self.probe_cal[i:j]) * measure.PROBE_ROUNDS / measure.REF_ROUNDS

    def cal(self, t0: float, t1: float) -> float:
        """Seconds per cal while the span t0..t1 ran."""
        return measure.op_cal(self.probe_t, self.probe_cal, t0, t1)


@dataclass
class Slot:
    """One op of the run and what became of it."""
    item: str
    size: int
    delta: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    raw_s: float = 0.0
    cal_s: float = 0.0
    result: object = None
    error: str = ""
    ran: bool = False
    ok: bool = False
    wrong: bool = False   # the oracle disagrees with the result


def run_pass(wl: str, items, clock: Clock, tracer=None):
    """Run every op of `items` under the clock; returns the slots."""
    import geofrechet as gf
    import workloads

    op = workloads.op_convex if wl == "convex" else workloads.op_optimize
    slots = []
    for it in items:
        calls = [(0.0, lambda it=it: op(it))]
        if wl == "ladder":
            inst = gf.build_instance(it.R, it.B)
            calls = [(d, lambda d=d, inst=inst, it=it:
                      gf.approx_decide(inst, d, it.eps)) for d in it.deltas]
        these = [Slot(it.name, it.size, d) for d, _ in calls]
        slots += these
        if wl == "ladder" and not it.d_ref:
            for s in these:
                s.error = "no reference distance"
            continue
        if elapsed() > LAST_START_S:
            for s in these:
                s.error = "not started: run time budget spent"
            continue
        gc.collect()  # start every instance with the same collector state
        if tracer is not None:
            tracer.new_instance()
        for s, (_, fn) in zip(these, calls):
            cap = min(OP_CAP_S, HARD_STOP_S - elapsed())
            if tracer is None:
                s.t0, s.t1, s.result, err = clock.capped(fn, cap)
            else:
                with tracer.op():
                    s.t0, s.t1, s.result, err = clock.capped(fn, cap)
            s.ran, s.error = True, err or ""
            if not err:
                s.result = bool(s.result) if wl == "ladder" else float(s.result)
    for s in slots:
        if s.ran:
            s.raw_s = s.t1 - s.t0 - clock.probe_time(s.t0, s.t1)
            s.cal_s = clock.cal(s.t0, s.t1)
    return slots


def check(wl: str, items, slots, clock: Clock, traced=None) -> float:
    """Oracle-check every op that ran; returns the seconds it took."""
    import workloads

    t0 = time.perf_counter()
    by_name = {it.name: it for it in items}
    for k, s in enumerate(slots):
        if not s.ran or s.error:
            continue
        it = by_name[s.item]
        if wl == "ladder":
            s.ok = workloads.check_decision(it, s.delta, s.result)
        else:
            fn = workloads.check_convex if wl == "convex" else workloads.check_optimize
            _, _, s.ok, err = clock.capped(lambda: fn(it, s.result),
                                           min(OP_CAP_S, HARD_STOP_S - elapsed()))
            if err:
                s.error = "check: " + err
        if s.ok is not True and not s.error:
            s.wrong, s.error = True, "result outside its oracle window"
        if traced is not None and traced[k].result != s.result:
            s.wrong, s.error = True, "traced run gave another result"
        s.ok = not s.error
    return time.perf_counter() - t0


def end_to_end(slots, setup_s: float, rss_mb: float):
    """End-to-end metrics as {name: (value, unit)}, plus notes to print.
    Latencies are per op; the size scaling (slope, largest_p50_cal) is per
    instance, which for `ladder` sums its ten decisions."""
    ran = [s for s in slots if s.ran]
    lat = [s.raw_s / s.cal_s for s in ran]
    tail_p = measure.tail_percentile(len(lat))
    per_instance: dict = {}
    for s, v in zip(ran, lat):
        per_instance[s.item, s.size] = per_instance.get((s.item, s.size), 0.0) + v
    sizes = [n for _, n in per_instance]
    values = list(per_instance.values())
    top, n_top = measure.largest(sizes, values)
    metrics = {
        "setup_s": (setup_s, "s"),
        "total_cal": (sum(lat), "cal"),
        "latency_p50_cal": (measure.percentile(lat, 50), "cal"),
        "latency_tail_cal": (measure.percentile(lat, tail_p), "cal"),
        "peak_rss_mb": (rss_mb, "MB"),
        "slope": (measure.loglog_slope(sizes, values), "1"),
        "largest_p50_cal": (top, "cal"),
    }
    notes = {
        "latency_tail_cal": f"p{tail_p:g}, {measure.above(len(lat), tail_p)}"
                            f" of {len(lat)} samples above",
        "total_cal": f"raw {sum(s.raw_s for s in ran):.3f} s",
        "slope": f"n+m {min(sizes)}..{max(sizes)}, {len(sizes)} instances",
        "largest_p50_cal": f"{n_top} instances with n+m >= {0.75 * max(sizes):g}",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "geofrechet" / "__init__.py").is_file():
        print(f"perfbench: library sources missing at {src}/geofrechet",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = args.workload
    traced = tracer = None
    with Clock() as clock:
        clock.probing = True
        import spans
        import workloads

        t_imports = elapsed() - clock.probe_time(T_START, time.perf_counter())
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            items = workloads.make_items(wl, args.seed, args.seconds)
            workloads.warm_up(wl)
            t1 = time.perf_counter()
            reps.append(t1 - t0 - clock.probe_time(t0, t1))
        setup_raw = t_imports + statistics.median(reps)
        setup_cal = clock.cal(T_START, time.perf_counter())

        clock.probing = False
        t0 = time.perf_counter()
        if wl == "ladder":
            for it in items:
                clock.capped(lambda it=it: workloads.reference(it), OP_CAP_S)
        verify_s = time.perf_counter() - t0

        clock.probing = True
        slots = run_pass(wl, items, clock)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(wl, items, clock, tracer)
            finally:
                tracer.uninstall()
        clock.probing = False
        verify_s += check(wl, items, slots, clock, traced)

    if not any(s.ran for s in slots):
        print("perfbench: no op ran", file=sys.stderr)
        return 1
    failed = sum(1 for s in slots if not s.ok)
    cals = clock.probe_cal
    e2e, notes = end_to_end(slots, setup_raw * measure.NOMINAL_CAL_S / setup_cal,
                            rss_mb)
    if args.trace:
        pairs = [(s, t) for s, t in zip(slots, traced) if s.ran and t.ran]
        overhead = (sum(t.raw_s / t.cal_s for _, t in pairs) /
                    sum(s.raw_s / s.cal_s for s, _ in pairs) - 1) if pairs else 0.0
        metrics = spans.layer_metrics(tracer, sum(1 for t in traced if t.ran),
                                      overhead)
    else:
        metrics = e2e

    print(f"perfbench workload={wl} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"inputs sha256={workloads.digest(items)} ({len(items)} instances, "
          f"{len(slots)} ops)")
    for name, (value, unit) in e2e.items():
        print(f"  {name:18s} {value:12.4f} {unit:5s} {notes.get(name, '')}")
    print(f"  {'fail_frac':18s} {failed / len(slots):12.4f} {'':5s} "
          f"{failed} of {len(slots)} ops")
    print(f"  calibration: {len(cals)} probes, median cal "
          f"{statistics.median(cals) * 1e3:.2f} ms, quartiles "
          + "/".join(f"{q * 1e3:.2f}" for q in statistics.quantiles(cals, n=4))
          + " ms")
    print(f"  setup: imports {t_imports:.3f} s + median of "
          f"{', '.join(f'{r:.3f}' for r in reps)} s at cal {setup_cal * 1e3:.2f} ms;"
          f" oracle work {verify_s:.2f} s")
    for s in slots:
        if s.error:
            print(f"  FAILED {s.item} delta={s.delta:.6g}: {s.error}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:26s} {value:14.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{wl}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"workload": wl, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "digest": workloads.digest(items),
                   "setup": {"imports_s": t_imports, "reps_s": reps,
                             "raw_s": setup_raw, "cal_s": setup_cal},
                   "verify_s": verify_s,
                   "probes": {"t_s": [t - T_START for t in clock.probe_t],
                              "cal_s": list(cals)},
                   "end_to_end": e2e, "metrics": metrics,
                   "ops": [asdict(s) for s in slots]},
                  fh, indent=1, default=float)
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": not any(s.wrong for s in slots),
                      "attempted": len(slots), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
