"""Tests of the benchmark itself: python -m pytest perfbench/tests"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from geofrechet import build_instance, generators  # noqa: E402
from geofrechet.geodesic import GeodesicEngine, get_engine  # noqa: E402


@pytest.mark.parametrize("n,p", [(1, 50), (19, 50), (20, 50), (40, 75),
                                 (100, 90), (200, 95), (1000, 99),
                                 (10000, 99.9)])
def test_tail_has_ten_samples_above(n, p):
    assert measure.tail_percentile(n) == p
    if n >= 20:
        assert measure.above(n, p) >= 10
    for q in measure.TAIL_LADDER:
        if q > p:
            assert measure.above(n, q) < 10


def test_percentile_is_a_smooth_median():
    xs = list(range(1, 21))
    assert measure.percentile(xs, 50) == pytest.approx(10.5)
    assert measure.percentile([3.0] * 7, 90) == pytest.approx(3.0)
    assert measure.percentile(xs, 75) < measure.percentile(xs, 95) < 20
    # swapping the two middle samples' ranks moves the estimate only a little
    lo = measure.percentile([1, 2, 3, 9.9, 10.1, 17, 18, 19], 50)
    hi = measure.percentile([1, 2, 3, 10.1, 10.1, 17, 18, 19], 50)
    assert abs(hi - lo) < 0.1
    assert measure.above(20, 50) == 10


def test_op_cal_is_the_harmonic_mean_of_nearby_probes():
    t = [0.1 * k for k in range(11)]
    cal = [0.02 if k < 5 else 0.01 for k in range(11)]
    # five probes inside the op: 0.3, 0.4 at 20 ms and 0.5..0.7 at 10 ms
    assert measure.op_cal(t, cal, 0.25, 0.75) == pytest.approx(5 / (2 / 0.02 + 3 / 0.01))
    # a short op takes the five probes nearest to its middle
    assert measure.op_cal(t, cal, 0.01, 0.02) == pytest.approx(0.02)
    assert measure.op_cal(t, cal, 0.98, 0.99) == pytest.approx(0.01)


def test_self_times_nested_and_reentrant():
    # op[0,10] > f[1,6] > f[2,4] (f re-entered) and g[4.5,5]; h[7,9]
    parents = [-1, 0, 1, 1, 0]
    starts = [0.0, 1.0, 2.0, 4.5, 7.0]
    ends = [10.0, 6.0, 4.0, 5.0, 9.0]
    selfs = spans.self_times(parents, starts, ends)
    assert selfs == pytest.approx([3.0, 2.5, 2.0, 0.5, 2.0])
    assert sum(selfs) == pytest.approx(ends[0] - starts[0])


def test_slope_and_largest():
    sizes = [8, 8, 16, 30, 32]
    values = [n ** 2.5 for n in sizes]
    assert measure.loglog_slope(sizes, values) == pytest.approx(2.5)
    assert measure.largest(sizes, values) == (
        pytest.approx((30 ** 2.5 + 32 ** 2.5) / 2), 2)


def _pocket():
    inst = generators.gen_pocket(3, 12)
    return build_instance(inst.R.pts, inst.B.pts)


def test_tracer_counts_a_distance_query_once():
    orig = GeodesicEngine.__dict__["distance"]
    tr = spans.Tracer()
    tr.install()
    try:
        inst = _pocket()
        p, q = tuple(inst.R.pts[1]), tuple(inst.B.pts[-2])
        with tr.op():
            eng = get_engine(inst)
            eng.distance(p, q)      # miss: distance -> shortest_path
            eng.distance(q, p)      # hit, same pair
            eng.segment_profile(p, inst.B.pts[1], inst.B.pts[2])
    finally:
        tr.uninstall()
    assert GeodesicEngine.__dict__["distance"] is orig
    m = spans.layer_metrics(tr, 1, 0.0)
    assert tr.calls[spans.DIST] == 2
    assert tr.calls[spans.PATH] >= 1
    # the delegated shortest_path is not a second query; the profile's
    # own apex queries are
    assert m["geodesic.path_calls"][0] == 2 + tr.calls[spans.PATH] - 1
    assert m["geodesic.path_distinct"][0] < m["geodesic.path_calls"][0]
    assert m["geodesic.profile_calls"][0] == 1
    # self times of all layers add up to the op span
    assert sum(tr.layer_self.values()) == pytest.approx(tr.incl[spans.OP])
    assert tr.layer_self["geodesic"] <= tr.incl[spans.OP]


def test_tracer_sees_calls_through_module_globals():
    tr = spans.Tracer()
    tr.install()
    try:
        inst = _pocket()
        import geofrechet
        with tr.op():
            geofrechet.approx_decide(inst, 10.0, 0.5)
    finally:
        tr.uninstall()
    # approx_decide -> decision_chain -> geodesic_hausdorff -> nn_profile
    for label in ("driver.approx_decide", "driver.decision_chain",
                  "driver.geodesic_hausdorff", "nnprofile.nn_profile",
                  "nnprofile.build_slabs"):
        assert tr.calls[label] >= 1, label


def test_digest_follows_the_seed():
    a = workloads.digest(workloads.make_items("mixed", 1, 3))
    b = workloads.digest(workloads.make_items("mixed", 1, 3))
    c = workloads.digest(workloads.make_items("mixed", 2, 3))
    assert a == b != c


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def test_traced_runs_repeat_their_counters():
    outs = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "ladder", "--seed", "5",
                    "--seconds", "2", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        outs.append((next(x for x in lines if x.startswith("inputs sha256=")),
                     json.loads(lines[-1])))
    (d1, r1), (d2, r2) = outs
    assert d1 == d2
    assert r1["correct"] and r1["failed"] == 0 and r1["attempted"] == 20
    assert set(r1["metrics"]) == set(r2["metrics"])
    counts = [k for k, v in r1["metrics"].items()
              if v["unit"] in ("count", "1/op")]
    assert len(counts) >= 15
    for k in counts + ["geodesic.repeat_frac", "farslab.decide_per_exit"]:
        assert r1["metrics"][k]["value"] == r2["metrics"][k]["value"], k
    assert r1["metrics"]["geodesic.path_calls"]["value"] > 0
    assert math.isfinite(r1["metrics"]["trace.overhead_frac"]["value"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "mixed", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
