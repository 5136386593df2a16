"""Separator anchors, gates, snapped spaces, and far-slab decisions."""
import math
import random

import pytest

from geofrechet import farslab
from geofrechet.farslab import (_HitParams, _Snap, build_gate_sets,
                                build_separator_anchors, far_decide,
                                far_find_exit, snapped_curves)
from geofrechet.generators import gen_pocket, gen_simple
from geofrechet.geodesic import DIST_TOL, _ray_hit, get_engine, shortest_path
from geofrechet.geometry import ParamPoint, build_instance
from geofrechet.nearslab import TransitPoint, transit_exits_on_interval
from geofrechet.nnprofile import build_slabs, nn_profile
from geofrechet.oracle import frechet_bisect, freespace_decide

from helpers import far_find_exit_reference, param_on_curve_reference, sub_instance


def strip():
    # tall thin rectangle: separators are vertical chords
    return build_instance([(0, 0), (1, 0)], [(0, 0), (0, 3), (1, 3), (1, 0)])


def test_anchor_spacing_example():
    inst = strip()
    A = build_separator_anchors(inst, (0.0, 1.8), (0.0, 0.0), 1.0, 0.5)
    assert A is not None
    # L = 1.8, eps*delta = 0.5 -> K = 4 intervals, 5 anchors, spacing 0.45
    assert A.K == 4 and len(A.anchors) == 5
    for p, q in zip(A.anchors, A.anchors[1:]):
        assert math.dist(p, q) == pytest.approx(0.45, abs=1e-9)
    assert tuple(A.anchors[0]) == pytest.approx((0.0, 1.8))
    assert tuple(A.anchors[-1]) == pytest.approx((0.0, 0.0))


def test_anchor_single_interval_when_endpoints_close():
    inst = strip()
    A = build_separator_anchors(inst, (0.5, 0.0), (0.5, 0.0), 1.0, 0.5)
    assert A is not None and A.K == 1


def test_anchor_too_long_returns_none():
    inst = strip()
    assert build_separator_anchors(inst, (0.0, 3.0), (0.0, 0.0), 1.0, 0.5) is None
    assert build_separator_anchors(inst, (0.0, 3.0), (0.0, 0.0), 1.51, 0.5) is not None


def test_anchor_rejects_bad_eps():
    inst = strip()
    with pytest.raises(ValueError):
        build_separator_anchors(inst, (0.0, 1.0), (0.0, 0.0), 1.0, 0.0)


def test_anchors_lie_on_separator():
    inst = gen_pocket(0)
    eng = get_engine(inst)
    b1 = tuple(inst.B.eval(1.3))
    b2 = tuple(inst.B.eval(1.8))
    d = eng.distance(b1, b2)
    A = build_separator_anchors(inst, b1, b2, d, 0.25)
    assert A is not None
    for p in A.anchors:
        assert eng.distance(b1, tuple(p)) + eng.distance(tuple(p), b2) == \
            pytest.approx(d, abs=1e-6)


def test_gate_sets_size_bound():
    inst = gen_pocket(1)
    Rhat = inst.R.subcurve(1.0, float(inst.R.n))
    Bhat = inst.B.subcurve(1.2, 1.9)
    eng = get_engine(inst)
    b1, b2 = tuple(Bhat.pts[0]), tuple(Bhat.pts[-1])
    d = eng.distance(b1, b2)
    A = build_separator_anchors(inst, b1, b2, max(d, 0.5), 0.5)
    assert A is not None
    gates = build_gate_sets(inst, Rhat, Bhat, A)
    assert len(gates) == A.K - 1
    for g in gates:
        assert len(g.points) <= 4 * (Rhat.n + Bhat.n)
        for p in g.points:
            assert 1.0 - 1e-9 <= p.x <= Rhat.n + 1e-9
            assert 1.0 - 1e-9 <= p.y <= Bhat.n + 1e-9


def test_snapped_identity():
    """|r(x) - b(y)| equals d(R(x), a) + d(a, B(y)) for the sampled knots."""
    inst = gen_pocket(2)
    eng = get_engine(inst)
    Rhat = inst.R.subcurve(1.0, float(inst.R.n))
    Bhat = inst.B.subcurve(1.1, 2.4)
    anchor = tuple(inst.B.eval(1.7))
    r, b = snapped_curves(inst, Rhat, Bhat, anchor)
    assert r.side == "left" and b.side == "right"
    for i in range(1, r.n + 1):
        assert r.values[i - 1] <= 0
    for j in range(1, b.n + 1):
        assert b.values[j - 1] >= 0
    # vertex knots: compare against direct geodesics
    for i in range(1, Rhat.n + 1):
        d = eng.distance(tuple(Rhat.pts[i - 1]), anchor)
        assert any(abs(-v - d) < 1e-9 or (d < 1e-12 and -v <= 1e-11)
                   for v in r.values)


def test_snapped_extrema_match_sampling():
    inst = gen_pocket(3)
    eng = get_engine(inst)
    Rhat = inst.R.subcurve(1.0, float(inst.R.n))
    anchor = tuple(inst.B.eval(1.5))
    r, _ = snapped_curves(inst, Rhat, inst.B.subcurve(1.4, 1.6), anchor)
    samples = [eng.distance(tuple(Rhat.eval(1 + (Rhat.n - 1) * k / 600)), anchor)
               for k in range(601)]
    assert max(-v for v in r.values) == pytest.approx(max(samples), abs=1e-6)
    assert min(-v for v in r.values) <= min(samples) + 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_snapped_values_are_anchor_distances(seed):
    """Every extra parameter comes back exactly, and every sampled value is
    the geodesic distance from the curve point to the anchor, on whole and
    partial curves with anchors on the separator."""
    rng = random.Random(seed)
    for inst in (gen_pocket(seed), gen_simple(seed, spikes=1)):
        eng = get_engine(inst)
        n, m = inst.R.n, inst.B.n
        x0, x1 = sorted(rng.uniform(1, n) for _ in range(2))
        y0, y1 = sorted(rng.uniform(1, m) for _ in range(2))
        for Rhat, Bhat in ((inst.R, inst.B),
                           (inst.R.subcurve(x0, x1), inst.B.subcurve(y0, y1))):
            b1, b2 = tuple(Bhat.pts[0]), tuple(Bhat.pts[-1])
            d = max(eng.distance(b1, b2), 1e-3)
            A = build_separator_anchors(inst, b1, b2, d, 0.25)
            assert A is not None
            for anchor in A.anchors:
                for curve in (Rhat, Bhat):
                    xs0, _ = _Snap(inst, curve, anchor).samples()
                    s = xs0[rng.randrange(len(xs0))]
                    near = s + 1e-10 if s + 1e-10 <= curve.n else s - 1e-10
                    extra = ([rng.uniform(1, curve.n) for _ in range(3)] +
                             [float(i) for i in range(1, curve.n + 1)] + [near])
                    xs, vals = _Snap(inst, curve, anchor).samples(extra)
                    assert xs == sorted(xs) and len(vals) == len(xs)
                    assert set(extra) <= set(xs)
                    for x, v in zip(xs, vals):
                        # abs: the engine's distance slack DIST_TOL
                        want = eng.distance(tuple(curve.eval(x)), tuple(anchor))
                        assert v == pytest.approx(want, rel=1e-9, abs=DIST_TOL)


@pytest.mark.parametrize("seed", range(4))
def test_snapped_chords_dominate_anchor_distances(seed):
    """Between consecutive snapped samples the linear interpolation stays at
    or above the geodesic distance to the anchor, so snapped free space is
    never larger than the true one."""
    for inst in (gen_pocket(seed), gen_simple(seed, spikes=1),
                 gen_simple(seed, spikes=2)):
        eng = get_engine(inst)
        b1, b2 = tuple(inst.B.pts[0]), tuple(inst.B.pts[-1])
        d = max(eng.distance(b1, b2), 1e-3)
        A = build_separator_anchors(inst, b1, b2, d, 0.25)
        assert A is not None
        for anchor in A.anchors:
            for curve in (inst.R, inst.B):
                xs, vals = _Snap(inst, curve, anchor).samples()
                for (xa, va), (xb, vb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
                    for f in (0.25, 0.5, 0.75):
                        chord = va + f * (vb - va)
                        # abs: the engine's distance slack DIST_TOL
                        want = eng.distance(tuple(curve.eval(xa + f * (xb - xa))),
                                            tuple(anchor))
                        assert chord >= want * (1 - 1e-9) - DIST_TOL


def far_instances():
    out = []
    for seed in range(8):
        inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
        prof = nn_profile(inst)
        delta = prof.max_value() * 1.3
        for s in build_slabs(inst, prof, delta):
            if s.kind == "far" and s.y_hi > s.y_lo + 1e-6:
                out.append((inst, s, delta))
    return out


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_far_decide_sandwich(eps):
    """YES at delta implies far_decide YES; far_decide YES implies YES at
    (1+eps)*delta. Oracle: geodesic free-space decision on the sub-instance."""
    cases = far_instances()
    assert cases
    rng = random.Random(7)
    checked = 0
    for (inst, slab, delta) in cases[:6]:
        for dfac in (0.8, 1.0, 1.6):
            d = delta * dfac
            x1 = min(slab.entrance[0] + rng.uniform(0, 1.0), float(inst.R.n))
            Rhat = inst.R.subcurve(slab.entrance[0], max(x1, slab.entrance[0]))
            Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
            got = far_decide(inst, Rhat, Bhat, d, eps)
            sub = sub_instance(inst, Rhat, Bhat)
            if freespace_decide(sub, "geodesic", d):
                assert got
            if got:
                assert freespace_decide(sub, "geodesic",
                                        d * (1 + eps) * (1 + 1e-9) + 1e-9)
            checked += 1
    assert checked >= 10


def test_far_decide_rejects_bad_eps():
    inst = gen_pocket(0)
    with pytest.raises(ValueError):
        far_decide(inst, inst.R, inst.B, 1.0, -0.5)


def test_separator_soundness():
    """Whenever the true sub-instance Frechet distance is at most delta the
    separator is never classified too long."""
    for (inst, slab, delta) in far_instances()[:5]:
        Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
        Rhat = inst.R.subcurve(slab.entrance[0],
                               min(slab.entrance[0] + 0.7, float(inst.R.n)))
        sub = sub_instance(inst, Rhat, Bhat)
        d = frechet_bisect(sub, "geodesic", tol=1e-8)
        A = build_separator_anchors(inst, tuple(Bhat.pts[0]), tuple(Bhat.pts[-1]),
                                    d * (1 + 1e-6), 0.5)
        assert A is not None


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_far_find_exit_bracketed(eps):
    """The returned exit is free at (1+eps)*delta and no oracle-reachable
    transit exit at delta lies strictly left of it."""
    eng = None
    for (inst, slab, delta) in far_instances()[:5]:
        eng = get_engine(inst)
        x0 = slab.entrance[0]
        ent = TransitPoint(ParamPoint(x0, slab.y_lo), "vertex")
        got = far_find_exit(inst, slab, ent, delta, eps)
        exits = [tp for tp in transit_exits_on_interval(inst, slab.y_hi, slab.exit)
                 if tp.point.x >= x0 - 1e-12]
        # oracle: leftmost exit reachable at delta
        best = None
        for tp in exits:
            Rhat = inst.R.subcurve(x0, tp.point.x)
            Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
            if freespace_decide(sub_instance(inst, Rhat, Bhat), "geodesic", delta):
                best = tp.point.x
                break
        if best is not None:
            assert got is not None
            assert got.point.x <= best + 1e-9
        if got is not None:
            Rhat = inst.R.subcurve(x0, got.point.x)
            Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
            assert freespace_decide(sub_instance(inst, Rhat, Bhat), "geodesic",
                                    delta * (1 + eps) * (1 + 1e-9) + 1e-9)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.05])
def test_far_find_exit_matches_fresh_probes(eps):
    """Probes that share one crossing of B-hat return the transit exit that
    a fresh far_decide per probe returns."""
    found = missed = 0
    for (inst, slab, delta) in far_instances():
        ent = TransitPoint(ParamPoint(slab.entrance[0], slab.y_lo), "vertex")
        for f in (0.6, 0.8, 1.0, 1.3):
            got = far_find_exit(inst, slab, ent, delta * f, eps)
            assert got == far_find_exit_reference(inst, slab, ent, delta * f, eps)
            found += got is not None
            missed += got is None
    assert found and missed


def test_shared_gate_sets_match_fresh_ones():
    """Gate sets that a crossing builds for one R-hat after other R-hat
    and other anchors have filled its shared state equal those
    build_gate_sets builds from nothing for that anchor alone."""
    checked = 0
    for (inst, slab, delta) in far_instances():
        Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
        A = build_separator_anchors(inst, Bhat.pts[0], Bhat.pts[-1], delta, 0.1)
        if A is None or A.K < 3:
            continue
        crossing = farslab._Crossing(inst, Bhat, A)
        x0 = slab.entrance[0]
        for tp in _exit_candidates(inst, slab):
            Rhat = inst.R.subcurve(x0, max(tp.point.x, x0))
            hits = farslab._HitParams(inst, Rhat)
            for k in range(1, A.K):
                window = farslab.AnchorSet(A.separator, A.anchors[k - 1:k + 2], 2)
                assert crossing.gate_set(Rhat, hits, k) == \
                    build_gate_sets(inst, Rhat, Bhat, window)[0]
            checked += 1
    assert checked >= 10


def test_far_decide_builds_gates_as_it_reaches_them(monkeypatch):
    """Each anchor interval the propagation enters builds the gate set at
    its far end, and the last interval builds none, so a decision that
    dies early builds fewer than the K - 1 gate sets of its anchors."""
    seen = {"K": 0, "candidates": 0, "intervals": 0}
    anchors, cands, prop = (farslab.build_separator_anchors,
                            farslab._gate_candidates, farslab._propagate_space)

    def counted(key, fn, count=lambda out: 1):
        def inner(*a):
            out = fn(*a)
            seen[key] += count(out)
            return out
        return inner

    monkeypatch.setattr(farslab, "build_separator_anchors",
                        counted("K", anchors, lambda A: A.K if A else 0))
    monkeypatch.setattr(farslab, "_gate_candidates", counted("candidates", cands))
    monkeypatch.setattr(farslab, "_propagate_space", counted("intervals", prop))
    early = 0
    for (inst, slab, delta) in far_instances():
        Rhat = inst.R.subcurve(slab.entrance[0], float(inst.R.n))
        Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
        for f in (0.6, 0.8, 1.0):
            seen.update(dict.fromkeys(seen, 0))
            far_decide(inst, Rhat, Bhat, delta * f, 0.1)
            K, entered = seen["K"], seen["intervals"]
            # one _gate_candidates call per curve and gate set
            assert seen["candidates"] == 2 * max(min(entered, K - 1), 0)
            early += K >= 3 and entered < K - 1
    assert early >= 1


def _exit_candidates(inst, slab):
    x0 = slab.entrance[0]
    return [tp for tp in transit_exits_on_interval(inst, slab.y_hi, slab.exit)
            if tp.point.x >= x0 - 1e-12]


def test_far_find_exit_probe_order(monkeypatch):
    """With a decision that passes from candidate t on, every t gets
    candidate t back (None past the last), the probes start 0, 1, 2, 4,
    ..., then the last index, and no index is probed twice."""
    inst, slab, delta = next(c for c in far_instances()
                             if len(_exit_candidates(c[0], c[1])) >= 8)
    x0 = slab.entrance[0]
    cands = _exit_candidates(inst, slab)
    index = {tuple(map(float, inst.R.eval(max(tp.point.x, x0)))): k
             for k, tp in enumerate(cands)}
    assert len(index) == len(cands)
    last = len(cands) - 1
    gallop = [0] + [2 ** j for j in range(last.bit_length())]
    gallop += [last] if gallop[-1] < last else []
    entrance = TransitPoint(ParamPoint(x0, slab.y_lo), "vertex")
    for t in range(last + 2):
        probes = []

        def stub(crossing, Rhat, thr):
            probes.append(index[tuple(map(float, Rhat.pts[-1]))])
            return probes[-1] >= t

        monkeypatch.setattr(farslab._Crossing, "reaches", stub)
        got = far_find_exit(inst, slab, entrance, delta, 0.1)
        if t > last:
            assert got is None
        else:
            assert got.point == cands[t].point
        assert len(probes) == len(set(probes))
        first = [k for k in gallop if k < t] + [k for k in gallop if k >= t][:1]
        assert probes[:len(first)] == first


def test_far_find_exit_requires_far_slab():
    inst = gen_pocket(0)
    prof = nn_profile(inst)
    delta = prof.max_value() * 1.4
    near = [s for s in build_slabs(inst, prof, delta) if s.kind == "near"]
    ent = TransitPoint(ParamPoint(near[0].entrance[0], near[0].y_lo), "vertex")
    with pytest.raises(ValueError):
        far_find_exit(inst, near[0], ent, delta, 0.5)


@pytest.mark.parametrize("seed", range(4))
def test_hit_params_match_full_scan(seed):
    """A ray hit looked up only on the curve edges at the ends of the hit
    boundary segment, and on the first and last edge, gets the parameter a
    scan over every edge gets, on whole curves and on subcurves."""
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    eng = get_engine(inst)
    rng = random.Random(seed)
    n, m = inst.R.n, inst.B.n
    curves = [inst.R, inst.B, inst.R.subcurve(1.0, 1.0)]
    for _ in range(4):
        x0, x1 = sorted(rng.uniform(1, n) for _ in range(2))
        y0, y1 = sorted(rng.uniform(1, m) for _ in range(2))
        curves += [inst.R.subcurve(x0, x1), inst.B.subcurve(y0, y1),
                   inst.R.subcurve(float(int(x0)), x1), inst.B.subcurve(y0, float(m))]
    lookups = [(c, _HitParams(inst, c)) for c in curves]
    origins = []
    for _ in range(6):
        w = shortest_path(inst, tuple(inst.R.eval(rng.uniform(1, n))),
                          tuple(inst.B.eval(rng.uniform(1, m)))).waypoints
        origins.append(((w[0][0] + w[1][0]) / 2, (w[0][1] + w[1][1]) / 2))
    hits = 0
    for o in origins:
        dirs = [(math.cos(a), math.sin(a))
                for a in (2 * math.pi * k / 24 for k in range(24))]
        dirs += [(v[0] - o[0], v[1] - o[1]) for v in inst.boundary.tolist()]
        for d in dirs:
            if math.hypot(*d) < 1e-9:
                continue
            try:
                hit, k = _ray_hit(inst, o, d)
            except ValueError:  # an origin on the boundary, looking out
                continue
            hits += 1
            for c, lookup in lookups:
                assert lookup.param(hit, k) == param_on_curve_reference(c, hit)
    assert hits > 100
