"""Nearest-neighbor profiles, fans, and the slab partition."""
import math
import random

import pytest

from geofrechet.driver import approx_optimize
from geofrechet.generators import gen_convex, gen_pocket, gen_simple
from geofrechet.geodesic import GeodesicEngine, get_engine
from geofrechet.geometry import build_instance
from geofrechet import nnprofile
from geofrechet.nnprofile import (EmptyFanLeaf, build_slabs, fan_leaf,
                                  nn_profile, nn_profile_reverse)
from geofrechet.oracle import frechet_bisect
from helpers import (max_value_reference, nn_point_reference,
                     nn_profile_bisect, nn_search_reference, random_instance)


def dense_nn(inst, x, samples=400):
    eng = get_engine(inst)
    p = tuple(inst.R.eval(x))
    best = (None, math.inf)
    for k in range(samples + 1):
        y = 1 + (inst.B.n - 1) * k / samples
        d = eng.distance(p, tuple(inst.B.eval(y)))
        if d < best[1]:
            best = (y, d)
    return best


@pytest.mark.parametrize("seed", range(5))
def test_profile_values_dominate_sampling(seed):
    """nn_at never exceeds the dense-sampling minimum (it may be smaller:
    the sampler's resolution is the only gap)."""
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    prof = nn_profile(inst)
    rng = random.Random(seed)
    for _ in range(25):
        x = rng.uniform(1, inst.R.n)
        y, v = prof.nn_at(x)
        ys, vs = dense_nn(inst, x)
        assert v <= vs + 1e-9
        assert v >= vs - 0.05  # sampling resolution bound


def test_regimes_cover_parameter_range():
    for seed in range(4):
        inst = gen_pocket(seed)
        prof = nn_profile(inst)
        assert prof.regimes[0][0] == pytest.approx(1.0)
        assert prof.regimes[-1][1] == pytest.approx(float(inst.R.n))
        for k in range(len(prof.regimes) - 1):
            assert prof.regimes[k][1] == pytest.approx(prof.regimes[k + 1][0], abs=1e-9)


def test_breakpoints_have_distinct_sides():
    inst = gen_pocket(0)
    prof = nn_profile(inst)
    for (x, y0, y1) in prof.breakpoints:
        assert abs(y1 - y0) > 1e-3


def test_x_for_target_inverts_profile():
    inst = gen_pocket(1)
    prof = nn_profile(inst)
    for (x0, x1, y0, y1) in prof.regimes:
        if y1 - y0 < 1e-6:
            continue
        y = 0.5 * (y0 + y1)
        x = prof.x_for_target(y)
        ygot, _ = prof.nn_at(x)
        assert ygot == pytest.approx(y, abs=1e-5)


@pytest.mark.parametrize("seed", range(5))
def test_fan_leaf_matches_dense_scan(seed):
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    eng = get_engine(inst)
    prof = nn_profile(inst)
    rng = random.Random(seed)
    for _ in range(6):
        x = rng.uniform(1, inst.R.n)
        y, v = prof.nn_at(x)
        delta = v + rng.uniform(0.05, 0.8)
        apex = tuple(inst.B.eval(y))
        fan = fan_leaf(inst, apex, x, delta)
        lo, hi = fan.leaf
        assert lo - 1e-9 <= x <= hi + 1e-9
        # interval points are free, points just outside are not
        for t in (lo, hi, 0.5 * (lo + hi)):
            d = eng.distance(tuple(inst.R.eval(t)), apex)
            assert d <= delta * (1 + 1e-9) + 1e-9
        step = 1e-4
        if lo > 1 + step:
            assert eng.distance(tuple(inst.R.eval(lo - step)), apex) > delta - 1e-9
        if hi < inst.R.n - step:
            assert eng.distance(tuple(inst.R.eval(hi + step)), apex) > delta - 1e-9


def test_fan_leaf_rejects_far_seed():
    inst = gen_pocket(0)
    prof = nn_profile(inst)
    y, v = prof.nn_at(1.5)
    with pytest.raises(ValueError):
        fan_leaf(inst, tuple(inst.B.eval(y)), 1.5, v * 0.1)


@pytest.mark.parametrize("seed", range(5))
def test_slabs_tile_and_alternate(seed):
    inst = gen_pocket(seed)
    prof = nn_profile(inst)
    delta = prof.max_value() * 1.3
    slabs = build_slabs(inst, prof, delta)
    assert slabs[0].y_lo == pytest.approx(1.0)
    assert slabs[-1].y_hi == pytest.approx(float(inst.B.n))
    for k in range(len(slabs) - 1):
        assert slabs[k].y_hi == pytest.approx(slabs[k + 1].y_lo, abs=1e-9)
        if slabs[k].kind == "far":
            assert slabs[k + 1].kind == "near"
    for s in slabs:
        assert s.kind in ("near", "far")
        assert s.entrance[0] <= s.entrance[1] + 1e-12
        assert s.exit[0] <= s.exit[1] + 1e-12


def test_far_slab_interiors_are_far(seed=0):
    """No y strictly inside a far slab appears as a nearest-neighbor image."""
    inst = gen_pocket(seed)
    prof = nn_profile(inst)
    delta = prof.max_value() * 1.2
    slabs = build_slabs(inst, prof, delta)
    images = [prof.nn_at(1 + (inst.R.n - 1) * k / 400)[0] for k in range(401)]
    for s in slabs:
        if s.kind != "far":
            continue
        for y in images:
            assert not (s.y_lo + 1e-6 < y < s.y_hi - 1e-6)


def test_small_delta_raises_empty_fan():
    inst = gen_pocket(2)
    prof = nn_profile(inst)
    with pytest.raises(EmptyFanLeaf):
        build_slabs(inst, prof, prof.max_value() * 1e-3)


def test_reverse_profile_swaps_roles():
    inst = gen_pocket(3)
    prof = nn_profile_reverse(inst)
    assert prof.regimes[-1][1] == pytest.approx(float(inst.B.n))
    y, v = prof.nn_at(1.0)
    assert v == pytest.approx(0.0, abs=1e-9)  # shared endpoint


def test_convex_profile_monotone_images():
    inst = gen_convex(10, 5)
    prof = nn_profile(inst)
    ys = [prof.nn_at(1 + (inst.R.n - 1) * k / 100)[0] for k in range(101)]
    for a, b in zip(ys, ys[1:]):
        assert b >= a - 1e-6


GENERATORS = [
    lambda s: gen_pocket(s),
    lambda s: gen_simple(s, spikes=1),
    lambda s: gen_simple(s, spikes=2),
    lambda s: gen_convex(12, s),
]


@pytest.mark.parametrize("make", GENERATORS,
                         ids=["pocket", "spikes1", "spikes2", "convex"])
@pytest.mark.parametrize("seed", range(3))
def test_max_value_matches_search_reference(make, seed):
    """The largest value the build evaluated is the maximum: within 1e-9
    relative of a golden-section search and never below it."""
    inst = make(seed)
    for prof in (nn_profile(inst), nn_profile_reverse(inst)):
        got, ref = prof.max_value(), max_value_reference(prof)
        assert got >= ref
        assert got <= ref * (1 + 1e-9)


def test_small_jump_across_vertex_is_a_breakpoint():
    """A 0.016 jump of the nearest point across the apex of a shallow roof
    (B vertex 4) is a breakpoint and opens a far slab."""
    inst = build_instance([(0, 0), (10, 0)],
                          [(0, 0), (0, 2), (4.3, 2), (5.3, 2.004), (6.3, 2),
                           (10, 2), (10, 0)])
    prof = nn_profile(inst)
    jumps = [(y0, y1) for (x, y0, y1) in prof.breakpoints
             if abs(x - 1.53) < 1e-6]
    assert len(jumps) == 1
    y0, y1 = jumps[0]
    assert y0 == pytest.approx(3.992, abs=1e-3)
    assert y1 == pytest.approx(4.008, abs=1e-3)
    dstar = frechet_bisect(inst, "geodesic", tol=1e-10)
    assert dstar == pytest.approx(2.004, abs=1e-6)
    slabs = build_slabs(inst, prof, 1.05 * dstar)
    assert any(s.kind == "far" and 3.99 < s.y_lo < s.y_hi < 4.01
               for s in slabs)
    for eps in (0.5, 0.1, 0.05):
        got = approx_optimize(inst, eps)
        assert dstar * (1 - 1e-6) <= got <= dstar * (1 + eps) * (1 + 1e-6)


@pytest.mark.parametrize("make", GENERATORS,
                         ids=["pocket", "spikes1", "spikes2", "convex"])
@pytest.mark.parametrize("seed", range(5))
def test_nn_point_matches_full_scan(make, seed):
    """Querying only the edges whose straight-line distance can still beat
    the best geodesic minimum finds the same point, distance and edge as a
    scan over every edge, vertices included."""
    inst = make(seed)
    for source, target in ((inst.R, inst.B), (inst.B, inst.R)):
        segs = nnprofile._segments(target)
        xs = [i + k / 8 for i in range(1, source.n) for k in range(8)]
        for x in xs + [float(source.n)]:
            assert nnprofile._nn_point(inst, source, target, segs, x) == \
                nn_point_reference(inst, source, target, x)


@pytest.mark.parametrize("make", GENERATORS,
                         ids=["pocket", "spikes1", "spikes2", "convex"])
def test_nn_search_edge_values(make):
    """The search's value for each target edge is the edge's geodesic
    minimum, or a lower bound of it where the edge was pruned."""
    inst = make(0)
    segs = nnprofile._segments(inst.B)
    for x in [i + k / 4 for i in range(1, inst.R.n) for k in range(4)]:
        near, g = nnprofile._nn_search(inst, inst.R, inst.B, segs, x)
        ref, minima = nn_search_reference(inst, inst.R, inst.B, x)
        assert near == ref and g[near[2] - 1] == near[1]
        assert all(v <= m * (1 + 1e-12) for v, m in zip(g, minima))


@pytest.mark.parametrize("make", GENERATORS + [lambda s: random_instance(s + 20)],
                         ids=["pocket", "spikes1", "spikes2", "convex", "random"])
@pytest.mark.parametrize("seed", range(3))
def test_dense_nearest_points_stay_in_their_regime(make, seed):
    """The profile starts from the source vertices only. At 16 points inside
    every source edge, the nearest target parameter lies in the y-range of
    the regime holding the point: no change of nearest edge went unseen."""
    inst = make(seed)
    for prof in (nn_profile(inst), nn_profile_reverse(inst)):
        for i in range(1, prof.source.n):
            for k in range(1, 17):
                x = i + k / 17
                y = nnprofile._nn_point(inst, prof.source, prof.target,
                                        prof.segs, x)[0]
                assert any(y0 - 1e-9 <= y <= y1 + 1e-9
                           for (x0, x1, y0, y1) in prof.regimes
                           if x0 <= x <= x1), (i, k, y)


def test_slab_boundary_fans_computed_once(monkeypatch):
    """A slab boundary is the exit of one slab and the entrance of the next;
    build_slabs computes the fan there once."""
    inst = gen_pocket(0)
    prof = nn_profile(inst)
    calls = []
    inner = nnprofile.fan_leaf

    def counted(inst, apex, seed_x, delta):
        calls.append(apex)
        return inner(inst, apex, seed_x, delta)

    monkeypatch.setattr(nnprofile, "fan_leaf", counted)
    slabs = build_slabs(inst, prof, prof.max_value() * 1.3)
    assert any(s.kind == "far" for s in slabs)
    ends = {y for s in slabs for y in (s.y_lo, s.y_hi)}
    assert len(calls) == len(ends)


def test_nn_point_tie_goes_to_smaller_parameter():
    """From the middle of R the two mirror-image edges 2 and 5 of B are
    equally near; the smaller parameter wins, as in the full scan."""
    inst = build_instance([(0, 0), (10, 0)],
                          [(0, 0), (1, 2), (3, 4), (5, 7), (7, 4), (9, 2),
                           (10, 0)])
    segs = nnprofile._segments(inst.B)
    got = nnprofile._nn_point(inst, inst.R, inst.B, segs, 1.5)
    assert got == nn_point_reference(inst, inst.R, inst.B, 1.5)
    assert got == (2.5, math.hypot(3, 3), 2)
    assert nn_profile(inst).nn_at(1.5) == (2.5, math.hypot(3, 3))


def _count_profile_calls(monkeypatch, inst):
    calls = [0]
    inner = GeodesicEngine.segment_profile

    def counted(self, *args):
        calls[0] += 1
        return inner(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(GeodesicEngine, "segment_profile", counted)
        nn_profile(inst)
    return calls[0]


def test_nn_profile_prunes_edge_queries(monkeypatch):
    """The profile queries far fewer target edges than a full scan does
    (981 against 10,493 segment profiles when this test was written)."""
    pruned = _count_profile_calls(monkeypatch, gen_simple(0, 48, spikes=1))
    monkeypatch.setattr(
        nnprofile, "_nn_search",
        lambda inst, source, target, segs, x:
            nn_search_reference(inst, source, target, x))
    full = _count_profile_calls(monkeypatch, gen_simple(0, 48, spikes=1))
    assert pruned < full / 4


@pytest.mark.parametrize("make", GENERATORS,
                         ids=["pocket", "spikes1", "spikes2", "convex"])
@pytest.mark.parametrize("seed", range(3))
def test_split_points_match_bisection(make, seed):
    """Interpolated split points find the breakpoints of midpoint
    bisection: the same count, positions within 2 * _BP_TOL and `top`
    within 1e-10 relative, in both directions."""
    inst = make(seed)
    for source, target in ((inst.R, inst.B), (inst.B, inst.R)):
        got = nnprofile._build_profile(inst, source, target)
        ref = nn_profile_bisect(inst, source, target)
        assert len(got.breakpoints) == len(ref.breakpoints)
        for (x, _, _), (xr, _, _) in zip(got.breakpoints, ref.breakpoints):
            assert abs(x - xr) <= 2 * nnprofile._BP_TOL
        assert got.top == pytest.approx(ref.top, rel=1e-10, abs=0)


def test_split_points_halve_nn_queries(monkeypatch):
    """On a spiked instance the build makes at most half the nearest-point
    queries of midpoint bisection (88 against 216 when this test was
    written)."""
    inst = gen_simple(0, 40, spikes=2)
    calls = [0]
    inner = nnprofile._nn_search

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(nnprofile, "_nn_search", counted)
    nnprofile._build_profile(inst, inst.R, inst.B)
    built, calls[0] = calls[0], 0
    nn_profile_bisect(inst, inst.R, inst.B)
    assert 2 * built <= calls[0]


def test_x_for_target_stops_where_floats_run_out():
    """Near x = 2**21 adjacent floats lie 4.7e-10 apart, wider than the
    1e-10 bisection width; the search returns there instead of looping."""
    x0 = 2.0 ** 21
    prof = nnprofile.NNProfile([], [(x0, x0 + 1.0, 0.0, 1.0)], 0.0,
                               None, None, None, [])
    prof.nn_at = lambda x: (x - x0, 0.0)
    x = prof.x_for_target(0.3)
    assert abs(x - (x0 + 0.3)) <= 1e-9
