"""End-to-end geodesic Frechet decision and optimization."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofrechet import driver
from geofrechet.convex import convex_frechet
from geofrechet.driver import (approx_decide, approx_optimize, decision_chain,
                               geodesic_hausdorff)
from geofrechet.generators import gen_convex, gen_pocket, gen_simple
from geofrechet.geodesic import get_engine
from geofrechet.geometry import build_instance
from geofrechet import nnprofile
from geofrechet.nnprofile import nn_profile, nn_profile_reverse
from geofrechet.oracle import frechet_bisect, freespace_decide

from helpers import STRAIGHT_ANGLE_INPUTS, random_instance


def square():
    return build_instance([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1), (1, 0)])


def test_hausdorff_square():
    assert geodesic_hausdorff(square()) == pytest.approx(1.0, abs=1e-9)


def test_degenerate_zero():
    inst = build_instance([(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)])
    assert geodesic_hausdorff(inst) == pytest.approx(0.0, abs=1e-12)
    assert approx_optimize(inst, 0.1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_hausdorff_vs_dense_sampling(seed):
    """max_value dominates a dense sample of the exact per-point nearest
    distances (the supremum can only be larger than any finite sample)."""
    from geofrechet.nnprofile import nn_profile, nn_profile_reverse
    inst = gen_pocket(seed)
    got = geodesic_hausdorff(inst)
    pf, pr = nn_profile(inst), nn_profile_reverse(inst)
    N = 400
    h = max(max(pf.nn_at(1 + (inst.R.n - 1) * k / N)[1] for k in range(N + 1)),
            max(pr.nn_at(1 + (inst.B.n - 1) * k / N)[1] for k in range(N + 1)))
    assert got >= h - 1e-9
    assert got <= h + 0.02


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_hausdorff_is_the_larger_profile_top(seed):
    """geodesic_hausdorff leaves out the reverse brackets that cannot raise
    it and still equals the larger top of the two full profiles, bit for
    bit."""
    got = geodesic_hausdorff(random_instance(seed))
    inst = random_instance(seed)
    assert got == max(nn_profile(inst).top, nn_profile_reverse(inst).top)


def test_hausdorff_drops_reverse_brackets(monkeypatch):
    """On a spiked instance the Hausdorff bound drops reverse brackets and
    makes fewer nearest-point queries than the two full profiles."""
    calls, dropped = [0], [0]
    search, below = nnprofile._nn_search, nnprofile._bracket_below

    def counted_search(*args):
        calls[0] += 1
        return search(*args)

    def counted_below(*args):
        out = below(*args)
        dropped[0] += out
        return out

    monkeypatch.setattr(nnprofile, "_nn_search", counted_search)
    monkeypatch.setattr(nnprofile, "_bracket_below", counted_below)
    got = geodesic_hausdorff(gen_simple(0, 40, spikes=2))
    pruned, calls[0] = calls[0], 0
    inst = gen_simple(0, 40, spikes=2)
    assert got == max(nn_profile(inst).top, nn_profile_reverse(inst).top)
    assert dropped[0] > 0 and pruned < calls[0]


def test_square_decision_thresholds():
    inst = square()
    assert not approx_decide(inst, 0.5, 0.1)
    assert approx_decide(inst, 1.0, 0.1)
    assert approx_decide(inst, 2.0, 0.1)


def test_decision_chain_returns_monotone_waypoints():
    inst = gen_pocket(0)
    d = geodesic_hausdorff(inst) * 1.5
    ok, pts = decision_chain(inst, d, 0.25)
    assert ok
    for a, b in zip(pts, pts[1:]):
        assert b.x >= a.x - 1e-9 and b.y >= a.y - 1e-9


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_decide_sandwich(seed, eps):
    """YES at true distance, NO below Hausdorff, and both implications of
    the approximate decision hold against the free-space oracle."""
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    dstar = frechet_bisect(inst, "geodesic", tol=1e-8)
    for dfac in (0.6, 0.95, 1.0 + 1e-6, 1.5):
        d = dstar * dfac
        got = approx_decide(inst, d, eps)
        if freespace_decide(inst, "geodesic", d):
            assert got
        if got:
            assert freespace_decide(inst, "geodesic",
                                    d * (1 + eps) * (1 + 1e-9) + 1e-9)


def test_decide_monotone_in_delta():
    inst = gen_pocket(1)
    dstar = frechet_bisect(inst, "geodesic", tol=1e-8)
    answers = [approx_decide(inst, dstar * f, 0.25)
               for f in (0.5, 0.8, 1.0, 1.3, 2.0, 3.0)]
    seen_yes = False
    for a in answers:
        if seen_yes:
            assert a
        seen_yes = seen_yes or a
    assert answers[-1]


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.05])
def test_optimize_convex_agreement(eps):
    for seed in range(4):
        inst = gen_convex(12, seed)
        want = convex_frechet(inst).cost
        got = approx_optimize(inst, eps)
        assert want * (1 - 1e-6) <= got <= want * (1 + eps) * (1 + 1e-6)


@pytest.mark.parametrize("R,B", STRAIGHT_ANGLE_INPUTS)
def test_straight_angle_inputs_solved(R, B):
    """The polygons with a zero turn at the shared start build and are
    answered inside the window; the convex ones exactly."""
    inst = build_instance(R, B)
    want = frechet_bisect(inst, "geodesic", tol=1e-9)
    got = approx_optimize(inst, 0.1)
    assert want * (1 - 1e-6) <= got <= want * 1.1 * (1 + 1e-6)
    if inst.convex:
        exact = frechet_bisect(inst, "euclidean", tol=1e-10)
        assert convex_frechet(inst).cost == pytest.approx(exact, abs=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_optimize_vs_oracle(seed):
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    want = frechet_bisect(inst, "geodesic", tol=1e-9)
    for eps in (0.5, 0.1):
        got = approx_optimize(inst, eps)
        assert want * (1 - 1e-6) <= got <= want * (1 + eps) * (1 + 1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_optimize_decides_only_below_tripled_hausdorff(seed, monkeypatch):
    """d_F <= 3*d_H, so the grid point at or above 3*d_H is a YES without
    deciding it: every decision the search makes is below 3*d_H."""
    inst = random_instance(seed)
    deltas = []
    inner = driver.approx_decide

    def recorded(inst, delta, eps):
        deltas.append(delta)
        return inner(inst, delta, eps)

    monkeypatch.setattr(driver, "approx_decide", recorded)
    approx_optimize(inst, (0.5, 0.1, 0.05)[seed % 3])
    assert deltas
    assert max(deltas) < 3 * geodesic_hausdorff(inst)


def test_optimize_tight_eps_pocket():
    inst = gen_pocket(2)
    want = frechet_bisect(inst, "geodesic", tol=1e-9)
    got = approx_optimize(inst, 0.05)
    assert want * (1 - 1e-6) <= got <= want * 1.05 * (1 + 1e-6)


def test_optimize_clamped_to_hausdorff_window():
    for seed in range(5):
        inst = gen_pocket(seed)
        h = geodesic_hausdorff(inst)
        got = approx_optimize(inst, 0.5)
        assert h * (1 - 1e-9) <= got <= 3 * h * 1.5 * (1 + 1e-9)


def test_optimize_rejects_bad_eps():
    with pytest.raises(ValueError):
        approx_optimize(square(), 0.0)


# -- metamorphic properties of the optimizer ---------------------------------

# sweep-style instances (criterion 5's families) with n + m <= 16
sweep_instances = st.builds(random_instance, st.integers(min_value=0, max_value=10 ** 6),
                            st.just(16))
eps_values = st.sampled_from([0.5, 0.1, 0.05])


def optimize(R, B, eps):
    return approx_optimize(build_instance(R, B), eps)


@settings(max_examples=12, deadline=None)
@given(sweep_instances, eps_values, st.floats(min_value=0.01, max_value=100.0))
def test_optimize_scaling(inst, eps, s):
    got = optimize(inst.R.pts * s, inst.B.pts * s, eps)
    assert got == pytest.approx(s * approx_optimize(inst, eps), rel=1e-9)


@settings(max_examples=12, deadline=None)
@given(sweep_instances, eps_values, st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_optimize_rigid_motion(inst, eps, angle, tx, ty):
    rot = np.array([[math.cos(angle), math.sin(angle)],
                    [-math.sin(angle), math.cos(angle)]])
    shift = np.array([tx, ty])
    got = optimize(inst.R.pts @ rot + shift, inst.B.pts @ rot + shift, eps)
    assert got == pytest.approx(approx_optimize(inst, eps), rel=1e-9)


@settings(max_examples=12, deadline=None)
@given(sweep_instances, eps_values)
def test_optimize_swap_and_reversal(inst, eps):
    want = approx_optimize(inst, eps)
    assert optimize(inst.B.pts, inst.R.pts, eps) == pytest.approx(want, rel=1e-9)
    assert optimize(inst.R.pts[::-1], inst.B.pts[::-1], eps) == \
        pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 2, 7, 13, 18, 25, 39, 54])
def test_optimize_under_scaling(seed):
    """Scaled about the origin by 1e-5 the answer stays in the (1+eps)
    window of the unscaled d_F; scaled by 1e5 it is the unscaled answer."""
    inst = random_instance(seed, max_total=30)
    R, B = inst.R.pts, inst.B.pts
    eps = 0.1
    dstar = frechet_bisect(inst, "geodesic", tol=1e-10)
    small = approx_optimize(build_instance((R * 1e-5).tolist(),
                                           (B * 1e-5).tolist()), eps) / 1e-5
    assert dstar * (1 - 1e-6) <= small <= dstar * (1 + eps) * (1 + 1e-6)
    big = approx_optimize(build_instance((R * 1e5).tolist(),
                                         (B * 1e5).tolist()), eps) / 1e5
    assert big == pytest.approx(approx_optimize(inst, eps), rel=1e-9)
