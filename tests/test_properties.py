"""Randomized property suites and the structural invariant checks."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofrechet.generators import gen_random_1d
from geofrechet.oned import (Curve1D, GridPoint, frechet_matching_1d,
                             propagate_reachability)
from geofrechet.oracle import frechet_bisect

from helpers import (check_lower_envelope, check_matching_to_fan,
                     check_monotone_leaves, check_shortcutting,
                     check_snapping, random_instance,
                     reachable_points_bruteforce)


values = st.lists(st.floats(min_value=0.1, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(values, values)
def test_matching_cost_matches_oracle(rv, bv):
    r = Curve1D([-v for v in rv])
    b = Curve1D(bv)
    match = frechet_matching_1d(r, b)
    want = frechet_bisect((r, b), "oneD", tol=1e-10)
    assert match.cost == pytest.approx(want, abs=1e-8)
    assert match.check_bimonotone()


@settings(max_examples=40, deadline=None)
@given(values, values, st.floats(min_value=0.1, max_value=5.0))
def test_matching_scale_equivariance(rv, bv, s):
    r = Curve1D([-v for v in rv])
    b = Curve1D(bv)
    rs = Curve1D([-v * s for v in rv])
    bs = Curve1D([v * s for v in bv])
    assert frechet_matching_1d(rs, bs).cost == pytest.approx(
        s * frechet_matching_1d(r, b).cost, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(values, values)
def test_matching_cost_bounds(rv, bv):
    r = Curve1D([-v for v in rv])
    b = Curve1D(bv)
    cost = frechet_matching_1d(r, b).cost
    assert cost >= max(rv[0] + bv[0], rv[-1] + bv[-1]) - 1e-12
    assert cost <= max(rv) + max(bv) + 1e-12


@settings(max_examples=40, deadline=None)
@given(values, values, st.integers(min_value=0, max_value=10 ** 6))
def test_propagate_matches_bruteforce(rv, bv, salt):
    r = Curve1D([-v for v in rv])
    b = Curve1D(bv)
    rng = random.Random(salt)
    delta = r.a(rng.randint(1, r.n)) + b.a(rng.randint(1, b.n)) + rng.uniform(0, 2)
    free = [GridPoint(i, j) for i in range(1, r.n + 1)
            for j in range(1, b.n + 1) if r.a(i) + b.a(j) <= delta]
    if not free:
        return
    S = sorted({free[rng.randrange(len(free))] for _ in range(5)})
    E = sorted({free[rng.randrange(len(free))] for _ in range(5)})
    got = sorted(map(tuple, propagate_reachability(r, b, delta, S, E)))
    want = sorted(map(tuple, reachable_points_bruteforce(r, b, delta, S, E)))
    assert got == want


# -- structural invariant suites ------------------------------------------------

def test_invariant_shortcutting():
    viol = checks = 0
    for seed in range(12):
        inst = random_instance(seed)
        v, c = check_shortcutting(inst, random.Random(seed), trials=12)
        viol += v
        checks += c
    assert checks >= 20
    assert viol == 0


def test_invariant_lower_envelope():
    viol = checks = 0
    rng = random.Random(0)
    for seed in range(40):
        r, b = gen_random_1d(rng.randint(2, 10), rng.randint(2, 10), seed)
        delta = r.a(1) + b.a(1) + rng.uniform(0, 4)
        v, c = check_lower_envelope(r, b, delta)
        viol += v
        checks += c
    assert checks >= 40
    assert viol == 0


def test_invariant_matching_to_fan():
    viol = checks = 0
    for seed in range(8):
        inst = random_instance(seed, max_total=20)
        v, c = check_matching_to_fan(inst, samples_per_edge=5)
        viol += v
        checks += c
    assert checks >= 20
    assert viol == 0


def test_invariant_monotone_leaves():
    viol = checks = 0
    for seed in range(10):
        inst = random_instance(seed)
        v, c = check_monotone_leaves(inst)
        viol += v
        checks += c
    assert checks >= 30
    assert viol == 0


def test_invariant_snapping():
    viol = checks = 0
    for seed in range(20):
        inst = random_instance(seed)
        for eps in (0.5, 0.1):
            v, c = check_snapping(inst, eps, random.Random(seed), trials=25)
            viol += v
            checks += c
    assert checks >= 30
    assert viol == 0
