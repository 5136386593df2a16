"""Exact convex-polygon Frechet matching."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geofrechet import convex, geometry
from geofrechet.convex import _points_at, convex_frechet, parallel_matching_cost, tangent_pairs
from geofrechet.generators import gen_convex
from geofrechet.geometry import build_instance
from geofrechet.oracle import freespace_decide, frechet_bisect

from helpers import convex_frechet_all_pairs, matching_cost_euclid


def test_square_split():
    inst = build_instance([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1), (1, 0)])
    match = convex_frechet(inst)
    assert match.cost == pytest.approx(1.0, abs=1e-9)
    assert match.check_bimonotone()


def test_degenerate_strip_zero():
    inst = build_instance([(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)])
    assert convex_frechet(inst).cost == pytest.approx(0.0, abs=1e-12)


def test_non_convex_rejected():
    R = [(-1, 1), (-1, -1), (1, -1)]
    B = [(-1, 1), (0, 1), (0, 0), (1, 0), (1, -1)]
    inst = build_instance(R, B)
    with pytest.raises(ValueError):
        convex_frechet(inst)


def test_tangent_pairs_structure():
    inst = gen_convex(12, 1)
    pairs = tangent_pairs(inst)
    assert pairs
    for tp in pairs:
        assert math.isfinite(tp.r_star[0]) and math.isfinite(tp.b_star[0])


@pytest.mark.parametrize("seed", range(30))
def test_cost_matches_oracle(seed):
    rng = random.Random(seed)
    inst = gen_convex(rng.randint(6, 40), seed)
    match = convex_frechet(inst)
    want = frechet_bisect(inst, "euclidean", tol=1e-10)
    assert match.cost == pytest.approx(want, abs=1e-6)
    assert match.check_bimonotone()


@pytest.mark.parametrize("seed", range(12))
def test_path_realizes_cost(seed):
    """Re-evaluating the emitted path at waypoints plus cell crossings
    reproduces the reported cost."""
    inst = gen_convex(14, seed + 50)
    match = convex_frechet(inst)
    realized = matching_cost_euclid(inst, [(p.x, p.y) for p in match.waypoints])
    assert realized == pytest.approx(match.cost, abs=1e-7)


def test_parallel_matching_cost_optional():
    inst = gen_convex(10, 2)
    pairs = tangent_pairs(inst)
    costs = [pm.cost for tp in pairs
             for pm in [parallel_matching_cost(inst, tp)] if pm is not None]
    assert costs
    assert min(costs) == pytest.approx(convex_frechet(inst).cost, abs=1e-9)


# -- exactness where the caliper sweep matters -------------------------------

def assert_exact(inst, cost):
    """cost = d_F up to a relative 1e-6, by two Euclidean free-space
    decisions."""
    assert freespace_decide(inst, "euclidean", cost * (1 + 1e-6))
    assert not freespace_decide(inst, "euclidean", cost * (1 - 1e-6))


def split_cycle(pts, k):
    """Counter-clockwise cycle pts split at vertices 0 and k: R runs
    counter-clockwise from pts[0] to pts[k], B clockwise."""
    return pts[:k + 1], [pts[0]] + pts[k:][::-1]


@pytest.mark.parametrize("n", [100, 150, 200, 300])
def test_ellipse_exact(n):
    rng = random.Random(n)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.0)
    pts = [(a * math.cos(t), b * math.sin(t)) for t in
           (2 * math.pi * (i + rng.uniform(0.1, 0.9)) / n for i in range(n))]
    inst = build_instance(*split_cycle(pts, rng.randint(n // 4, 3 * n // 4)))
    assert_exact(inst, convex_frechet(inst).cost)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (6, 2), (8, 4), (12, 5),
                                 (20, 10), (64, 32), (64, 17), (100, 50)])
def test_regular_even_polygon_exact(n, k):
    """Opposite edges are parallel, so antipodal contacts are edge-edge."""
    rot = 0.3 * k
    pts = [(math.cos(rot + 2 * math.pi * i / n), math.sin(rot + 2 * math.pi * i / n))
           for i in range(n)]
    inst = build_instance(*split_cycle(pts, k))
    assert_exact(inst, convex_frechet(inst).cost)


@pytest.mark.parametrize("k", [2, 5, 6, 9])
def test_collinear_vertices_exact(k):
    """A hexagon with every edge cut into three collinear pieces."""
    corners = [(math.cos(math.pi * i / 3), 0.6 * math.sin(math.pi * i / 3))
               for i in range(6)]
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        pts += [(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t) for t in (0.0, 0.25, 0.6)]
    inst = build_instance(*split_cycle(pts, k))
    assert_exact(inst, convex_frechet(inst).cost)


# -- metamorphic properties of the exact solver -----------------------------

convex_instances = st.builds(gen_convex, st.integers(min_value=6, max_value=40),
                             st.integers(min_value=0, max_value=10 ** 6))


def cost_of(R, B):
    return convex_frechet(build_instance(R, B)).cost


@settings(max_examples=40, deadline=None)
@given(convex_instances, st.floats(min_value=0.01, max_value=100.0))
@example(inst=gen_convex(9, 10571), s=35.0)  # a vertex level an ulp above c2
def test_scaling_multiplies_cost(inst, s):
    got = cost_of(inst.R.pts * s, inst.B.pts * s)
    assert got == pytest.approx(s * convex_frechet(inst).cost, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(convex_instances, st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_rigid_motion_keeps_cost(inst, angle, tx, ty):
    rot = np.array([[math.cos(angle), math.sin(angle)],
                    [-math.sin(angle), math.cos(angle)]])
    shift = np.array([tx, ty])
    got = cost_of(inst.R.pts @ rot + shift, inst.B.pts @ rot + shift)
    assert got == pytest.approx(convex_frechet(inst).cost, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(convex_instances)
def test_swap_and_reversal_keep_cost(inst):
    want = convex_frechet(inst).cost
    assert cost_of(inst.B.pts, inst.R.pts) == pytest.approx(want, rel=1e-9)
    assert cost_of(inst.R.pts[::-1], inst.B.pts[::-1]) == pytest.approx(want, rel=1e-9)


def test_points_at_matches_eval():
    """The array evaluation in the pair costs repeats PolyCurve.eval bit for
    bit."""
    rng = random.Random(7)
    for curve in (gen_convex(20, 3).R, gen_convex(9, 4).B):
        xs = [1.0, 2.0, float(curve.n)] + [rng.uniform(1, curve.n) for _ in range(50)]
        assert _points_at(curve, xs).tolist() == [list(curve.eval(x)) for x in xs]


# -- the pair bound that lets the solver skip pairs --------------------------

def regular_even_polygon(n, k):
    pts = [(math.cos(0.3 * k + 2 * math.pi * i / n), math.sin(0.3 * k + 2 * math.pi * i / n))
           for i in range(n)]
    return build_instance(*split_cycle(pts, k))


regular_instances = st.integers(min_value=2, max_value=50).flatmap(
    lambda h: st.builds(regular_even_polygon, st.just(2 * h),
                        st.integers(min_value=1, max_value=2 * h - 1)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(convex_instances, regular_instances))
def test_pair_bound_is_pair_cost(inst):
    """bound <= cost makes skipping the pairs whose bound reaches the best
    cost exact; cost <= bound is the affine-diameter identity: the parallel
    part costs exactly d*."""
    fans = convex._fan_maxima(inst)
    valid = 0
    for pair in tangent_pairs(inst):
        split = convex._split(inst, pair, fans)
        if split is None:
            continue
        valid += 1
        cost = convex._merge(inst, split).cost
        assert split.bound <= cost * (1 + 1e-12)
        assert cost <= split.bound * (1 + 1e-12)
    assert valid


def ellipse_instance(seed, n):
    """The convex benchmark workload's ellipse: n points at jittered even
    angles, split at a random vertex."""
    rng = random.Random(seed)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.0)
    pts = [(a * math.cos(t), b * math.sin(t)) for t in
           (2 * math.pi * (i + rng.uniform(0.1, 0.9)) / n for i in range(n))]
    return build_instance(*split_cycle(pts, rng.randint(n // 4, 3 * n // 4)))


@pytest.mark.parametrize("n,r", [(80, 0), (80, 1), (160, 0), (160, 1), (320, 0), (320, 1)])
def test_one_full_matching_on_ellipses(monkeypatch, n, r):
    """Only the pair with the lowest bound gets its full matching built."""
    merges = []
    merge = convex._merge

    def counted(inst, split):
        merges.append(split)
        return merge(inst, split)

    monkeypatch.setattr(convex, "_merge", counted)
    inst = ellipse_instance(1000 * n + r, n)
    assert convex_frechet(inst).cost > 0
    assert len(merges) == 1


def test_ellipses_take_the_fan(monkeypatch):
    """The workload ellipses are strictly convex: ear_clip returns its fan
    without testing a single point in a triangle."""
    calls = []
    inside = geometry._point_in_triangle
    monkeypatch.setattr(geometry, "_point_in_triangle",
                        lambda *a: calls.append(a) or inside(*a))
    for n in (80, 160, 320):
        for r in (0, 1):
            inst = ellipse_instance(1000 * n + r, n)
            v = len(inst.boundary)
            assert inst.triangles == [(v - 1, k, k + 1) for k in range(v - 3)] + [(v - 3, v - 2, v - 1)]
    assert not calls


def recorded_merges(solve, inst):
    """solve(inst) and the (bound, params) of every split it merged, in
    order."""
    merges = []
    merge = convex._merge

    def recorded(inst, split):
        merges.append((split.bound, split.params))
        return merge(inst, split)

    convex._merge = recorded
    try:
        return solve(inst), merges
    finally:
        convex._merge = merge


@settings(max_examples=60, deadline=None)
@given(st.one_of(convex_instances, regular_instances))
def test_best_first_matches_all_pairs(inst):
    """Splitting pairs in increasing d* merges the same splits in the same
    order as splitting them all and sorting by bound, ties included."""
    got, merged = recorded_merges(convex_frechet, inst)
    want, want_merged = recorded_merges(convex_frechet_all_pairs, inst)
    assert got.cost == want.cost
    assert got.waypoints == want.waypoints
    assert merged == want_merged


@pytest.mark.parametrize("n,r", [(80, 0), (80, 1), (160, 0), (160, 1), (320, 0), (320, 1)])
def test_ellipses_split_few_pairs(monkeypatch, n, r):
    """d* bounds a pair's cost from below, so the pairs whose d* reaches
    the best cost are never split."""
    split = convex._split
    seen = set()

    def counted(inst, pair, fans):
        seen.add(pair)
        return split(inst, pair, fans)

    inst = ellipse_instance(1000 * n + r, n)
    pairs = tangent_pairs(inst)
    monkeypatch.setattr(convex, "_split", counted)
    convex_frechet(inst)
    assert len(seen) <= 0.15 * len(pairs)
