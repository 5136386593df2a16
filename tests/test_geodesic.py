"""Geodesic engine: paths, distances, profiles, ray shooting."""
import math
import random

import pytest

from geofrechet.generators import gen_convex, gen_pocket, gen_simple
from geofrechet.geodesic import (edge_profile, geodesic_distance, get_engine,
                                 ray_shoot, shortest_path, threshold_crossings)
from geofrechet.geometry import build_instance

from helpers import (_boundary_segments, _point_seg_dist, dijkstra_geodesic,
                     inside_oracle, segment_profile_bisect)


def l_shape():
    # L-shaped hexagon; the inner corner (0,0) is the only reflex vertex
    R = [(-1, 1), (-1, -1), (1, -1)]
    B = [(-1, 1), (0, 1), (0, 0), (1, 0), (1, -1)]
    return build_instance(R, B)


def test_l_shape_bends_at_reflex_corner():
    inst = l_shape()
    path = shortest_path(inst, (-1, 1), (1, -1))
    assert path.length == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert any(abs(w[0]) < 1e-12 and abs(w[1]) < 1e-12 for w in path.waypoints)


def test_convex_distance_is_euclidean():
    inst = gen_convex(10, 3)
    rng = random.Random(0)
    pts = list(inst.R.pts) + list(inst.B.pts)
    for _ in range(20):
        p = tuple(pts[rng.randrange(len(pts))])
        q = tuple(pts[rng.randrange(len(pts))])
        assert geodesic_distance(inst, p, q) == pytest.approx(
            math.hypot(p[0] - q[0], p[1] - q[1]), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_distances_match_visibility_dijkstra(seed):
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=2)
    rng = random.Random(seed)
    pts = list(inst.R.pts) + list(inst.B.pts)
    for _ in range(15):
        x = rng.uniform(1, inst.R.n)
        y = rng.uniform(1, inst.B.n)
        p = tuple(inst.R.eval(x))
        q = tuple(inst.B.eval(y))
        want = dijkstra_geodesic(inst, p, q)
        assert geodesic_distance(inst, p, q) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_shared_point_distances_match_visibility_dijkstra(seed):
    """Points on a diagonal or at a vertex lie in several triangles; the
    sleeve must start and end at the right ones."""
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=2)
    rng = random.Random(seed)
    bd = [tuple(v) for v in inst.boundary]
    diagonals = {e for nbrs in inst.adjacency.values() for e in nbrs}
    shared = bd + [(0.37 * bd[i][0] + 0.63 * bd[j][0], 0.37 * bd[i][1] + 0.63 * bd[j][1])
                   for (i, j) in sorted(diagonals)]
    for _ in range(20):
        p = rng.choice(shared)
        q = rng.choice(shared + [tuple(inst.B.eval(rng.uniform(1, inst.B.n)))])
        want = dijkstra_geodesic(inst, p, q)
        assert geodesic_distance(inst, p, q) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_segment_profile_routes_agree(seed):
    """The funnel-merge profile equals the independent bisection route and
    direct point queries."""
    inst = gen_pocket(seed)
    eng = get_engine(inst)
    rng = random.Random(seed)
    pts = list(inst.R.pts) + list(inst.B.pts)
    for _ in range(12):
        src = tuple(pts[rng.randrange(len(pts))])
        C = inst.R if rng.random() < 0.5 else inst.B
        i = rng.randrange(1, C.n)
        a, b = tuple(C.pts[i - 1]), tuple(C.pts[i])
        pf = eng.segment_profile(src, a, b)
        pb = segment_profile_bisect(inst, src, a, b)
        for k in range(25):
            t = k / 24
            s = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
            direct = eng.distance(src, s)
            assert pf.eval(t) == pytest.approx(direct, abs=1e-7)
            assert pb.eval(t) == pytest.approx(direct, abs=1e-7)


def test_profile_unimodal_and_free_interval():
    inst = gen_pocket(1)
    eng = get_engine(inst)
    src = tuple(inst.B.pts[2])
    prof = eng.segment_profile(src, tuple(inst.R.pts[0]), tuple(inst.R.pts[1]))
    tmin, vmin = prof.minimum()
    assert vmin <= prof.eval(0.0) + 1e-12 and vmin <= prof.eval(1.0) + 1e-12
    # decreasing before the minimum, increasing after
    prev = prof.eval(0.0)
    for k in range(1, 21):
        t = k / 20 * tmin
        v = prof.eval(t)
        assert v <= prev + 1e-9
        prev = v
    delta = 0.5 * (vmin + max(prof.eval(0.0), prof.eval(1.0)))
    iv = prof.free_interval(delta)
    assert iv is not None and iv[0] <= tmin <= iv[1]
    for t in (iv[0], iv[1]):
        assert prof.eval(t) <= delta * (1 + 1e-9) + 1e-9
    assert prof.free_interval(vmin * 0.5 - 1e-6) is None or vmin < 1e-6


def test_edge_profile_and_crossings():
    inst = gen_pocket(2)
    prof = edge_profile(inst, tuple(inst.B.pts[1]), inst.R, 2)
    assert 2.0 <= prof.min_param <= 3.0
    assert prof.eval_at(prof.min_param) == pytest.approx(prof.min_value, abs=1e-9)
    delta = prof.min_value + 0.1
    for x in threshold_crossings(prof, delta):
        assert prof.eval_at(x) == pytest.approx(delta, abs=1e-6)
    with pytest.raises(ValueError):
        edge_profile(inst, tuple(inst.B.pts[1]), inst.R, 0)


def test_ray_shoot_unit_square():
    inst = build_instance([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1), (1, 0)])
    hit = ray_shoot(inst, (0.5, 0.5), (1, 0))
    assert (hit[0], hit[1]) == pytest.approx((1.0, 0.5))
    hit = ray_shoot(inst, (0.5, 0.5), (-1, -1))
    assert (hit[0], hit[1]) == pytest.approx((0.0, 0.0))
    with pytest.raises(ValueError):
        ray_shoot(inst, (0.5, 0.5), (0, 0))


def test_cache_order_independence():
    """Profile construction must not corrupt later distance queries."""
    a = gen_pocket(3)
    b = gen_pocket(3)
    rng = random.Random(3)
    queries = []
    for _ in range(10):
        x = rng.uniform(1, a.R.n)
        y = rng.uniform(1, a.B.n)
        queries.append((tuple(a.R.eval(x)), tuple(a.B.eval(y))))
    # b: profiles first, then distances; a: distances only
    for i in range(1, b.R.n):
        get_engine(b).segment_profile(tuple(b.B.pts[0]), b.R.pts[i - 1], b.R.pts[i])
    for (p, q) in queries:
        assert geodesic_distance(a, p, q) == pytest.approx(
            geodesic_distance(b, p, q), abs=1e-12)


def test_degenerate_strip_distance():
    inst = build_instance([(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)])
    assert geodesic_distance(inst, (0.5, 0), (1.5, 0)) == pytest.approx(1.0)


def _assert_rejected(inst, out, inside):
    with pytest.raises(ValueError, match="outside polygon"):
        shortest_path(inst, out, inside)
    with pytest.raises(ValueError, match="outside polygon"):
        shortest_path(inst, inside, out)
    with pytest.raises(ValueError, match="outside polygon"):
        geodesic_distance(inst, out, inside)
    with pytest.raises(ValueError, match="outside polygon"):
        geodesic_distance(inst, inside, out)
    with pytest.raises(ValueError, match="outside polygon"):
        ray_shoot(inst, out, (1.0, 0.3))


@pytest.mark.parametrize("seed", range(4))
def test_point_in_notch_rejected(seed):
    """A point inside the bounding box but in a notch outside a
    non-convex polygon, judged by the independent ray-casting oracle."""
    inst = gen_pocket(seed)
    assert not get_engine(inst).convex
    segs = _boundary_segments(inst)
    xs, ys = inst.boundary.T.tolist()
    grid = [(min(xs) + (max(xs) - min(xs)) * (i + 0.5) / 40,
             min(ys) + (max(ys) - min(ys)) * (j + 0.5) / 40)
            for i in range(40) for j in range(40)]
    notch = [g for g in grid if not inside_oracle(inst, g) and
             min(_point_seg_dist(g, a, b) for (a, b) in segs) > 1e-3]
    assert notch
    inside = tuple(inst.R.eval(1.5))
    shortest_path(inst, inside, tuple(inst.B.eval(1.5)))  # warm the caches
    for out in notch[:: max(1, len(notch) // 10)]:
        _assert_rejected(inst, out, inside)


def test_point_just_outside_convex_rejected():
    inst = gen_convex(10, 3)
    assert get_engine(inst).convex
    a, b = tuple(inst.R.pts[0]), tuple(inst.R.pts[1])
    mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    # unit normal of edge a-b pointing away from the polygon's interior
    nx, ny = b[1] - a[1], a[0] - b[0]
    L = math.hypot(nx, ny)
    nx, ny = nx / L, ny / L
    if inside_oracle(inst, (mid[0] + 0.1 * nx, mid[1] + 0.1 * ny), 0.0):
        nx, ny = -nx, -ny
    out = (mid[0] + 1e-4 * nx, mid[1] + 1e-4 * ny)
    assert not inside_oracle(inst, out)
    _assert_rejected(inst, out, mid)
    # the boundary point itself is accepted
    assert geodesic_distance(inst, mid, tuple(inst.B.pts[1])) > 0


def test_distance_just_past_reflex_vertex_goes_around_it():
    """A curve point 1e-10 along an edge from a reflex vertex is located in
    the triangles that hold it, not in those across the vertex, so its
    distance bends around the vertex as the edge's profile does."""
    inst = gen_simple(2, spikes=1)
    eng = get_engine(inst)
    anchor = (1.5368, -0.4449)
    for curve in (inst.R, inst.B):
        for i in range(1, curve.n):
            a, b = curve.pts[i - 1], curve.pts[i]
            prof = eng.segment_profile(anchor, a, b)
            step = 1e-10 / math.hypot(*(b - a))
            for t in (step, 1 - step):
                want = prof.eval(t)
                got = eng.distance(tuple(a + t * (b - a)), anchor)
                assert got == pytest.approx(want, rel=1e-12), (i, t)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
def test_location_tolerance_scales_with_the_polygon(scale):
    """Scaled about the origin, a boundary point is still located, and a
    point just outside a boundary edge is still rejected."""
    inst = gen_simple(2, spikes=1)
    big = build_instance((inst.R.pts * scale).tolist(),
                         (inst.B.pts * scale).tolist())
    eng = get_engine(big)
    inside = tuple(big.R.eval(1.5))
    for k, (a, b) in enumerate(_boundary_segments(big)):
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        assert eng.distance(mid, inside) >= 0
        nx, ny = b[1] - a[1], a[0] - b[0]  # outward: the cycle is CCW
        L = math.hypot(nx, ny)
        out = (mid[0] + 1e-6 * scale * nx / L, mid[1] + 1e-6 * scale * ny / L)
        if not inside_oracle(big, out, 0.0):
            _assert_rejected(big, out, inside)
