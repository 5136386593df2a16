"""Instance construction, curves, and serialization."""
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geofrechet import geometry
from geofrechet.generators import gen_convex, gen_pocket
from geofrechet.geodesic import get_engine
from geofrechet.geometry import (MatchingPath, ParamPoint, PolyCurve, _merge_duplicates,
                                 boundary_params, build_instance, ear_clip,
                                 instance_from_json_dict, instance_to_json_dict,
                                 is_convex_cycle)

from helpers import (STRAIGHT_ANGLE_INPUTS, convex_flag_reference, ear_clip_reference,
                     merge_duplicates_reference, perfbench_workloads, random_instance,
                     reference_build_instance)


SQUARE_R = [(0, 0), (1, 0)]
SQUARE_B = [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_square_split_builds():
    inst = build_instance(SQUARE_R, SQUARE_B)
    assert inst.n == 2 and inst.m == 4
    assert not inst.degenerate
    assert inst.area() == pytest.approx(1.0)


def test_boundary_is_ccw_cycle():
    inst = build_instance(SQUARE_R, SQUARE_B)
    pts = np.asarray(inst.boundary)
    x, y = pts[:, 0], pts[:, 1]
    area2 = float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert area2 > 0


def test_shared_endpoints_required():
    with pytest.raises(ValueError):
        build_instance([(0, 0), (1, 0)], [(0, 0.5), (0, 1), (1, 1), (1, 0)])


def test_crossing_curves_rejected():
    with pytest.raises(ValueError):
        build_instance([(0, 0), (2, 2)], [(0, 0), (2, 0), (0, 2), (2, 2)])


def test_degenerate_strip_accepted():
    inst = build_instance([(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)])
    assert inst.degenerate
    assert inst.area() == pytest.approx(0.0)


@pytest.mark.parametrize("j", [-30, 30])
def test_strips_recognized_at_any_scale(j):
    s = 2.0 ** j
    for R, B in (([(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)]),
                 ([(1, 1), (4, 5)], [(1, 1), (2.5, 3), (4, 5)])):
        assert build_instance(np.array(R) * s, np.array(B) * s).degenerate


def test_tiny_polygons_are_no_strips():
    """A polygon scaled by 2^-30 falls below the area floor of build_instance,
    but its vertices lie off the endpoint chord relative to the chord's
    length, so it is rejected rather than answered as a strip."""
    for inst in (perfbench_workloads().sweep_instance(25), gen_convex(7, 2)):
        s = 2.0 ** -30
        with pytest.raises(ValueError, match="degenerate"):
            build_instance(inst.R.pts * s, inst.B.pts * s)


def test_curve_eval_and_clamp():
    c = PolyCurve([(0, 0), (1, 0), (1, 2)])
    assert tuple(c.eval(1.5)) == (0.5, 0.0)
    assert tuple(c.eval(3.0)) == (1.0, 2.0)
    with pytest.raises(ValueError):
        c.eval(0.0)
    with pytest.raises(ValueError):
        c.eval(99)


def test_subcurve_vertices():
    c = PolyCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
    s = c.subcurve(1.5, 3.0)
    assert s.n == 3
    assert tuple(s.pts[0]) == (0.5, 0.0)
    assert tuple(s.pts[-1]) == (2.0, 0.0)
    point = c.subcurve(2.0, 2.0)
    assert point.n == 1


def test_is_simple():
    assert PolyCurve([(0, 0), (1, 0), (1, 1)]).is_simple()
    assert not PolyCurve([(0, 0), (2, 2), (2, 0), (0, 2)]).is_simple()


def test_matching_path_bimonotone():
    good = MatchingPath([ParamPoint(1, 1), ParamPoint(2, 1), ParamPoint(2, 3)], 0.0)
    assert good.check_bimonotone()
    bad = MatchingPath([ParamPoint(1, 1), ParamPoint(2, 3), ParamPoint(1.5, 3)], 0.0)
    assert not bad.check_bimonotone()


def test_json_round_trip():
    inst = build_instance(SQUARE_R, SQUARE_B)
    d = instance_to_json_dict(inst)
    inst2 = instance_from_json_dict(d)
    assert np.allclose(inst.R.pts, inst2.R.pts)
    assert np.allclose(inst.B.pts, inst2.B.pts)


def test_triangulation_covers_area():
    inst = build_instance(SQUARE_R, SQUARE_B)
    total = 0.0
    bd = inst.boundary
    for (a, b, c) in inst.triangles:
        pa, pb, pc = bd[a], bd[b], bd[c]
        total += 0.5 * abs((pb[0] - pa[0]) * (pc[1] - pa[1]) -
                           (pb[1] - pa[1]) * (pc[0] - pa[0]))
    assert total == pytest.approx(inst.area())


# -- validation and triangulation against the all-pairs references ----------

grid_point = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def grid_polylines(draw):
    """Two polylines on a small integer grid sharing both endpoints: they
    self-cross, touch, overlap collinearly and share endpoints often."""
    s, e = draw(grid_point), draw(grid_point)
    R = [s] + draw(st.lists(grid_point, max_size=6)) + [e]
    B = [s] + draw(st.lists(grid_point, max_size=6)) + [e]
    return R, B


@st.composite
def star_polygons(draw):
    """A star-shaped polygon rounded to the integer grid (collinear and
    touching vertices happen), split into R and B at two vertices."""
    k = draw(st.integers(4, 24))
    radii = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    pts = [(round(r * math.cos(2 * math.pi * i / k)), round(r * math.sin(2 * math.pi * i / k)))
           for i, r in enumerate(radii)]
    cut = draw(st.integers(1, k - 1))
    return pts[:cut + 1], [pts[0]] + pts[cut:][::-1]


def build_outcome(build, R, B):
    try:
        inst = build(R, B)
    except ValueError as exc:
        return str(exc)
    return inst.triangles, inst.degenerate


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_polylines(), star_polygons()))
@example(([(0, 0), (2, 0)], [(0, 0), (1, 0), (1, 1), (2, 0)]))           # touching at (1, 0)
@example(([(0, 0), (3, 0)], [(0, 0), (1, 0), (2, 0), (2, 1), (3, 0)]))   # collinear overlap
@example(([(0, 0), (2, 2), (4, 0)], [(0, 0), (2, 0), (2, 2), (4, 0)]))   # shared vertex
@example(([(0, 0), (2, 2)], [(0, 0), (2, 0), (0, 2), (2, 2)]))           # self-crossing
def test_build_matches_pairwise_references(curves):
    R, B = curves
    assert build_outcome(build_instance, R, B) == build_outcome(reference_build_instance, R, B)


def test_boundary_winding_twice_is_rejected():
    """Every turn of this boundary is to the left, but it winds around
    twice, so it is not simple and gets no convex fan."""
    R, B = [(1, 0), (1, 1)], [(1, 0), (0, 0), (1, 1), (1, 0), (0, 0), (1, 1)]
    with pytest.raises(ValueError, match="triangulation failed"):
        build_instance(R, B)
    assert build_outcome(build_instance, R, B) == \
        build_outcome(reference_build_instance, R, B)


@pytest.mark.parametrize("R,B", STRAIGHT_ANGLE_INPUTS)
def test_straight_angle_is_no_ear(R, B):
    """A vertex with a zero turn is no ear: clipping it would add no
    triangle. The triangles have positive areas that add up to the
    polygon's, and the build matches the all-pairs references."""
    inst = build_instance(R, B)
    bd = inst.boundary
    areas = [0.5 * geometry.orient(bd[a], bd[b], bd[c]) for a, b, c in inst.triangles]
    assert len(areas) == len(bd) - 2 and min(areas) > 0
    assert sum(areas) == pytest.approx(inst.area(), rel=1e-12)
    assert build_outcome(build_instance, R, B) == build_outcome(reference_build_instance, R, B)


@pytest.mark.parametrize("seed", range(8))
def test_ear_clip_matches_reference(seed):
    """Collinear runs, and triangles below the orientation tolerance, make
    ears that stay blocked until another ear is clipped."""
    rng = random.Random(seed)
    w = 2 + seed
    stairs = [(x, 0) for x in range(w + 1)] + [(x, rng.randint(1, 4)) for x in range(w, -1, -1)]
    tiny = gen_pocket(seed, 12).boundary * 1e-6 + 3.0
    for poly in (np.array(stairs, dtype=float), tiny):
        assert ear_clip(poly) == ear_clip_reference(poly)


@st.composite
def strictly_convex_polygons(draw):
    """Strictly convex CCW polygons: thin ellipses with axis ratio down to
    1e-6, or unit circles with vertices 1e-15 to 1e-6 outside an edge,
    scaled by 1e-6 to 1e6 and translated by up to 1e3."""
    n = draw(st.integers(3, 30))
    jitter = draw(st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n))
    pts = [(math.cos(2 * math.pi * (i + j) / n), math.sin(2 * math.pi * (i + j) / n))
           for i, j in enumerate(jitter)]
    if draw(st.booleans()):
        ratio = 10 ** draw(st.floats(-6, 0))
        pts = [(x, ratio * y) for x, y in pts]
    else:
        bulged = []
        for i, (x0, y0) in enumerate(pts):
            x1, y1 = pts[(i + 1) % n]
            bulged.append((x0, y0))
            if draw(st.booleans()):
                t, off = draw(st.floats(0.2, 0.8)), 10 ** draw(st.floats(-15, -6))
                length = math.hypot(x1 - x0, y1 - y0)
                bulged.append((x0 + t * (x1 - x0) + off * (y1 - y0) / length,
                               y0 + t * (y1 - y0) - off * (x1 - x0) / length))
        pts = bulged
    s = 10 ** draw(st.floats(-6, 6))
    tx, ty = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    poly = np.array([(s * x + tx, s * y + ty) for x, y in pts])
    assume(len(np.unique(poly, axis=0)) == len(poly))
    return poly


@settings(max_examples=300, deadline=None)
@given(strictly_convex_polygons())
def test_ear_clip_fan_matches_reference(poly):
    """Where every turn clears the error margin ear_clip returns the fan
    without clipping; elsewhere the loop runs. Both give the reference's
    triangles."""
    assert ear_clip(poly) == ear_clip_reference(poly)


@pytest.mark.parametrize("seed", range(6))
def test_boundary_params_locate_vertices(seed):
    """Every vertex of R and of B sits at the boundary index that carries its
    parameter, whichever way build_instance had to turn the cycle."""
    base = gen_pocket(seed, 12)
    for inst in (base, build_instance(base.B.pts, base.R.pts),
                 build_instance([(0, 0)], [(0, 0), (1, 0), (0, 1), (0, 0)][::1 - 2 * (seed % 2)])):
        rpar, bpar = boundary_params(inst)
        for curve, par in ((inst.R, rpar), (inst.B, bpar)):
            # a closed curve's last vertex is its first
            assert set(range(1, curve.n)) <= set(par)
            for k, p in enumerate(par):
                if p is not None:
                    assert tuple(inst.boundary[k]) == curve.vertex(p)


# -- the convexity flag --------------------------------------------------------

def near_collinear_polygons(rng):
    """Rectangles of side 1-1e4, some translated by 1e6, with vertices
    inserted on every edge and pushed off it by 0-1e-11 of the side
    either way: their turns sit in orient's fsum band, and some of them
    turn clockwise by more than 1e-12."""
    out = []
    for side in (1.0, 100.0, 1e4):
        for shift in (0.0, 1e6):
            for _ in range(10):
                corners = [(0.0, 0.0), (side, 0.0), (side, 0.7 * side), (0.0, 0.7 * side)]
                pts = []
                for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
                    nx, ny = (y1 - y0) / side, (x0 - x1) / side  # outward unit normal
                    pts.append((x0 + shift, y0))
                    for t in (0.25, 0.5, 0.75):
                        off = side * rng.choice((0.0, 1e-16, 1e-13, 1e-11)) * rng.choice((-1, 1))
                        pts.append((x0 + (x1 - x0) * t + off * nx + shift, y0 + (y1 - y0) * t + off * ny))
                out.append(np.array(pts))
    return out


def test_convex_flag_matches_orient_loop(monkeypatch):
    """is_convex_cycle gives the flag of the orient() loop it replaced, on
    the sweep instances, random convex polygons, the workload ellipses and
    near-collinear boundaries where orient takes its fsum branch."""
    workloads = perfbench_workloads()
    polys = [random_instance(s, max_total=30).boundary for s in range(200)]
    polys += [gen_convex(random.Random(s).randint(6, 40), s).boundary for s in range(200)]
    polys += [build_instance(item.R, item.B).boundary
              for item in workloads.make_items("convex", 1, 20)]
    for poly in polys:
        assert is_convex_cycle(poly) == convex_flag_reference(poly)
    near = []
    orient = geometry.orient
    monkeypatch.setattr(geometry, "orient", lambda *a: near.append(a) or orient(*a))
    flags = set()
    for poly in near_collinear_polygons(random.Random(11)):
        flags.add(is_convex_cycle(poly))
        assert is_convex_cycle(poly) == convex_flag_reference(poly)
    assert near and flags == {True, False}


def test_engine_reads_instance_flag():
    for inst in (gen_convex(12, 3), gen_pocket(2)):
        assert get_engine(inst).convex is inst.convex


# -- merging repeated vertices -------------------------------------------------

@pytest.mark.parametrize("pts", [
    [(0, 0), (0, 0), (0, 0), (1, 0), (2, 1)],        # a run at the start
    [(0, 0), (1, 0), (1, 0), (1, 0), (2, 1)],        # in the middle
    [(0, 0), (1, 0), (2, 1), (2, 1)],                # at the end
    [(0.0, 1.0), (-0.0, 1.0), (1.0, 1.0)],           # -0.0 equals 0.0
    [(-0.0, 1.0), (0.0, 1.0), (1.0, -0.0), (1.0, 0.0)],
    [(3.0, 4.0)],
    [(3.0, 4.0)] * 5,
])
def test_merge_duplicates_matches_loop(pts):
    """Each run of equal vertices keeps its first, signed zeros included."""
    got = _merge_duplicates(PolyCurve(pts)).pts
    want = np.array(merge_duplicates_reference(pts))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_build_merges_repeated_vertices():
    """build_instance on curves with repeated vertices gives the instance
    of the curves merged by the loop, and of the curves without repeats:
    on the sweep instances and every workload instance of seed 1."""
    workloads = perfbench_workloads()
    curves = [(inst.R.pts.tolist(), inst.B.pts.tolist())
              for inst in (random_instance(s, max_total=30) for s in range(200))]
    curves += [(item.R, item.B) for wl in ("mixed", "grow", "ladder", "convex")
               for item in workloads.make_items(wl, 1, 20)]
    rng = random.Random(5)

    def repeated(pts):
        return [p for p in pts for _ in range(rng.choice((1, 1, 2, 3)))]

    for R, B in curves:
        R2, B2 = repeated(R), repeated(B)
        got = build_instance(R2, B2)
        for want in (build_instance(PolyCurve(merge_duplicates_reference(R2)),
                                    PolyCurve(merge_duplicates_reference(B2))),
                     build_instance(R, B)):
            assert got.boundary.tobytes() == want.boundary.tobytes()
            assert got.triangles == want.triangles
            assert got.adjacency == want.adjacency
