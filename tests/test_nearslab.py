"""Transit exits and greedy advancement through near slabs."""
import random

import pytest

from geofrechet.generators import gen_pocket, gen_simple
from geofrechet.geodesic import edge_profile, get_engine
from geofrechet.nearslab import (TransitPoint, _exits_right_of, advance_near_slab,
                                 transit_exits_on_interval,
                                 transit_exits_on_segment)
from geofrechet.nnprofile import build_slabs, nn_profile
from geofrechet.geometry import ParamPoint, build_instance
from geofrechet.oracle import freespace_decide

from helpers import sub_instance


def square():
    return build_instance([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1), (1, 0)])


def test_segment_exits_at_most_three():
    inst = square()
    pts = transit_exits_on_segment(inst, 1, 2.5, (1.0, 2.0))
    assert 1 <= len(pts) <= 3
    xs = [tp.point.x for tp in pts]
    assert xs == sorted(xs)
    for tp in pts:
        assert tp.kind in ("vertex", "locally-closest")


def test_segment_exits_include_local_minimum():
    # apex above the middle of the bottom edge: interior closest point
    inst = square()
    pts = transit_exits_on_segment(inst, 1, 2.5, (1.0, 2.0))
    prof = edge_profile(inst, inst.B.eval(2.5), inst.R, 1)
    assert any(abs(tp.point.x - prof.min_param) <= 1e-9 for tp in pts)
    interior = [tp for tp in pts if tp.kind == "locally-closest"]
    assert len(interior) == 1


def test_segment_exits_disjoint_interval_raises():
    inst = build_instance([(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)],
                          [(0, 0), (0, 2), (3, 2), (3, 1)])
    with pytest.raises(ValueError):
        transit_exits_on_segment(inst, 1, 2.0, (2.5, 3.0))


def test_interval_exits_ordered_and_bounded():
    inst = gen_pocket(0)
    y = 1.0 + 0.5 * (inst.B.n - 1)
    lo, hi = 1.2, inst.R.n - 0.2
    pts = transit_exits_on_interval(inst, y, (lo, hi))
    xs = [tp.point.x for tp in pts]
    assert xs == sorted(xs)
    assert xs[0] == pytest.approx(lo, abs=1e-9)
    assert xs[-1] == pytest.approx(hi, abs=1e-9)
    # at most three candidates per covered edge
    assert len(pts) <= 3 * (inst.R.n - 1)
    for tp in pts:
        assert lo - 1e-9 <= tp.point.x <= hi + 1e-9


def _near_slab_cases(seed, dfac):
    inst = gen_pocket(seed) if seed % 2 == 0 else gen_simple(seed, spikes=1)
    prof = nn_profile(inst)
    delta = prof.max_value() * dfac
    slabs = build_slabs(inst, prof, delta)
    return inst, delta, [s for s in slabs if s.kind == "near"]


@pytest.mark.parametrize("seed", range(6))
def test_advance_picks_leftmost_exit(seed):
    inst, delta, slabs = _near_slab_cases(seed, 1.4)
    rng = random.Random(seed)
    for slab in slabs:
        e_lo, e_hi = slab.entrance
        x0 = rng.uniform(e_lo, e_hi)
        ent = TransitPoint(ParamPoint(x0, slab.y_lo), "vertex")
        got = advance_near_slab(inst, slab, ent, delta)
        cands = [tp for tp in transit_exits_on_interval(inst, slab.y_hi, slab.exit)
                 if tp.point.x >= x0 - 1e-12]
        if not cands:
            assert got is None
        else:
            assert got is not None
            assert got.point.x == pytest.approx(cands[0].point.x, abs=1e-12)
            assert got.point.y == pytest.approx(slab.y_hi)


def test_advance_stuck_when_entrance_past_exit():
    inst, delta, slabs = _near_slab_cases(0, 1.4)
    slab = slabs[0]
    ent = TransitPoint(ParamPoint(slab.exit[1] + 0.5, slab.y_lo), "vertex")
    if ent.point.x <= inst.R.n:
        assert advance_near_slab(inst, slab, ent, delta) is None


def test_advance_requires_near_slab():
    inst, delta, _ = _near_slab_cases(0, 1.4)
    prof = nn_profile(inst)
    far = [s for s in build_slabs(inst, prof, delta) if s.kind == "far"]
    if far:
        ent = TransitPoint(ParamPoint(far[0].entrance[0], far[0].y_lo), "vertex")
        with pytest.raises(ValueError):
            advance_near_slab(inst, far[0], ent, delta)


@pytest.mark.parametrize("seed", range(6))
def test_exit_is_free_and_reachable(seed):
    """The chosen exit lies in free space and the sub-instance between the
    entrance and exit admits a monotone matching at delta (oracle check)."""
    inst, delta, slabs = _near_slab_cases(seed, 1.5)
    eng = get_engine(inst)
    for slab in slabs[:3]:
        x0 = slab.entrance[0]
        ent = TransitPoint(ParamPoint(x0, slab.y_lo), "vertex")
        got = advance_near_slab(inst, slab, ent, delta)
        if got is None:
            continue
        d = eng.distance(tuple(inst.R.eval(got.point.x)),
                         tuple(inst.B.eval(got.point.y)))
        assert d <= delta * (1 + 1e-9) + 1e-9
        Rhat = inst.R.subcurve(x0, got.point.x)
        Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
        sub = sub_instance(inst, Rhat, Bhat)
        assert freespace_decide(sub, "geodesic", delta * (1 + 1e-9) + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_exit_not_left_of_any_reachable_exit(seed):
    """No transit exit strictly left of the chosen one is oracle-reachable
    from the entrance."""
    inst, delta, slabs = _near_slab_cases(seed, 1.3)
    for slab in slabs[:2]:
        x0 = slab.entrance[0]
        ent = TransitPoint(ParamPoint(x0, slab.y_lo), "vertex")
        got = advance_near_slab(inst, slab, ent, delta)
        if got is None:
            continue
        for tp in transit_exits_on_interval(inst, slab.y_hi, slab.exit):
            if tp.point.x >= got.point.x - 1e-9 or tp.point.x < x0 - 1e-12:
                continue
            Rhat = inst.R.subcurve(x0, tp.point.x)
            Bhat = inst.B.subcurve(slab.y_lo, slab.y_hi)
            sub = sub_instance(inst, Rhat, Bhat)
            assert not freespace_decide(sub, "geodesic", delta * (1 - 1e-9))


@pytest.mark.parametrize("seed", range(4))
def test_lazy_exits_match_the_full_list(seed):
    """Exits generated from the edge before the entrance are those of the
    full list at or right of the entrance, for entrances at every exit,
    every vertex and points 1e-13 to either side of them."""
    rng = random.Random(seed)
    for inst in (gen_pocket(seed), gen_simple(seed, spikes=1)):
        prof = nn_profile(inst)
        n = inst.R.n
        for slab in build_slabs(inst, prof, prof.max_value() * 1.3):
            full = transit_exits_on_interval(inst, slab.y_hi, slab.exit)
            xs = [tp.point.x for tp in full] + [float(i) for i in range(1, n + 1)]
            xs += [rng.uniform(1, n) for _ in range(4)]
            for x in xs:
                for x0 in (x - 1e-13, x, x + 1e-13):
                    want = [tp for tp in full if tp.point.x >= x0 - 1e-12]
                    assert list(_exits_right_of(inst, slab.y_hi, slab.exit, x0)) == want
