"""Layer tracing from outside the library.

`Tracer.install` wraps the library's public layer entry points (and the
query methods of `GeodesicEngine` and `NNProfile`) in every geofrechet
module namespace that binds them, so calls made through module globals
are seen too. While a timed op runs, each wrapped call records a span
(label, start, end, parent) and the counters taken at that boundary. At
the end of the op the spans are folded into per-label call counts and
inclusive times and per-layer self times, then dropped, so memory stays
bounded by the spans of one op.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Wrapped boundaries per layer: (module, class or None, attribute). Every
# public entry point of a layer is wrapped, not only those behind a metric,
# so that self time lands in the layer that does the work.
TARGETS = {
    "geometry": [("geometry", None, "build_instance")],
    "geodesic": [("geodesic", None, f) for f in (
        "get_engine", "shortest_path", "geodesic_distance", "edge_profile",
        "ray_shoot", "threshold_crossings")] +
                [("geodesic", "GeodesicEngine", f) for f in (
                    "shortest_path", "distance", "segment_profile")],
    "nnprofile": [("nnprofile", None, f) for f in (
        "nn_profile", "nn_profile_reverse", "fan_leaf", "build_slabs")] +
                 [("nnprofile", "NNProfile", f) for f in (
                     "max_value", "nn_at", "x_for_target")],
    "nearslab": [("nearslab", None, f) for f in (
        "transit_exits_on_segment", "transit_exits_on_interval",
        "advance_near_slab")],
    "farslab": [("farslab", None, f) for f in (
        "build_separator_anchors", "build_gate_sets", "snapped_curves",
        "far_decide", "far_find_exit")],
    "oned": [("oned", None, f) for f in (
        "frechet_matching_1d", "build_greedy_forest",
        "bichromatic_intersections", "propagate_reachability")],
    "convex": [("convex", None, f) for f in (
        "convex_frechet", "tangent_pairs", "parallel_matching_cost")],
    "driver": [("driver", None, f) for f in (
        "geodesic_hausdorff", "decision_chain", "approx_decide",
        "approx_optimize")],
}

OP = "bench.op"
PATH = "geodesic.GeodesicEngine.shortest_path"
DIST = "geodesic.GeodesicEngine.distance"


def label_of(module: str, owner, attr: str) -> str:
    return ".".join(p for p in (module, owner, attr) if p)


def layer_of(label: str) -> str:
    return label.split(".", 1)[0]


def self_times(parents, starts, ends):
    """Per-span self time: duration minus the time its direct children
    cover. Children of one span never overlap (one thread), so their
    durations add up."""
    child = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(parents))]


def _point(p):
    return (float(p[0]), float(p[1]))


def _observe_query(tr, idx, args, out):
    # distance() delegates to shortest_path() on a miss: count it once
    if tr.labels[tr.lab[idx]] == PATH and tr.par[idx] >= 0 and \
            tr.labels[tr.lab[tr.par[idx]]] == DIST:
        return
    a, b = _point(args[1]), _point(args[2])
    tr.counters["path_calls"] += 1
    tr.pairs.add((id(args[0]),) + (a + b if a <= b else b + a))


def _observe_slabs(tr, idx, args, out):
    for slab in out:
        tr.counters[slab.kind + "_slabs"] += 1


def _observe_anchors(tr, idx, args, out):
    if out:
        tr.counters["anchors"] += out.K


def _observe_pairs(tr, idx, args, out):
    tr.counters["pairs"] += len(out)


OBSERVERS = {
    PATH: _observe_query,
    DIST: _observe_query,
    "nnprofile.build_slabs": _observe_slabs,
    "farslab.build_separator_anchors": _observe_anchors,
    "convex.tangent_pairs": _observe_pairs,
}


class Tracer:
    def __init__(self):
        self.on = False
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.counters: Counter = Counter()
        self.pairs: set = set()
        self._restore: list = []
        self._reset_spans()

    def _reset_spans(self):
        self.lab = array("i")
        self.par = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, lid: int) -> int:
        idx = len(self.lab)
        self.lab.append(lid)
        self.par.append(self.stack[-1])
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, label: str, fn):
        lid = self._id(label)
        observe = OBSERVERS.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, idx, args, out)
            return out
        return wrapper

    def install(self):
        """Wrap every target in each geofrechet namespace binding it."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "geofrechet" or name.startswith("geofrechet.")]
        for targets in TARGETS.values():
            for module, owner, attr in targets:
                mod = sys.modules["geofrechet." + module]
                label = label_of(module, owner, attr)
                if owner is not None:
                    cls = getattr(mod, owner)
                    orig = cls.__dict__[attr]
                    self._restore.append((cls, attr, orig))
                    setattr(cls, attr, self.wrap(label, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.wrap(label, orig)
                for m in mods:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, name, orig))
                            setattr(m, name, wrapped)

    def uninstall(self):
        for obj, name, orig in reversed(self._restore):
            setattr(obj, name, orig)
        self._restore.clear()

    def new_instance(self):
        """Distinct query pairs are counted per instance."""
        self.counters["path_distinct"] += len(self.pairs)
        self.pairs.clear()

    @contextmanager
    def op(self):
        """Trace one timed op; spans are folded in when it ends."""
        self._reset_spans()
        root = self._open(self._id(OP))
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self._close(root)
            self._fold()

    def _fold(self):
        selfs = self_times(self.par, self.t0, self.t1)
        for i, lid in enumerate(self.lab):
            label = self.labels[lid]
            self.calls[label] += 1
            self.incl[label] += self.t1[i] - self.t0[i]
            self.layer_self[layer_of(label)] += selfs[i]
        self._reset_spans()


def layer_metrics(tr: Tracer, n_ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    tr.new_instance()
    c, calls, incl = tr.counters, tr.calls, tr.incl
    path_calls = c["path_calls"]
    exits = calls["farslab.far_find_exit"]
    return {
        "geometry.build_s": (incl["geometry.build_instance"], "s"),
        "geometry.build_calls": (calls["geometry.build_instance"], "count"),
        "geodesic.self_s": (tr.layer_self["geodesic"], "s"),
        "geodesic.path_calls": (path_calls, "count"),
        "geodesic.path_distinct": (c["path_distinct"], "count"),
        "geodesic.profile_calls": (calls["geodesic.GeodesicEngine.segment_profile"], "count"),
        "geodesic.ray_calls": (calls["geodesic.ray_shoot"], "count"),
        "geodesic.repeat_frac": (1 - c["path_distinct"] / path_calls if path_calls else 0.0, "ratio"),
        "nnprofile.build_s": (incl["nnprofile.nn_profile"] + incl["nnprofile.nn_profile_reverse"], "s"),
        "nnprofile.max_s": (incl["nnprofile.NNProfile.max_value"], "s"),
        "nnprofile.nn_at_calls": (calls["nnprofile.NNProfile.nn_at"], "count"),
        "nnprofile.slabs_s": (incl["nnprofile.build_slabs"], "s"),
        "nnprofile.fan_calls": (calls["nnprofile.fan_leaf"], "count"),
        "nnprofile.near_slabs": (c["near_slabs"], "count"),
        "nnprofile.far_slabs": (c["far_slabs"], "count"),
        "nearslab.advance_calls": (calls["nearslab.advance_near_slab"], "count"),
        "nearslab.self_s": (tr.layer_self["nearslab"], "s"),
        "farslab.exit_calls": (exits, "count"),
        "farslab.exit_s": (incl["farslab.far_find_exit"], "s"),
        "farslab.decide_calls": (calls["farslab.far_decide"], "count"),
        "farslab.decide_per_exit": (calls["farslab.far_decide"] / exits if exits else 0.0, "ratio"),
        "farslab.anchors": (c["anchors"], "count"),
        "farslab.gate_s": (incl["farslab.build_gate_sets"], "s"),
        "farslab.self_s": (tr.layer_self["farslab"], "s"),
        "oned.propagate_calls": (calls["oned.propagate_reachability"], "count"),
        "oned.propagate_s": (incl["oned.propagate_reachability"], "s"),
        "convex.pairs": (c["pairs"], "count"),
        "convex.tangent_s": (incl["convex.tangent_pairs"], "s"),
        "convex.cost_calls": (calls["convex.parallel_matching_cost"], "count"),
        "convex.cost_s": (incl["convex.parallel_matching_cost"], "s"),
        "driver.decide_calls": (calls["driver.approx_decide"] / n_ops if n_ops else 0.0, "1/op"),
        "driver.hausdorff_s": (incl["driver.geodesic_hausdorff"], "s"),
        "driver.op_s": (incl[OP], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
