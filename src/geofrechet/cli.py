"""Command-line front end.

Subcommands: compute, decide, convex, oned, propagate, oracle, gen,
render. JSON is the interchange format; every run prints a RunReport,
a batch one per file. Exit codes, the worst over a batch: 0 success,
1 infeasible input or validation failure, 2 malformed input or flags.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .geometry import build_instance, instance_from_json_dict, instance_to_json_dict
from .oned import Curve1D, GridPoint, frechet_matching_1d, propagate_reachability
from .convex import convex_frechet
from .driver import approx_decide, approx_optimize, decision_chain, geodesic_hausdorff
from .oracle import frechet_bisect
from . import generators


class InputError(Exception):
    """Malformed file or flags (exit 2)."""


@dataclass
class RunReport:
    command: str
    input: Optional[str]  # content digest; None when the file cannot be read
    parameters: dict = field(default_factory=dict)
    result: object = None
    wall_ms: float = 0.0  # from before loading the input to the result
    error: Optional[str] = None

    def to_json(self) -> str:
        out = {
            "command": self.command,
            "input": self.input,
            "parameters": self.parameters,
            "result": self.result,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.error is not None:
            out["error"] = self.error
        return json.dumps(out)


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), _digest(raw)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _load_instance(path: str):
    data, dig = _load_json(path)
    if not isinstance(data, dict) or "R" not in data or "B" not in data:
        raise InputError(f"{path}: expected an object with R and B")
    return instance_from_json_dict(data), dig


def _load_1d(path: str, need_sets: bool = False):
    data, dig = _load_json(path)
    if not isinstance(data, dict) or "R" not in data or "B" not in data:
        raise InputError(f"{path}: expected an object with R and B")
    try:
        r = Curve1D([float(v) for v in data["R"]])
        b = Curve1D([float(v) for v in data["B"]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad 1D curves: {exc}") from exc
    if not need_sets:
        return (r, b), dig
    try:
        S = [GridPoint(int(i), int(j)) for (i, j) in data["S"]]
        E = [GridPoint(int(i), int(j)) for (i, j) in data["E"]]
        delta = float(data["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: propagate input needs S, E, delta") from exc
    return (r, b, delta, S, E), dig


def _seed(args) -> int:
    env = os.environ.get("GEOFRECHET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"GEOFRECHET_SEED not an integer: {env}") from exc
    return args.seed


# -- single-file runners ---------------------------------------------------

def _run_compute(path: str, eps: float) -> RunReport:
    t0 = time.perf_counter()
    inst, dig = _load_instance(path)
    val = approx_optimize(inst, eps)
    return RunReport("compute", dig, {"epsilon": eps}, {"distance": val},
                     (time.perf_counter() - t0) * 1e3)


def _run_decide(path: str, delta: float, eps: float) -> RunReport:
    t0 = time.perf_counter()
    inst, dig = _load_instance(path)
    ans = approx_decide(inst, delta, eps)
    return RunReport("decide", dig, {"delta": delta, "epsilon": eps},
                     {"within": bool(ans)}, (time.perf_counter() - t0) * 1e3)


def _run_convex(path: str) -> RunReport:
    t0 = time.perf_counter()
    inst, dig = _load_instance(path)
    match = convex_frechet(inst)
    return RunReport("convex", dig, {},
                     {"distance": match.cost,
                      "path": [[p.x, p.y] for p in match.waypoints]},
                     (time.perf_counter() - t0) * 1e3)


def _run_oned(path: str) -> RunReport:
    t0 = time.perf_counter()
    (r, b), dig = _load_1d(path)
    match = frechet_matching_1d(r, b)
    return RunReport("oned", dig, {},
                     {"distance": match.cost,
                      "path": [[p.x, p.y] for p in match.waypoints]},
                     (time.perf_counter() - t0) * 1e3)


def _run_propagate(path: str) -> RunReport:
    t0 = time.perf_counter()
    (r, b, delta, S, E), dig = _load_1d(path, need_sets=True)
    out = propagate_reachability(r, b, delta, S, E)
    return RunReport("propagate", dig, {"delta": delta},
                     {"reachable": sorted([g.i, g.j] for g in out)},
                     (time.perf_counter() - t0) * 1e3)


def _run_oracle(path: str, metric: str) -> RunReport:
    t0 = time.perf_counter()
    if metric == "oneD":
        inp, dig = _load_1d(path)
    else:
        inp, dig = _load_instance(path)
    val = frechet_bisect(inp, metric)
    return RunReport("oracle", dig, {"metric": metric}, {"distance": val},
                     (time.perf_counter() - t0) * 1e3)


_RUNNERS = {
    "compute": lambda path, args: _run_compute(path, args.epsilon),
    "decide": lambda path, args: _run_decide(path, args.delta, args.epsilon),
    "convex": lambda path, args: _run_convex(path),
    "oned": lambda path, args: _run_oned(path),
    "propagate": lambda path, args: _run_propagate(path),
    "oracle": lambda path, args: _run_oracle(path, args.metric),
}


def _run_batch(args) -> int:
    """One report line per file, in order; the exit code is the worst
    over the files."""
    jobs = max(1, args.jobs)
    if jobs == 1 or len(args.file) == 1:
        outcomes = [_batch_entry(args.cmd, path, vars(args)) for path in args.file]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_batch_entry, args.cmd, path, vars(args))
                    for path in args.file]
            outcomes = [f.result() for f in futs]
    for rep, _ in outcomes:
        if rep.error is not None:
            print(f"error: {rep.error}", file=sys.stderr)
        print(rep.to_json())
    return max(code for _, code in outcomes)


def _batch_entry(cmd: str, path: str, argdict: dict) -> tuple[RunReport, int]:
    """The report of one file and its exit code; a failure becomes a report
    with an error and no result."""
    t0 = time.perf_counter()
    try:
        return _RUNNERS[cmd](path, argparse.Namespace(**argdict)), 0
    except InputError as exc:
        err, code = exc, 2
    except (ValueError, RuntimeError) as exc:
        err, code = exc, 1
    try:
        with open(path, "rb") as fh:
            dig = _digest(fh.read())
    except OSError:
        dig = None
    return RunReport(cmd, dig, {}, None, (time.perf_counter() - t0) * 1e3,
                     error=str(err)), code


# -- gen -------------------------------------------------------------------

def _run_gen(args) -> int:
    seed = _seed(args)
    kind = args.kind
    if kind == "convex":
        inst = generators.gen_convex(max(args.n, 6), seed)
        data = instance_to_json_dict(inst)
    elif kind == "pocket":
        inst = generators.gen_pocket(seed, max(args.n, 8))
        data = instance_to_json_dict(inst)
    elif kind == "comb":
        r, b, delta, S, E = generators.gen_comb_1d(max(args.n, 6), seed)
        data = {"R": list(map(float, r.values)), "B": list(map(float, b.values)),
                "delta": delta, "S": [[g.i, g.j] for g in S],
                "E": [[g.i, g.j] for g in E]}
    elif kind == "random1d":
        r, b = generators.gen_random_1d(max(args.n, 2), max(args.n, 2), seed)
        data = {"R": list(map(float, r.values)), "B": list(map(float, b.values))}
    else:
        raise InputError(f"unknown kind {kind}")
    text = json.dumps(data)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- render ----------------------------------------------------------------

def _f(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _poly_points(pts) -> str:
    return " ".join(f"{_f(x)},{_f(y)}" for (x, y) in pts)


def _fit(all_pts, box=(40.0, 40.0, 920.0, 430.0)):
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x0, y0, w, h = box
    sx = (max(xs) - min(xs)) or 1.0
    sy = (max(ys) - min(ys)) or 1.0
    s = min(w / sx, h / sy)

    def tr(p):
        # flip y so screen-up matches geometry-up
        return (x0 + (p[0] - min(xs)) * s, y0 + (max(ys) - p[1]) * s)
    return tr


def render_svg(inst_or_1d, kind: str) -> str:
    """Deterministic layered SVG: polygon + curves, parameter-space heat
    rectangle, matching path, and greedy-forest layer when 1D data with
    seed sets is supplied."""
    out = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
           '<rect width="1000" height="1000" fill="white"/>']
    if kind == "instance":
        inst = inst_or_1d
        pts = [tuple(p) for p in inst.R.pts] + [tuple(p) for p in inst.B.pts]
        tr = _fit(pts)
        out.append('<g id="polygon">')
        out.append(f'<polyline points="{_poly_points(tr(tuple(p)) for p in inst.R.pts)}" '
                   'fill="none" stroke="#c0392b" stroke-width="3"/>')
        out.append(f'<polyline points="{_poly_points(tr(tuple(p)) for p in inst.B.pts)}" '
                   'fill="none" stroke="#2980b9" stroke-width="3"/>')
        out.append('</g>')
        # parameter-space heat rectangle
        from .geodesic import get_engine
        eng = get_engine(inst)
        n, m = inst.R.n, inst.B.n
        gx, gy = 24, 24
        x0, y0, w, h = 40.0, 520.0, 440.0, 440.0
        dmax = max(geodesic_hausdorff(inst), 1e-9)
        out.append('<g id="freespace">')
        for a in range(gx):
            for b in range(gy):
                x = 1 + (n - 1) * (a + 0.5) / gx
                y = 1 + (m - 1) * (b + 0.5) / gy
                d = eng.distance(tuple(inst.R.eval(x)), tuple(inst.B.eval(y)))
                shade = max(0, min(255, int(255 * (1 - d / (3 * dmax)))))
                out.append(f'<rect x="{_f(x0 + w * a / gx)}" y="{_f(y0 + h * (gy - 1 - b) / gy)}" '
                           f'width="{_f(w / gx)}" height="{_f(h / gy)}" '
                           f'fill="rgb({shade},{shade},255)"/>')
        out.append('</g>')
        eps = 0.25
        val = approx_optimize(inst, eps)
        ok, chain = decision_chain(inst, max(val, 1e-12),
                                   max(math.sqrt(1 + eps) - 1, 1e-9))
        out.append('<g id="matching">')
        if ok and n > 1 and m > 1:
            ppts = [(x0 + w * (p.x - 1) / (n - 1), y0 + h * (m - p.y) / (m - 1))
                    for p in chain]
            out.append(f'<polyline points="{_poly_points(ppts)}" fill="none" '
                       'stroke="#27ae60" stroke-width="3"/>')
        out.append('</g>')
        out.append('<g id="forests"></g>')
    else:
        data = inst_or_1d
        r = [float(v) for v in data["R"]]
        b = [float(v) for v in data["B"]]
        tr = _fit([(i + 1.0, v) for i, v in enumerate(r + b)])
        out.append('<g id="curves">')
        out.append(f'<polyline points="{_poly_points(tr((i + 1.0, v)) for i, v in enumerate(r))}" '
                   'fill="none" stroke="#c0392b" stroke-width="3"/>')
        out.append(f'<polyline points="{_poly_points(tr((i + 1.0, v)) for i, v in enumerate(b))}" '
                   'fill="none" stroke="#2980b9" stroke-width="3"/>')
        out.append('</g>')
        out.append('<g id="forests">')
        if "S" in data and "delta" in data:
            from .oned import build_greedy_forest
            cr = Curve1D(r)
            cb = Curve1D(b)
            S = [GridPoint(int(i), int(j)) for (i, j) in data["S"]]
            delta = float(data["delta"])
            x0, y0, w, h = 40.0, 520.0, 920.0, 440.0
            n, m = cr.n, cb.n
            for orientation in ("horizontal", "vertical"):
                f = build_greedy_forest(cr, cb, delta, S, orientation)
                color = "#8e44ad" if orientation == "horizontal" else "#16a085"
                for ((i1, j1), (i2, j2)) in list(f.edges()) + list(f.extensions):
                    p1 = (x0 + w * (i1 - 1) / max(n - 1, 1), y0 + h * (m - j1) / max(m - 1, 1))
                    p2 = (x0 + w * (i2 - 1) / max(n - 1, 1), y0 + h * (m - j2) / max(m - 1, 1))
                    out.append(f'<line x1="{_f(p1[0])}" y1="{_f(p1[1])}" '
                               f'x2="{_f(p2[0])}" y2="{_f(p2[1])}" '
                               f'stroke="{color}" stroke-width="2"/>')
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _run_render(args) -> int:
    t0 = time.perf_counter()
    data, dig = _load_json(args.file[0])
    if not isinstance(data, dict) or "R" not in data or "B" not in data:
        raise InputError(f"{args.file[0]}: expected an object with R and B")
    if data["R"] and isinstance(data["R"][0], (list, tuple)):
        inst = instance_from_json_dict(data)
        doc = render_svg(inst, "instance")
    else:
        doc = render_svg(data, "oneD")
    with open(args.svg, "w") as fh:
        fh.write(doc)
    rep = RunReport("render", dig, {"svg": args.svg}, {"bytes": len(doc)},
                    (time.perf_counter() - t0) * 1e3)
    print(rep.to_json())
    return 0


# -- entry -----------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geofrechet")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        return p

    p = add("compute", help="(1+eps)-approximate geodesic Frechet distance")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("decide", help="approximate decision at a threshold")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("convex", help="exact Frechet distance of a convex instance")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("oned", help="exact 1D separated-curve Frechet distance")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("propagate", help="1D reachability propagation S -> E")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("oracle", help="brute-force reference distance")
    p.add_argument("--metric", choices=["euclidean", "geodesic", "oneD"],
                   default="euclidean")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("file", nargs="+")

    p = add("gen", help="generate a random instance")
    p.add_argument("--kind", choices=["convex", "pocket", "comb", "random1d"],
                   required=True)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = add("render", help="render an instance or 1D input to SVG")
    p.add_argument("--svg", required=True)
    p.add_argument("file", nargs=1)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.cmd == "gen":
            return _run_gen(args)
        if args.cmd == "render":
            return _run_render(args)
        return _run_batch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
