"""Command-line interface: subcommands, exit codes, reports, rendering."""
import json
import re

import pytest

from geofrechet.cli import main
from geofrechet.generators import gen_convex
from geofrechet.geometry import instance_to_json_dict


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) + "\n")
    return str(p)


def report(capsys):
    lines = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln]
    return [json.loads(ln) for ln in lines]


@pytest.fixture
def square_file(tmp_path):
    return write(tmp_path, "sq.json",
                 {"R": [[0, 0], [1, 0]],
                  "B": [[0, 0], [0, 1], [1, 1], [1, 0]]})


def test_compute_square(square_file, capsys):
    assert main(["compute", "--epsilon", "0.1", square_file]) == 0
    (rep,) = report(capsys)
    assert rep["command"] == "compute"
    assert len(rep["input"]) == 16
    assert rep["parameters"] == {"epsilon": 0.1}
    assert 1.0 - 1e-9 <= rep["result"]["distance"] <= 1.1 * (1 + 1e-6)
    assert rep["wall_ms"] >= 0


def test_decide_square(square_file, capsys):
    assert main(["decide", "--delta", "0.5", "--epsilon", "0.1", square_file]) == 0
    assert report(capsys)[0]["result"]["within"] is False
    assert main(["decide", "--delta", "1.5", square_file]) == 0
    assert report(capsys)[0]["result"]["within"] is True


def test_decide_degenerate_zero(tmp_path, capsys):
    f = write(tmp_path, "deg.json",
              {"R": [[0, 0], [2, 0]], "B": [[0, 0], [1, 0], [2, 0]]})
    assert main(["decide", "--delta", "0.0", f]) == 0
    assert report(capsys)[0]["result"]["within"] is True


def test_convex_matches_compute(tmp_path, capsys):
    inst = gen_convex(10, 4)
    f = write(tmp_path, "cv.json", instance_to_json_dict(inst))
    assert main(["convex", f]) == 0
    exact = report(capsys)[0]["result"]["distance"]
    assert main(["compute", "--epsilon", "0.1", f]) == 0
    approx = report(capsys)[0]["result"]["distance"]
    assert exact * (1 - 1e-6) <= approx <= exact * 1.1 * (1 + 1e-6)


def test_oned_example(tmp_path, capsys):
    f = write(tmp_path, "od.json", {"R": [-1.0], "B": [2.0, 5.0, 2.0]})
    assert main(["oned", f]) == 0
    rep = report(capsys)[0]
    assert rep["result"]["distance"] == pytest.approx(6.0)
    assert rep["result"]["path"][0] == [1.0, 1.0]


def test_propagate(tmp_path, capsys):
    f = write(tmp_path, "pr.json",
              {"R": [-1.0, -2.0, -1.0], "B": [2.0, 1.0, 2.0],
               "delta": 100.0, "S": [[1, 1]],
               "E": [[i, j] for i in range(1, 4) for j in range(1, 4)]})
    assert main(["propagate", f]) == 0
    got = report(capsys)[0]["result"]["reachable"]
    assert got == [[i, j] for i in range(1, 4) for j in range(1, 4)]


def test_oracle_metrics(square_file, tmp_path, capsys):
    assert main(["oracle", "--metric", "geodesic", square_file]) == 0
    assert report(capsys)[0]["result"]["distance"] == pytest.approx(1.0, abs=1e-6)
    f = write(tmp_path, "od.json", {"R": [-2.0, -1.0], "B": [1.0, 3.0]})
    assert main(["oracle", "--metric", "oneD", f]) == 0
    assert report(capsys)[0]["result"]["distance"] == pytest.approx(4.0, abs=1e-6)


def test_batch_jobs(tmp_path, capsys):
    files = [write(tmp_path, f"c{k}.json", instance_to_json_dict(gen_convex(8, k)))
             for k in range(3)]
    assert main(["convex", "--jobs", "2"] + files) == 0
    reps = report(capsys)
    assert len(reps) == 3
    assert all(r["command"] == "convex" for r in reps)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_reports_every_file(tmp_path, capsys, jobs):
    """A failing file gets its own report line with an error and does not
    stop the batch; the exit code is the worst over the files."""
    good = write(tmp_path, "cv.json", instance_to_json_dict(gen_convex(8, 1)))
    notch = write(tmp_path, "notch.json",
                  {"R": [(-1, 1), (-1, -1), (1, -1)],
                   "B": [(-1, 1), (0, 1), (0, 0), (1, 0), (1, -1)]})
    assert main(["convex", "--jobs", jobs, good, notch, good]) == 1
    out = capsys.readouterr()
    reps = [json.loads(ln) for ln in out.out.splitlines() if ln]
    assert len(reps) == 3
    assert reps[0]["result"]["distance"] > 0 and "error" not in reps[0]
    assert reps[1]["result"] is None and "not convex" in reps[1]["error"]
    assert len(reps[1]["input"]) == 16
    assert reps[2] == {**reps[0], "wall_ms": reps[2]["wall_ms"]}
    assert "not convex" in out.err
    missing = str(tmp_path / "nope.json")
    assert main(["convex", "--jobs", jobs, notch, missing, good]) == 2
    reps = report(capsys)
    assert [r["result"] is None for r in reps] == [True, True, False]
    assert reps[1]["input"] is None and "cannot read" in reps[1]["error"]


def test_wall_ms_covers_loading(tmp_path, capsys, monkeypatch):
    import time
    from geofrechet import geometry
    build = geometry.build_instance

    def slow_build(R, B):
        time.sleep(0.2)
        return build(R, B)
    monkeypatch.setattr(geometry, "build_instance", slow_build)
    f = write(tmp_path, "cv.json", instance_to_json_dict(gen_convex(8, 1)))
    assert main(["convex", f]) == 0
    assert report(capsys)[0]["wall_ms"] >= 200


def test_exit_code_malformed(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["compute", "--epsilon", "0.1", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--epsilon", "0.1", str(bad)]) == 2
    arr = write(tmp_path, "arr.json", [1, 2, 3])
    assert main(["compute", "--epsilon", "0.1", arr]) == 2
    capsys.readouterr()


def test_exit_code_validation(tmp_path, capsys):
    # curves cross: structurally valid JSON, geometrically infeasible
    f = write(tmp_path, "x.json",
              {"R": [[0, 0], [2, 2]], "B": [[0, 0], [2, 0], [0, 2], [2, 2]]})
    assert main(["compute", "--epsilon", "0.1", f]) == 1
    g = write(tmp_path, "e.json",
              {"R": [[0, 0], [1, 0]], "B": [[0, 0], [0, 1], [1, 1], [1, 0]]})
    assert main(["compute", "--epsilon", "-1", g]) == 1
    capsys.readouterr()


def test_exit_code_bad_flags(square_file, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["compute", square_file])  # missing --epsilon
    assert ei.value.code == 2
    capsys.readouterr()


def test_gen_round_trip(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    assert main(["gen", "--kind", "convex", "--n", "10", "--seed", "3",
                 "--out", out]) == 0
    assert main(["compute", "--epsilon", "0.5", out]) == 0
    assert report(capsys)[0]["result"]["distance"] >= 0


def test_gen_deterministic_and_seed_env(tmp_path, capsys, monkeypatch):
    a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    assert main(["gen", "--kind", "pocket", "--seed", "5", "--out", a]) == 0
    assert main(["gen", "--kind", "pocket", "--seed", "5", "--out", b]) == 0
    assert open(a).read() == open(b).read()
    monkeypatch.setenv("GEOFRECHET_SEED", "5")
    assert main(["gen", "--kind", "pocket", "--seed", "99", "--out", c]) == 0
    assert open(a).read() == open(c).read()
    monkeypatch.setenv("GEOFRECHET_SEED", "zzz")
    assert main(["gen", "--kind", "pocket", "--out", c]) == 2
    capsys.readouterr()


def test_gen_comb_propagates(tmp_path, capsys):
    out = str(tmp_path / "comb.json")
    assert main(["gen", "--kind", "comb", "--n", "20", "--seed", "1",
                 "--out", out]) == 0
    assert main(["propagate", out]) == 0
    assert isinstance(report(capsys)[0]["result"]["reachable"], list)


def test_render_instance(square_file, tmp_path, capsys):
    svg = str(tmp_path / "out.svg")
    assert main(["render", "--svg", svg, square_file]) == 0
    doc = open(svg).read()
    for layer in ("polygon", "freespace", "matching", "forests"):
        assert f'<g id="{layer}"' in doc
    assert doc.startswith("<svg")
    # matching polyline is bimonotone in screen coordinates (x up, y down)
    m = re.search(r'<g id="matching">\s*<polyline points="([^"]+)"', doc)
    assert m
    pts = [tuple(map(float, pair.split(","))) for pair in m.group(1).split()]
    for p, q in zip(pts, pts[1:]):
        assert q[0] >= p[0] - 1e-9 and q[1] <= p[1] + 1e-9
    # byte-determinism
    svg2 = str(tmp_path / "out2.svg")
    assert main(["render", "--svg", svg2, square_file]) == 0
    assert open(svg2).read() == doc
    capsys.readouterr()


def test_render_oned_forests(tmp_path, capsys):
    f = write(tmp_path, "pr.json",
              {"R": [-1.0, -2.0, -1.0], "B": [2.0, 1.0, 2.0],
               "delta": 5.0, "S": [[1, 1]], "E": [[3, 3]]})
    svg = str(tmp_path / "f.svg")
    assert main(["render", "--svg", svg, f]) == 0
    doc = open(svg).read()
    assert '<g id="forests">' in doc
    assert "<line" in doc
    # without seed sets the forest layer stays empty
    g = write(tmp_path, "plain.json", {"R": [-1.0, -2.0], "B": [1.0, 2.0]})
    svg2 = str(tmp_path / "g.svg")
    assert main(["render", "--svg", svg2, g]) == 0
    doc2 = open(svg2).read()
    assert re.search(r'<g id="forests">\s*</g>', doc2)
    capsys.readouterr()


def test_render_oned_forests_repeatable(tmp_path, capsys):
    f = str(tmp_path / "comb.json")
    assert main(["gen", "--kind", "comb", "--n", "20", "--seed", "2", "--out", f]) == 0
    docs = []
    for name in ("a.svg", "b.svg"):
        svg = str(tmp_path / name)
        assert main(["render", "--svg", svg, f]) == 0
        docs.append(open(svg, "rb").read())
    assert docs[0] == docs[1] and docs[0].count(b"<line") > 10
    capsys.readouterr()
