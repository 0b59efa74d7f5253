import json
import os
import subprocess
import sys

import pytest

import mgbound
from mgbound.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(["--outdir", str(out), *argv])
    report = json.loads((out / "report.json").read_text())
    return rc, out, report


def read_csv(path):
    rows = [ln.split(",") for ln in path.read_text().strip().splitlines()]
    return rows[0], rows[1:]


def artifact(out, report, suffix):
    (match,) = [a for a in report["artifacts"] if a.endswith(suffix)]
    return out / os.path.basename(match)


def test_gen_roundtrip(tmp_path):
    rc, out, report = run(tmp_path, "gen", "--depth", "2")
    assert rc == 0 and report["ok"]
    from mgbound import load_graph, save_graph
    text = artifact(out, report, "graph.json").read_text()
    g = load_graph(text)
    assert save_graph(g) == text
    assert len(g.boundary) == 4


def test_gen_counterexample(tmp_path):
    rc, _, report = run(tmp_path, "gen", "--family", "counterexample",
                        "--spine", "5")
    assert rc == 0 and report["ok"]


def test_partitions_jump_values(tmp_path):
    rc, out, report = run(tmp_path, "partitions", "--depth", "3")
    assert rc == 0 and report["ok"]
    header, rows = read_csv(artifact(out, report, "cells.csv"))
    jumps = sorted({float(r[2]) for r in rows if r[2]}, reverse=True)
    assert jumps == pytest.approx([0.65625, 0.15625, 0.03125], abs=1e-12)
    # level 0 is one cell with all 8 leaves
    lvl0 = [r for r in rows if r[0] == "0"]
    assert len(lvl0) == 1 and len(lvl0[0][4].split(";")) == 8


def test_solve_and_check(tmp_path):
    bv = tmp_path / "bv.json"
    g_rc, out, report = run(tmp_path, "gen", "--depth", "2")
    from mgbound import load_graph
    g = load_graph(artifact(out, report, "graph.json").read_text())
    bv.write_text(json.dumps({v: (1.0 if v.startswith("0") else 0.0)
                              for v in sorted(g.boundary)}))
    rc, out2, rep2 = run(tmp_path, "solve", "--depth", "2",
                         "--boundary-values", str(bv))
    assert rc == 0 and rep2["ok"]
    _, rows = read_csv(artifact(out2, rep2, "values.csv"))
    vals = {r[0]: float(r[1]) for r in rows}
    assert vals["00"] == 1.0 and vals["11"] == 0.0
    assert 0.0 < vals["root"] < 1.0


def test_dtn_invariant_checks(tmp_path):
    rc, out, report = run(tmp_path, "dtn", "--depth", "3")
    assert rc == 0 and report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert {"dtn symmetry", "dtn kernel", "dtn psd"} <= names
    header, rows = read_csv(artifact(out, report, "matrix.csv"))
    assert len(rows) == 8 and len(header) == 9


def test_dtn_limit(tmp_path):
    rc, out, report = run(tmp_path, "dtn-limit", "--depths", "4:10",
                          "--tol", "1e-6")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "trace.csv"))
    changes = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(changes, changes[1:]))
    assert changes[-1] < 1e-6


def test_exit_measure_limit(tmp_path):
    rc, out, report = run(tmp_path, "exit-measure", "--level", "1",
                          "--depths", "4:12", "--tol", "1e-8")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "measure.csv"))
    masses = {r[0]: float(r[1]) for r in rows}
    assert masses["0"] == pytest.approx(3.5, abs=1e-8)
    assert masses["1"] == pytest.approx(3.5, abs=1e-8)


@pytest.mark.parametrize("command", ["dtn-limit", "exit-measure"])
def test_truncation_limits_reach_1e_12(tmp_path, command):
    """The binary r = 1/4 limits converge to 1e-12 within depth 17 (131071
    interior vertices at the last depth)."""
    rc, out, report = run(tmp_path, command, "--level", "2", "--depths", "4:17",
                          "--tol", "1e-12")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "trace.csv"))
    assert float(rows[-1][1]) < 1e-12


def test_haar_gram_check(tmp_path):
    for measure in ("rho", "counting", "exit"):
        rc, _, report = run(tmp_path, "haar", "--depth", "3",
                            "--measure", measure, "--check")
        assert rc == 0 and report["ok"], measure


def test_haar_apply_round_trip(tmp_path):
    fn = tmp_path / "f.csv"
    leaves = [f"{i:02b}" for i in range(4)]
    fn.write_text("\n".join(f"{a},{v}" for a, v in zip(leaves, [3, 1, -2, 5])))
    rc, out, report = run(tmp_path, "haar-apply", "--depth", "2",
                          "--function", str(fn), "--op", "analyze")
    assert rc == 0
    _, rows = read_csv(artifact(out, report, "result.csv"))
    coeffs = tmp_path / "c.csv"
    coeffs.write_text("\n".join(f"{r[0]},{r[1]}" for r in rows))
    rc2, out2, rep2 = run(tmp_path, "haar-apply", "--depth", "2",
                          "--function", str(coeffs), "--op", "synthesize")
    assert rc2 == 0
    _, back = read_csv(artifact(out2, rep2, "result.csv"))
    assert [float(r[1]) for r in back] == pytest.approx([3, 1, -2, 5], abs=1e-10)


def test_counterexample_divergence(tmp_path):
    rc, out, report = run(tmp_path, "counterexample", "--spine", "40")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "spine.csv"))
    values = [float(r[1]) for r in rows]
    assert values[-1] > 1e3
    assert all(b > a for a, b in zip(values, values[1:]))


def test_check_suite(tmp_path, capsys):
    rc, _, report = run(tmp_path, "check")
    assert rc == 0 and report["ok"]
    assert len(report["checks"]) >= 7
    text = capsys.readouterr().out
    assert "[pass]" in text and "[FAIL]" not in text


def test_reproducible_artifacts(tmp_path):
    rc1, out, report = run(tmp_path, "partitions", "--depth", "3")
    first = artifact(out, report, "cells.csv").read_bytes()
    rc2, out2, rep2 = run(tmp_path, "partitions", "--depth", "3")
    assert artifact(out2, rep2, "cells.csv").read_bytes() == first


def test_error_exit_code(tmp_path, capsys):
    rc = main(["--outdir", str(tmp_path / "o"), "solve", "--depth", "2",
               "--boundary-values", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


@pytest.mark.parametrize("source", ["nope", "0000"])  # unknown; a leaf at depth 4
def test_exit_measure_bad_source_vertex(tmp_path, capsys, source):
    rc = main(["--outdir", str(tmp_path / "o"), "exit-measure", "--depths", "4:6",
               "--source-vertex", source])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and source in err["message"]


def test_truncation_limit_artifacts_do_not_depend_on_hash_seed(tmp_path):
    """Each limit command, run in a fresh interpreter under two hash seeds,
    writes the same artifact bytes."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    commands = [["exit-measure", "--level", "2", "--depths", "4:12"],
                ["dtn-limit", "--level", "2", "--depths", "4:10"]]
    written = {}
    for seed in ("1", "2"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for argv in commands:
            subprocess.run([sys.executable, "-m", "mgbound.cli", "--outdir", "out", *argv],
                           cwd=cwd, env=env, check=False, capture_output=True, timeout=120)
        written[seed] = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())
                         if p.name != "report.json"}
    assert len(written["1"]) == 4  # a matrix and a trace, a measure and a trace
    assert written["1"] == written["2"]
