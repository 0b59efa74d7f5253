import argparse
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import mgbound
from mgbound import (CounterexampleSpec, DtNMatrix, TreeFamilySpec, build_counterexample,
                     build_haar_basis, build_kary_tree, canonical_nested_partitions,
                     cell_measure_from_point_masses, cli, dtn_matrix, equal_split_measure,
                     exit_measure_limit, exit_measure_point_masses, graph_boundary_set,
                     multiresolution_operator, tree_boundary_set)
from mgbound.families import ROOT
from mgbound.partition import CellTree
from mgbound.cli import main

from util import cell_diameter


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


@pytest.mark.parametrize("argv, b", [
    (["--depth", "5"], tree_boundary_set(TreeFamilySpec(depth=5))),
    (["--family", "counterexample", "--spine", "7"],
     graph_boundary_set(build_counterexample(CounterexampleSpec(spine=7)))),
])
def test_partitions_cell_diameters_match_the_per_cell_oracle(tmp_path, argv, b):
    rc, out, report = run(tmp_path, "partitions", *argv)
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "cells.csv"))
    assert len({r[0] for r in rows}) > 2
    for row in rows:
        assert row[3] == cli._fmt(cell_diameter(b, row[4].split(";"))), row


def test_partitions_judge_the_mesh_with_no_slack(tmp_path, monkeypatch):
    """A mesh that grows by 1e-20 fails; it passed under the old 1e-15 slack."""
    monkeypatch.setattr(CellTree, "mesh", [1e-20, 2e-20])
    rc, _, report = run(tmp_path, "partitions", "--depth", "1")
    (check,) = report["checks"]
    assert rc == 1 and not check["passed"] and check["value"] == check["tolerance"] == 0.0


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


def test_dtn_invariants_are_relative_to_the_diagonal(tmp_path):
    """At binary r = 1/4, depth 9, the kernel error is 2.6e-10 from rounding
    alone, above any fixed 1e-10; relative to max|Lam_vv| = 1.4e5 it is 2e-15."""
    rc, out, report = run(tmp_path, "dtn", "--depth", "9")
    assert rc == 0 and report["ok"]
    checks = {c["name"]: c for c in report["checks"]}
    header, rows = read_csv(artifact(out, report, "matrix.csv"))
    scale = max(abs(float(r[1 + i])) for i, r in enumerate(rows))
    for name in ("dtn symmetry", "dtn kernel", "dtn psd"):
        c = checks[name]
        assert c["passed"] and c["tolerance"] == 1e-12 and c["scale"] == scale
        assert c["value"] == c["absolute"] / scale
    assert checks["dtn kernel"]["absolute"] > 1e-10
    assert checks["dtn psd"]["absolute"] <= 0.0


@pytest.mark.parametrize("depth", [9, 12])
def test_solve_judges_kirchhoff_relative_to_the_data(tmp_path, depth):
    """With N(0, 1) boundary values at binary r = 1/4 the residuals reach
    1.7e-10 at depth 9 and 1.1e-8 at depth 12 from rounding alone; the report
    copies the library's verdict, relative to conductance times max|f|."""
    rng = np.random.default_rng(0)
    leaves = build_kary_tree(TreeFamilySpec(depth=depth))[0].boundary
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({v: float(rng.normal()) for v in sorted(leaves)}))
    rc, out, report = run(tmp_path, "solve", "--depth", str(depth), "--boundary-values", str(bv))
    assert rc == 0 and report["ok"], report
    (kirchhoff,) = [c for c in report["checks"] if c["name"] == "kirchhoff residual"]
    _, rows = read_csv(artifact(out, report, "values.csv"))
    assert kirchhoff["scale"] == max(abs(float(r[1])) for r in rows)
    assert kirchhoff["tolerance"] == 1e-12 and kirchhoff["passed"]
    assert kirchhoff["value"] == kirchhoff["absolute"] / kirchhoff["scale"] <= 1e-12


def test_check_reports_additivity_relative_to_the_total_mass(tmp_path):
    rc, _, report = run(tmp_path, "check")
    assert rc == 0
    (additivity,) = [c for c in report["checks"] if c["name"] == "rho additivity"]
    assert additivity == {"name": "rho additivity", "value": 0.0, "tolerance": 1e-12,
                          "passed": True, "absolute": 0.0, "scale": 1.0}


def test_dtn_csv_is_written_row_by_row_with_the_bytes_of_fmt(tmp_path):
    values = np.array([[-0.0, 1e-300, 3.0], [np.inf, -np.inf, -2.0], [0.1, 1 / 3, 5e-324]])
    D = DtNMatrix(("a", "b", "c"), values, np.ones(3))
    rows = [("basis",) + D.basis] + [(b,) + tuple(cli._fmt(x) for x in row)
                                     for b, row in zip(D.basis, values)]
    path = tmp_path / "m.csv"
    cli._atomic_write(str(path), cli._matrix_lines(("basis",) + D.basis, D.basis, values))
    assert path.read_bytes() == cli._csv(rows).encode()
    assert path.read_text().splitlines()[1] == "a,-0,1e-300,3"


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


@pytest.mark.parametrize("command", ["dtn-limit", "exit-measure"])
def test_truncation_limits_run_past_the_old_vertex_cap(tmp_path, command):
    """At r = 0.9 the binary limits need depth 34 or more to settle to 1e-12,
    far past the 10^6 vertices (depth 18) a graph build may hold."""
    rc, out, report = run(tmp_path, command, "--ratio", "0.9", "--level", "2",
                          "--depths", "4:45", "--tol", "1e-12")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "trace.csv"))
    assert int(rows[-1][0]) > 18 and float(rows[-1][1]) < 1e-12


@pytest.mark.parametrize("command, check", [("dtn-limit", "dtn limit converged"),
                                            ("exit-measure", "exit measure converged")])
def test_truncation_limit_that_does_not_converge_exits_1(tmp_path, capsys, command, check):
    rc, out, report = run(tmp_path, command, "--depths", "4:5", "--tol", "1e-14")
    assert rc == 1 and not report["ok"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [check]
    assert "[FAIL]" in capsys.readouterr().out
    _, rows = read_csv(artifact(out, report, "trace.csv"))
    assert [r[0] for r in rows] == ["5"] and float(rows[0][1]) > 1e-14


@pytest.mark.parametrize("command", ["dtn-limit", "exit-measure"])
@pytest.mark.parametrize("flags, message", [(["--depths", "6:4"], "depth schedule"),
                                            (["--tol", "-1"], "tol must be positive"),
                                            (["--tol", "nan"], "tol must be positive"),
                                            (["--level", "-1"], "level must be nonnegative"),
                                            (["--tol", "inf"], "tol must be positive and finite")])
def test_truncation_limit_bad_schedule_exits_2(tmp_path, capsys, command, flags, message):
    rc = main(["--outdir", str(tmp_path / "o"), command, *flags])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_non_finite_base_length_exits_2(tmp_path, capsys, value):
    """An infinite base length gave all-zero masses reported as converged,
    and a NaN one a NaN trace."""
    rc = main(["--outdir", str(tmp_path / "o"), "exit-measure", "--base-length", value,
               "--level", "1", "--depths", "4:8"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "base_length" in err["message"]
    assert not (tmp_path / "o").exists()


def test_haar_gram_check(tmp_path):
    for measure in ("rho", "counting", "exit"):
        rc, _, report = run(tmp_path, "haar", "--depth", "3",
                            "--measure", measure, "--check")
        assert rc == 0 and report["ok"], measure


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("measure", ["rho", "counting", "exit"])
def test_haar_csv_lists_the_stored_entries_of_the_basis(tmp_path, measure, arity):
    """basis.csv has one line `function,level,cell,value` per stored entry of
    the CSR basis, in storage order, with the bytes of `_fmt`; the entries it
    does not list are 0, and the lines rebuild the dense basis exactly."""
    rc, out, report = run(tmp_path, "haar", "--arity", str(arity), "--depth", "3",
                          "--measure", measure)
    assert rc == 0
    _, _, basis = cli._build_basis(argparse.Namespace(
        arity=arity, ratio=0.25, base_length=1.0, depth=3, measure=measure))
    M, text = basis.matrix, artifact(out, report, "basis.csv").read_text()
    assert text.count("\n") == M.nnz + 1
    header, rows = read_csv(artifact(out, report, "basis.csv"))
    assert header == ["function", "level", "cell", "value"]
    cells = {c: j for j, c in enumerate(basis.tree.levels[basis.tree.finest].labels)}
    stored = np.repeat(np.arange(len(basis)), np.diff(M.indptr))
    assert [(int(k), cells[c]) for k, _, c, _ in rows] == list(
        zip(stored.tolist(), M.indices.tolist()))
    dense = np.zeros(M.shape)
    for k, level, cell, value in rows:
        assert int(level) == basis.levels[int(k)] and value == cli._fmt(float(value))
        dense[int(k), cells[cell]] = float(value)
    assert np.array_equal(dense, M.toarray())


@pytest.mark.parametrize("arity", [2, 3])
def test_haar_exit_measure_is_the_graph_solve_from_the_root(arity):
    """`haar --measure exit` takes its leaf masses from the closed form; they
    are the graph's exit masses to 1e-13 relative."""
    for depth in range(1, 9):
        tree, mu, _ = cli._build_basis(argparse.Namespace(
            arity=arity, ratio=0.25, base_length=1.0, depth=depth, measure="exit"))
        g, _ = build_kary_tree(TreeFamilySpec(arity=arity, ratio=0.25, depth=depth))
        ref = cell_measure_from_point_masses(tree, exit_measure_point_masses(g, ROOT))
        got, want = mu.level_slice(depth), ref.level_slice(depth)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), depth


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


def test_haar_apply_operator_matches_library(tmp_path):
    spec = TreeFamilySpec(arity=2, ratio=0.25, depth=3)
    tree = canonical_nested_partitions(tree_boundary_set(spec))
    basis = build_haar_basis(tree, equal_split_measure(tree))
    leaves = spec.leaf_addresses()
    F = np.random.default_rng(3).normal(size=len(leaves))
    for name, values in (("f", F), ("one", np.ones(len(leaves)))):
        fn = tmp_path / f"{name}.csv"
        fn.write_text("\n".join(f"{a},{v!r}" for a, v in zip(leaves, values.tolist())))
        rc, out, report = run(tmp_path, "haar-apply", "--depth", "3",
                              "--function", str(fn), "--op", "operator")
        assert rc == 0 and report["ok"]
        _, rows = read_csv(artifact(out, report, "result.csv"))
        assert [r[0] for r in rows] == leaves
        got = np.array([float(r[1]) for r in rows])
        want = multiresolution_operator(basis, values) if name == "f" else 0.0
        assert np.max(np.abs(got - want)) <= 1e-12, name


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
    assert "dtn vs closed form" in [c["name"] for c in report["checks"]]
    text = capsys.readouterr().out
    assert "[pass]" in text and "[FAIL]" not in text


def test_check_fails_a_wrong_tree_jump_closed_form(tmp_path, monkeypatch):
    """The closed-form jumps are compared with the Voronoi-MST path on the
    built graph, not with a copy of their own formula: a table off by one
    part in 1e9 fails that check, and only that one."""
    real = cli.tree_boundary_set

    def scaled(spec):
        b = real(spec)
        b.table = b.table * (1 + 1e-9)
        return b

    monkeypatch.setattr(cli, "tree_boundary_set", scaled)
    rc, _, report = run(tmp_path, "check")
    assert rc == 1
    (failed,) = [c for c in report["checks"] if not c["passed"]]
    assert failed["name"] == "tree jump closed form"
    assert failed["value"] == pytest.approx(1e-9, rel=1e-3)


def test_check_runs_the_graph_exit_measure(tmp_path, monkeypatch):
    """`check` holds the graph's exit masses from the root of its depth-5
    tree against the closed form at 1e-12 of the largest: masses off by one
    part in 1e9 fail that check, and only that one."""
    real = mgbound.measures.exit_measure
    monkeypatch.setattr(mgbound.measures, "exit_measure",
                        lambda *a, **k: real(*a, **k) * (1 + 1e-9))
    rc, _, report = run(tmp_path, "check")
    assert rc == 1
    (failed,) = [c for c in report["checks"] if not c["passed"]]
    assert failed["name"] == "graph exit measure vs closed form"
    assert failed["value"] == pytest.approx(1e-9, rel=1e-3) and failed["tolerance"] == 1e-12


def test_reproducible_artifacts(tmp_path):
    rc1, out, report = run(tmp_path, "partitions", "--depth", "3")
    first = artifact(out, report, "cells.csv").read_bytes()
    rc2, out2, rep2 = run(tmp_path, "partitions", "--depth", "3")
    assert artifact(out2, rep2, "cells.csv").read_bytes() == first


def test_artifact_names_and_bytes_do_not_depend_on_outdir(tmp_path):
    argv = ["dtn-limit", "--arity", "3", "--ratio", "0.4", "--level", "1", "--depths", "3:9"]
    written = []
    for outdir in ("o1", "o2"):
        out = tmp_path / outdir
        assert main(["--outdir", str(out), *argv]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"})
    assert len(written[0]) == 2 and written[0] == written[1]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_artifacts_get_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        rc, out, report = run(tmp_path, "gen", "--depth", "2")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert rc == 0
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert mode == 0o666 & ~umask
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(["report.json", os.path.basename(report["artifacts"][0])])
    assert {stat.S_IMODE((out / n).stat().st_mode) for n in names} == {mode}


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


def test_artifacts_do_not_depend_on_hash_seed(tmp_path):
    """The limit commands and those that build a graph, each family's, run
    in a fresh interpreter under two hash seeds, write the same artifact bytes."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({leaf: float(i) for i, leaf in
                              enumerate(TreeFamilySpec(depth=3).leaf_addresses())}))
    commands = [["exit-measure", "--level", "2", "--depths", "4:12"],
                ["dtn-limit", "--level", "2", "--depths", "4:10"],
                ["gen", "--family", "counterexample", "--spine", "7"],
                ["solve", "--depth", "3", "--boundary-values", str(bv)],
                ["partitions", "--family", "counterexample", "--spine", "7"],
                ["dtn", "--family", "counterexample", "--spine", "7"]]
    # one interpreter per seed runs every command
    script = ("import json, sys\nfrom mgbound.cli import main\n"
              "codes = [main(['--outdir', 'out', *argv]) for argv in json.loads(sys.argv[1])]\n"
              "sys.exit(max(codes))")
    written = {}
    for seed in ("1", "2"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                             cwd=cwd, env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        written[seed] = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())
                         if p.name != "report.json"}
    assert len(written["1"]) == 8  # two limits' maps and traces, and one file per command
    assert written["1"] == written["2"]


DROPPED = {"--family": "counterexample", "--spine": "7", "--pendant-exponent": "3",
           "--depth": "9"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ("dtn-limit", "exit-measure", "haar", "haar-apply")
    for flag in DROPPED if not (flag == "--depth" and command.startswith("haar"))])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag):
    """The truncation limits read only the k-ary family less its depth (the
    schedule sets it) and the Haar commands only the k-ary family: any other
    family flag is an argparse error, exit 2, with nothing written."""
    needed = ["--function", "f.csv"] if command == "haar-apply" else []
    with pytest.raises(SystemExit) as exc:
        main(["--outdir", str(tmp_path / "o"), command, *needed, flag, DROPPED[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {DROPPED[flag]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_counterexample_overflow_is_reported(tmp_path):
    """At spine 1000 the recurrence overflows at n = 729: the CSV stops at
    f(v_729), whose outgoing flux is left blank, and the overflow check passes."""
    rc, out, report = run(tmp_path, "counterexample", "--spine", "1000")
    assert rc == 0 and report["ok"]
    (check,) = [c for c in report["checks"] if c["name"].startswith("overflow index")]
    assert check["value"] == 729.0 and check["passed"]
    _, rows = read_csv(artifact(out, report, "spine.csv"))
    assert [r[0] for r in rows] == [str(n) for n in range(1, 730)]
    assert rows[-1][2] == "" and all(r[2] for r in rows[:-1])


@pytest.mark.parametrize("command", ["partitions", "solve", "dtn"])
def test_graph_input_gives_the_family_run_artifacts(tmp_path, command):
    """A `gen` output read back with --graph gives the bytes of the run that
    built the same family itself."""
    rc, out, report = run(tmp_path, "gen", "--depth", "4")
    graph = str(artifact(out, report, "graph.json"))
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({leaf: float(i) for i, leaf in
                              enumerate(TreeFamilySpec(depth=4).leaf_addresses())}))
    extra = ["--boundary-values", str(bv)] if command == "solve" else []
    written = []
    for source in (["--depth", "4"], ["--graph", graph]):
        rc, out, report = run(tmp_path, command, *source, *extra)
        assert rc == 0 and report["ok"]
        (path,) = report["artifacts"]
        written.append((out / os.path.basename(path)).read_bytes())
    assert written[0] == written[1]


def test_dtn_mu_weights_the_map(tmp_path):
    spec = TreeFamilySpec(depth=3)
    mu = {leaf: 1.0 + i for i, leaf in enumerate(spec.leaf_addresses())}
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu))
    rc, out, report = run(tmp_path, "dtn", "--depth", "3", "--mu", str(path))
    assert rc == 0 and report["ok"]
    D = dtn_matrix(build_kary_tree(spec)[0], mu)
    want = "".join(cli._matrix_lines(("basis",) + D.basis, D.basis, D.matrix))
    assert artifact(out, report, "matrix.csv").read_text() == want


def test_depths_comma_form(tmp_path):
    rc, out, report = run(tmp_path, "exit-measure", "--depths", "4,6,8", "--tol", "1e-14")
    assert rc == 1  # not converged to 1e-14 by depth 8
    _, rows = read_csv(artifact(out, report, "trace.csv"))
    res = exit_measure_limit(TreeFamilySpec(), 1, [4, 6, 8], 1e-14)
    assert rows == [[str(d), cli._fmt(c)] for d, c in res.trace]
    assert [d for d, _ in res.trace] == [6, 8]


def test_exit_measure_normalize(tmp_path):
    rc, out, report = run(tmp_path, "exit-measure", "--level", "2", "--depths", "4:12",
                          "--normalize")
    assert rc == 0 and report["ok"]
    _, rows = read_csv(artifact(out, report, "measure.csv"))
    masses = np.array([float(r[1]) for r in rows])
    raw = exit_measure_limit(TreeFamilySpec(), 2, range(4, 13), 1e-8).masses
    assert np.array_equal(masses, raw / raw.sum())
    assert masses.sum() == pytest.approx(1.0, abs=1e-15)


def test_atomic_write_leaves_nothing_when_the_writer_raises(tmp_path):
    def lines():
        yield "first\n"
        raise RuntimeError("mid-stream")

    with pytest.raises(RuntimeError, match="mid-stream"):
        cli._atomic_write(str(tmp_path / "d" / "a.csv"), lines())
    assert list((tmp_path / "d").iterdir()) == []


@pytest.mark.parametrize("swap", ["system", "absent", "failing"])
@pytest.mark.parametrize("old", ["file", "symlink"])
def test_atomic_write_over_an_old_name_acts_as_os_replace(tmp_path, monkeypatch, swap, old):
    # the name-swap path, the plain os.replace where there is no renameat2,
    # and the fallback when the swap fails all leave what os.replace leaves
    if swap == "absent":
        monkeypatch.setattr(cli, "_renameat2", lambda: None)
    elif swap == "failing":
        monkeypatch.setattr(cli, "_renameat2", lambda: lambda *args: -1)
    target, path = tmp_path / "target.csv", tmp_path / "a.csv"
    target.write_text("old\n")
    if old == "file":
        os.link(target, path)
    else:
        path.symlink_to(target)
    umask = os.umask(0)
    os.umask(umask)
    cli._atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n" and target.read_text() == "old\n"
    assert not path.is_symlink() and stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "target.csv"]


def test_atomic_write_onto_a_directory_fails_and_leaves_no_temporary(tmp_path):
    (tmp_path / "a.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._atomic_write(str(tmp_path / "a.csv"), "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_atomic_write_removes_a_temporary_interrupted_just_after_its_open(tmp_path,
                                                                         monkeypatch):
    """A SIGTERM's SystemExit raised as the exclusive open returns, before any
    write, still finds the cleanup."""
    def open_then_exit(name, mode):
        open(name, mode).close()
        raise SystemExit(143)

    monkeypatch.setattr(cli, "open", open_then_exit, raising=False)
    with pytest.raises(SystemExit):
        cli._atomic_write(str(tmp_path / "a.csv"), "new\n")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_a_file_it_did_not_make(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
    (tmp_path / ".tmp-0000000000000000").write_text("another writer's\n")
    with pytest.raises(FileExistsError):
        cli._atomic_write(str(tmp_path / "a.csv"), "new\n")
    assert [p.name for p in tmp_path.iterdir()] == [".tmp-0000000000000000"]


def test_sigterm_during_a_write_exits_143_and_leaves_no_temporary(tmp_path):
    """SIGTERM sent once `haar` has opened its basis.csv temporary: main turns
    it into SystemExit(143), which _atomic_write's cleanup sees."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    out = tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-m", "mgbound.cli", "--outdir", str(out),
                             "haar", "--depth", "14"], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not list(out.glob(".tmp-*")) and proc.poll() is None:
            assert time.monotonic() < deadline, "no temporary file appeared"
            time.sleep(0.002)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143, err
    assert list(out.glob(".tmp-*")) == [] and not (out / "report.json").exists()


def test_main_restores_the_sigterm_handler_and_runs_outside_the_main_thread(tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["--outdir", str(tmp_path / "a"), "gen", "--depth", "2"]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    codes = []  # only the main thread may set a handler; another leaves SIGTERM alone
    worker = threading.Thread(target=lambda: codes.append(
        main(["--outdir", str(tmp_path / "b"), "gen", "--depth", "2"])))
    worker.start()
    worker.join()
    assert codes == [0] and signal.getsignal(signal.SIGTERM) is previous


@pytest.mark.parametrize("argv, code", [
    (["gen", "--depth", "2"], 0),
    (["exit-measure", "--depths", "4:5", "--tol", "1e-14"], 1),
    (["exit-measure", "--depths", "6:4"], 2),
])
def test_module_entry_point_exits_with_the_code_of_main(tmp_path, argv, code):
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "mgbound.cli", "--outdir", "out", *argv],
                         cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert run.returncode == code, run.stderr


# one process, one parser: a flag given in one call, a default and a failed
# parse must leave nothing that the next call reads
REUSED = [
    (["exit-measure", "--level", "2", "--depths", "4:12", "--normalize"], 0),
    (["exit-measure", "--level", "2", "--depths", "4:12"], 0),
    (["exit-measure", "--level", "2", "--normalise"], 2),
    (["exit-measure", "--level", "3", "--source-vertex", "0", "--depths", "4:12"], 0),
    (["dtn-limit", "--depths", "4:10"], 0),
    (["exit-measure", "--depths", "4:12"], 0),
]


def test_reused_parser_leaks_nothing_from_call_to_call(tmp_path, monkeypatch, capsys):
    """`main` called in turn in one process, the last call with argv=None,
    writes the bytes, output and exit codes that a fresh `python -m mgbound.cli`
    gives for each argv, and builds its parsers on the first call only."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    (tmp_path / "reused").mkdir()
    monkeypatch.chdir(tmp_path / "reused")
    printed = []
    for i, (argv, code) in enumerate(REUSED):
        argv = ["--outdir", f"o{i}", *argv]
        if i == len(REUSED) - 1:
            monkeypatch.setattr(sys, "argv", ["mgbound", *argv])
            argv = None
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == code
        printed.append(capsys.readouterr())
        if i == 0:
            first = len(built)
            assert first > 0
    assert len(built) == first

    def masses(i):
        report = json.loads((tmp_path / "reused" / f"o{i}" / "report.json").read_text())
        _, rows = read_csv(artifact(tmp_path / "reused" / f"o{i}", report, "measure.csv"))
        return np.array([float(r[1]) for r in rows])

    raw = exit_measure_limit(TreeFamilySpec(), 2, range(4, 13), 1e-8).masses
    assert np.array_equal(masses(0), raw / raw.sum())
    assert np.array_equal(masses(1), raw) and raw.sum() != pytest.approx(1.0)

    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "fresh").mkdir()
    for i, (argv, code) in enumerate(REUSED):
        fresh = subprocess.run([sys.executable, "-m", "mgbound.cli", "--outdir", f"o{i}", *argv],
                               cwd=tmp_path / "fresh", env=env, capture_output=True,
                               text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, *printed[i]), argv
    tree = {}
    for side in ("reused", "fresh"):
        root = tmp_path / side
        tree[side] = {str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()}
    assert len(tree["fresh"]) == 3 * (len(REUSED) - 1)  # two artifacts and report.json
    assert tree["reused"] == tree["fresh"]


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, name, tol", [("exit-measure", "exit measure", "1.0e-08"),
                                                ("dtn-limit", "dtn limit", "1.0e-06")])
def test_an_empty_trace_is_reported_in_strict_json(tmp_path, capsys, command, name, tol):
    """--depths 5 leaves the trace empty, so the convergence figure is
    infinite: printed as inf, and written as the string "inf"."""
    rc = main(["--outdir", str(tmp_path / "o"), command, "--depths", "5"])
    assert rc == 1
    report = strict_json((tmp_path / "o" / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["name"] == f"{name} converged"]
    assert check["value"] == "inf" and not check["passed"] and not report["ok"]
    assert f"[FAIL] {name} converged: inf (tol {tol})\n" in capsys.readouterr().out


def test_report_writes_every_non_finite_figure_as_a_string(tmp_path, capsys):
    rep = cli.Reporter(argparse.Namespace(command="check", outdir=str(tmp_path)))
    rep.check("a", float("inf"), 1e-8, False, absolute=float("-inf"), scale=float("nan"))
    rep.check("b", np.float64("nan"), float("inf"), True, absolute=np.float64(2.5), scale=0.0)
    assert rep.finish() == 1
    checks = strict_json((tmp_path / "report.json").read_text())["checks"]
    assert [(c["value"], c["tolerance"], c["absolute"], c["scale"], c["passed"])
            for c in checks] == [("inf", 1e-8, "-inf", "nan", False),
                                 ("nan", "inf", 2.5, 0.0, True)]
    out = capsys.readouterr().out
    assert out == ("[FAIL] a: inf (tol 1.0e-08), absolute -inf\n"
                   "[pass] b: nan (tol inf), absolute 2.500e+00\n")


def test_package_exports_its_44_public_names():
    names = {n for n, x in vars(mgbound).items()
             if not n.startswith("_") and not isinstance(x, type(mgbound))}
    assert names == {
        "Edge", "MetricGraph", "metric_graph", "validate", "multi_source_distance",
        "TreeFamilySpec", "CounterexampleSpec", "build_kary_tree", "build_counterexample",
        "load_graph", "save_graph",
        "BoundarySet", "Partition", "CellTree", "tree_boundary_set",
        "graph_boundary_set", "epsilon_components", "jump_values",
        "canonical_nested_partitions",
        "HarmonicSolver", "HarmonicFunction", "assemble_laplacian", "solve_dirichlet",
        "vertex_flux", "check_harmonic",
        "counterexample_recurrence",
        "CellMeasure", "equal_split_measure", "counting_measure",
        "cell_measure_from_point_masses", "exit_measure", "exit_measure_point_masses",
        "exit_measure_limit", "dominance_constant",
        "DtNMatrix", "dtn_matrix", "compressed_dtn", "compressed_dtn_limit",
        "quadratic_form_check",
        "HaarBasis", "build_haar_basis", "analyze", "synthesize", "multiresolution_operator"}


@pytest.mark.parametrize("command", ["dtn", "solve"])
@pytest.mark.parametrize("text", [
    '{"00": "2.5", "01": 1.5, "10": 1.5, "11": 1.5}',
    '{"00": true, "01": 1.5, "10": 1.5, "11": 1.5}',
    '{"00": null, "01": 1.5, "10": 1.5, "11": 1.5}',
    '{"00": NaN, "01": 1.5, "10": 1.5, "11": 1.5}',
    '{"00": Infinity, "01": 1.5, "10": 1.5, "11": 1.5}',
    '[1.5, 1.5, 1.5, 1.5]',
])
def test_number_maps_reject_what_is_not_an_object_of_finite_numbers(tmp_path, capsys,
                                                                    command, text):
    """`dtn --mu` and `solve --boundary-values` take a JSON object of finite
    numbers; one string, boolean, null or non-finite value, or a document
    that is no object, exits 2."""
    path = tmp_path / "values.json"
    path.write_text(text)
    flag = "--mu" if command == "dtn" else "--boundary-values"
    rc = main(["--outdir", str(tmp_path / "o"), command, "--depth", "2", flag, str(path)])
    assert rc == 2
    assert "JSON object of finite numbers" in json.loads(capsys.readouterr().err)["message"]


def test_number_maps_take_integers_as_numbers(tmp_path):
    leaves = TreeFamilySpec(depth=2).leaf_addresses()
    path = tmp_path / "values.json"
    path.write_text(json.dumps({leaf: i + 1 for i, leaf in enumerate(leaves)}))
    for command, flag in (("dtn", "--mu"), ("solve", "--boundary-values")):
        rc, _, report = run(tmp_path, command, "--depth", "2", flag, str(path))
        assert rc == 0 and report["ok"], command


@pytest.mark.parametrize("op, lines, message", [
    ("analyze", ["000,1", "000,2"], "key twice"),
    ("analyze", ["000,1", "000,nan"], "key twice"),
    ("analyze", ["zzz,9"], "name no cell or coefficient"),
    ("synthesize", ["8,9"], "name no cell or coefficient"),
    ("analyze", ["000,nan"], "finite"),
    ("analyze", ["000,inf"], "finite"),
    ("synthesize", ["0,-inf"], "finite"),
])
def test_haar_apply_rejects_bad_function_files(tmp_path, capsys, op, lines, message):
    """Each fault on its own, the other lines valid: a key given twice, a key
    that names no finest cell (or coefficient index) and a non-finite value
    each exit 2 and write no result."""
    keys = (TreeFamilySpec(depth=3).leaf_addresses() if op == "analyze"
            else [str(k) for k in range(8)])
    given = {ln.split(",")[0] for ln in lines}
    fn = tmp_path / "f.csv"
    fn.write_text("\n".join(lines + [f"{k},1.5" for k in keys if k not in given]) + "\n")
    out = tmp_path / "o"
    rc = main(["--outdir", str(out), "haar-apply", "--function", str(fn), "--op", op])
    assert rc == 2
    assert message in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["dtn", "solve"])
@pytest.mark.parametrize("extra, message", [
    ('"zzz": 5', "name no boundary vertex"),
    ('"root": 7', "name no boundary vertex"),  # an interior vertex is no boundary value
    ('"00": 2', "key twice"),
])
def test_number_maps_reject_unknown_and_repeated_keys(tmp_path, capsys, command, extra,
                                                      message):
    """Besides the four depth-2 leaves, a key that names no boundary vertex
    or one given twice exits 2 and writes no artifact."""
    path = tmp_path / "values.json"
    path.write_text('{"00": 1, "01": 2, "10": 3, "11": 4, ' + extra + "}")
    flag = "--mu" if command == "dtn" else "--boundary-values"
    out = tmp_path / "o"
    rc = main(["--outdir", str(out), command, "--depth", "2", flag, str(path)])
    assert rc == 2
    assert message in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", [["counterexample"], ["gen", "--family", "counterexample"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_pendant_exponent_exits_2(tmp_path, capsys, command, value):
    """nan used to fail in round(), inf with an OverflowError."""
    out = tmp_path / "o"
    rc = main(["--outdir", str(out), *command, "--spine", "5", f"--pendant-exponent={value}"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "pendant_exponent must be finite"}
    assert not out.exists()


def test_partitions_reject_a_tree_whose_lengths_overflow(tmp_path, capsys):
    """2 L0 overflows to inf, which is no distance of the tree; the run used
    to cut an all-infinite table into singletons and exit 0."""
    rc = main(["--outdir", str(tmp_path / "o"), "partitions", "--base-length", "1e308",
               "--ratio", "0.9", "--depth", "3"])
    assert rc == 2
    assert "positive distance" in json.loads(capsys.readouterr().err)["message"]
