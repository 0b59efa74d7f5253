"""Command-line front end: reproducible, file-based experiments.

Every subcommand writes its artifacts into --outdir with names derived
from a hash of the effective configuration, plus a report.json recording
each checked assertion with its measured value and tolerance.  Re-running
the same command yields byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np
from scipy.sparse import eye_array

from . import families, harmonic, measures, dtn as dtn_mod, haar as haar_mod
from .families import TreeFamilySpec, CounterexampleSpec
from .graph import validate
from .partition import canonical_nested_partitions, tree_boundary_set, graph_boundary_set


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text):
    """Write `text`, a string or an iterable of strings written one at a time,
    to a new file beside `path`, made by open() and so with its mode (0o666
    less the umask, where mkstemp gives 0600), then rename it to `path`."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x")  # exclusive: never a file or link already there
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the configuration, less --outdir: names alike in every outdir."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "outdir")}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _csv(rows) -> str:
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


class Reporter:
    def __init__(self, args):
        self.outdir = args.outdir
        self.prefix = f"{args.command}-{_config_hash(args)}"
        self.checks = []
        self.artifacts = []

    def artifact(self, suffix: str, text) -> str:
        path = os.path.join(self.outdir, f"{self.prefix}-{suffix}")
        _atomic_write(path, text)
        self.artifacts.append(path)
        return path

    def check(self, name: str, value: float, tol: float, passed: bool, **extra):
        self.checks.append({"name": name, "value": value, "tolerance": tol,
                            "passed": bool(passed), **extra})

    def check_le(self, name: str, value: float, tol: float):
        self.check(name, float(value), tol, abs(value) <= tol)

    def finish(self) -> int:
        ok = all(c["passed"] for c in self.checks)
        report = {"config": self.prefix, "artifacts": self.artifacts,
                  "checks": self.checks, "ok": ok}
        _atomic_write(os.path.join(self.outdir, "report.json"),
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
        for c in self.checks:
            status = "pass" if c["passed"] else "FAIL"
            absolute = f", absolute {c['absolute']:.3e}" if "absolute" in c else ""
            print(f"[{status}] {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.1e})"
                  f"{absolute}")
        for a in self.artifacts:
            print(f"wrote {a}")
        return 0 if ok else 1


def _add_tree_flags(p: argparse.ArgumentParser, depth: bool = True):
    """The k-ary family's flags; a truncation limit's schedule sets its depth."""
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--ratio", type=float, default=0.25)
    p.add_argument("--base-length", type=float, default=1.0)
    if depth:
        p.add_argument("--depth", type=int, default=3)


def _add_family_flags(p: argparse.ArgumentParser):
    """Both families' flags, for the commands that build either graph."""
    p.add_argument("--family", choices=["kary", "counterexample"], default="kary")
    _add_tree_flags(p)
    p.add_argument("--spine", type=int, default=10)
    p.add_argument("--pendant-exponent", type=float, default=2.0)


def _tree_spec(args) -> TreeFamilySpec:
    return TreeFamilySpec(arity=args.arity, ratio=args.ratio,
                          base_length=args.base_length, depth=getattr(args, "depth", 1))


def _family_graph(args):
    if args.family == "kary":
        return families.build_kary_tree(_tree_spec(args))[0]
    return families.build_counterexample(
        CounterexampleSpec(spine=args.spine, pendant_exponent=args.pendant_exponent))


def _load_or_build(args):
    if args.graph:
        with open(args.graph) as fh:
            return families.load_graph(fh.read())
    return _family_graph(args)


def _read_number_map(path: str, boundary) -> dict:
    """A JSON object whose values are finite numbers, as floats; a string, a
    boolean, null, NaN or an infinity is rejected, as `load_graph` rejects
    such an edge length, and so are a key given twice and one not in `boundary`."""
    with open(path) as fh:
        pairs = json.load(fh, object_pairs_hook=tuple)  # (key, value) pairs: none dropped
    if not isinstance(pairs, tuple) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for _, x in pairs):
        raise ValueError(f"{path} must hold a JSON object of finite numbers")
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"{path} gives a key twice")
    unknown = sorted(set(doc) - set(boundary))
    if unknown:
        raise ValueError(f"{path}: keys that name no boundary vertex: {unknown[:5]}")
    return {k: float(x) for k, x in doc.items()}


def _read_function(path: str, keys) -> np.ndarray:
    """The values at `keys`, in their order, of a `key,value` CSV with no
    header; a key given twice or naming none of `keys`, a missing key and a
    value that is not finite are errors."""
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh if ln.strip()]
    table = {k: float(v) for k, v in lines}
    if len(table) < len(lines):
        raise ValueError(f"{path} gives a key twice")
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise ValueError(f"{path}: keys that name no cell or coefficient: {unknown[:5]}")
    x = np.array([table[k] for k in keys])
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: values must be finite")
    return x


def _parse_depths(text: str):
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def cmd_gen(args):
    rep = Reporter(args)
    g = _family_graph(args)
    rep.artifact("graph.json", families.save_graph(g))
    rep.check("validate", float(len(validate(g))), 0.0, not validate(g))
    return rep.finish()


def cmd_partitions(args):
    rep = Reporter(args)
    if args.graph or args.family == "counterexample":
        b = graph_boundary_set(_load_or_build(args))
    else:
        b = tree_boundary_set(_tree_spec(args))
    tree = canonical_nested_partitions(b)
    rows = [("level", "cell", "jump", "diameter", "members")]
    for level, part in enumerate(tree.levels):
        alpha = "" if level == 0 else _fmt(tree.jumps[level - 1][0])
        for ci, (cell, diam) in enumerate(zip(part.cells, tree.diameter[level].tolist())):
            rows.append((level, ci, alpha, _fmt(diam), ";".join(cell)))
    rep.artifact("cells.csv", _csv(rows))
    fine = tree.mesh
    rep.check("mesh nonincreasing", 0.0, 0.0,
              all(b <= a + 1e-15 for a, b in zip(fine, fine[1:])))
    return rep.finish()


def cmd_solve(args):
    rep = Reporter(args)
    g = _load_or_build(args)
    f = harmonic.solve_dirichlet(g, _read_number_map(args.boundary_values, g.boundary))
    rows = [("vertex", "value")] + [(v, _fmt(f.values[v])) for v in g.vertices]
    rep.artifact("values.csv", _csv(rows))
    chk = harmonic.check_harmonic(f)
    rep.check_le("kirchhoff residual", chk["max_residual"], 1e-10)
    rep.check("maximum principle", 0.0, 0.0, chk["max_principle"])
    return rep.finish()


def _matrix_lines(header, labels, rows):
    """CSV lines of a matrix: the header, then per row its label and its
    entries, each row formatted only when written: the same bytes as `_csv`
    over `_fmt` of every entry, with no n^2 list of strings."""
    yield ",".join(map(str, header)) + "\n"
    for label, row in zip(labels, rows):
        yield f"{label}," + (",".join(["%.17g"] * len(row)) + "\n") % tuple(row.tolist())


def _write_dtn(rep, tag, D: dtn_mod.DtNMatrix):
    rep.artifact(f"{tag}.csv", _matrix_lines(("basis",) + D.basis, D.basis, D.matrix))
    _check_dtn_invariants(rep, D)


DTN_REL_TOL = 1e-12


def _relative(value: float, scale: float) -> float:
    """value / scale, with 0 for a zero value (an all-zero map is exact)."""
    if value == 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(value) / scale)


def _check_dtn_invariants(rep, D: dtn_mod.DtNMatrix):
    """The Laplacian certificate of `DtNMatrix.check_invariants`, each figure
    reported absolutely and relative to the map's scale, the verdict on the
    relative one.  The rounding of the fluxes grows with the conductances, so
    a deep truncation's kernel error exceeds a fixed absolute 1e-10 (2.6e-10
    at binary depth 9) while staying within 2e-15 of its diagonal.
    The symmetry error is one of diag(w) Lam and is scaled by max|w_v Lam_vv|;
    the kernel error and the eigenvalue bound by max|Lam_vv|."""
    inv = D.check_invariants()
    diag = np.abs(np.diag(D.matrix))
    scale = float(np.max(diag))
    for name, key, s in (("dtn symmetry", "symmetry_error", float(np.max(D.weights * diag))),
                         ("dtn kernel", "kernel_error", scale),
                         ("dtn psd", "min_eigenvalue", scale)):
        rel = _relative(inv[key], s)
        passed = rel >= -DTN_REL_TOL if key == "min_eigenvalue" else abs(rel) <= DTN_REL_TOL
        rep.check(name, rel, DTN_REL_TOL, passed, absolute=inv[key], scale=s)


def cmd_dtn(args):
    rep = Reporter(args)
    g = _load_or_build(args)
    mu = _read_number_map(args.mu, g.boundary) if args.mu else None
    _write_dtn(rep, "matrix", dtn_mod.dtn_matrix(g, mu))
    return rep.finish()


def _write_trace(rep, name: str, res, tol: float):
    """A truncation limit's trace.csv, and the check that it converged."""
    rows = [("depth", "change")] + [(d, _fmt(c)) for d, c in res.trace]
    rep.artifact("trace.csv", _csv(rows))
    final = res.trace[-1][1] if res.trace else float("inf")
    rep.check(f"{name} converged", final, tol, res.converged)


def cmd_dtn_limit(args):
    rep = Reporter(args)
    res = dtn_mod.compressed_dtn_limit(_tree_spec(args), args.level,
                                       _parse_depths(args.depths), args.tol)
    _write_dtn(rep, "matrix", res.dtn)
    _write_trace(rep, "dtn limit", res, args.tol)
    return rep.finish()


def cmd_exit_measure(args):
    rep = Reporter(args)
    res = measures.exit_measure_limit(_tree_spec(args), args.level,
                                      _parse_depths(args.depths), args.tol,
                                      w=args.source_vertex)
    masses = res.masses / res.masses.sum() if args.normalize else res.masses
    rows = [("cell", "mass")] + [(p or "(root)", _fmt(m)) for p, m in zip(res.cells, masses)]
    rep.artifact("measure.csv", _csv(rows))
    _write_trace(rep, "exit measure", res, args.tol)
    return rep.finish()


def _build_basis(args):
    spec = _tree_spec(args)
    tree = canonical_nested_partitions(tree_boundary_set(spec))
    if args.measure == "rho":
        mu = measures.equal_split_measure(tree)
    elif args.measure == "counting":
        mu = measures.counting_measure(tree)
    else:
        leaf_masses = measures._truncation_exit_masses(spec, spec.depth, families.ROOT)
        mu = measures.cell_measure_from_point_masses(
            tree, dict(zip(spec.leaf_addresses(), leaf_masses.tolist())))
    return tree, mu, haar_mod.build_haar_basis(tree, mu)


def _csr_rows(M):
    """The rows of a CSR matrix as dense arrays, made one at a time."""
    for s, e in zip(M.indptr[:-1].tolist(), M.indptr[1:].tolist()):
        row = np.zeros(M.shape[1])
        row[M.indices[s:e]] = M.data[s:e]
        yield row


def _gram_error(basis: haar_mod.HaarBasis) -> float:
    """max|G - I| over the sparse Gram matrix of the basis."""
    return float(abs(basis.gram_matrix() - eye_array(len(basis), format="csr")).max())


def cmd_haar(args):
    rep = Reporter(args)
    tree, _, basis = _build_basis(args)
    header = ("function", "level") + tree.levels[tree.finest].labels
    labels = (f"{k},{level}" for k, level in enumerate(basis.levels.tolist()))
    rep.artifact("basis.csv", _matrix_lines(header, labels, _csr_rows(basis.matrix)))
    if args.check:
        rep.check_le("gram identity", _gram_error(basis), 1e-10)
    return rep.finish()


def cmd_haar_apply(args):
    rep = Reporter(args)
    _, _, basis = _build_basis(args)
    finest = basis.tree.levels[basis.tree.finest]
    # synthesize reads the coefficients indexed 0..K-1, the others finest-cell values
    keys = [str(k) for k in range(len(basis))] if args.op == "synthesize" else finest.labels
    x = _read_function(args.function, keys)
    if args.op == "analyze":
        out = haar_mod.analyze(basis, x)
        rows = [("coefficient", "value")] + [(k, _fmt(v)) for k, v in enumerate(out)]
    else:
        op = haar_mod.synthesize if args.op == "synthesize" else haar_mod.multiresolution_operator
        rows = [("cell", "value")] + [(c, _fmt(v)) for c, v in zip(finest.labels, op(basis, x))]
    rep.artifact("result.csv", _csv(rows))
    return rep.finish()


def cmd_counterexample(args):
    rep = Reporter(args)
    spec = CounterexampleSpec(spine=args.spine, pendant_exponent=args.pendant_exponent)
    res = harmonic.counterexample_recurrence(spec)
    fluxes = [_fmt(g) for g in res.fluxes] + [""]  # none out of the last vertex
    rows = [("n", "f", "spine_flux")] + [
        (n, _fmt(v), g) for n, (v, g) in enumerate(zip(res.values, fluxes), start=1)]
    rep.artifact("spine.csv", _csv(rows))
    increasing = all(b > a for a, b in zip(res.values, res.values[1:]))
    rep.check("f strictly increasing", 0.0, 0.0, increasing)
    if res.overflow_index is not None:
        rep.check("overflow index (divergence evidence)",
                  float(res.overflow_index), 0.0, True)
    return rep.finish()


def cmd_check(args):
    """Deterministic invariant suite over built-in fixtures."""
    rep = Reporter(args)
    spec = TreeFamilySpec(arity=2, ratio=0.25, depth=5)
    b = tree_boundary_set(spec)
    tree = canonical_nested_partitions(b)
    r = spec.ratio
    expected = [2 * r ** (a + 1) * (1 - r ** (5 - a)) / (1 - r) for a in range(5)]
    err = max(abs(j[0] - e) for j, e in zip(tree.jumps, expected))
    rep.check_le("tree jump closed form", err, 1e-12)

    rho = measures.equal_split_measure(tree)
    rep.check_le("rho additivity", rho.check_additivity(), 1e-10)

    basis = haar_mod.build_haar_basis(tree, rho)
    rep.check_le("haar gram identity", _gram_error(basis), 1e-10)

    g, _ = families.build_kary_tree(spec)
    D = dtn_mod.dtn_matrix(g)
    # the compressed map on the singleton cells of level = depth is the full
    # Schur complement, in closed form with no graph and no solve
    S = dtn_mod._truncation_cell_flux(spec, spec.depth)
    rep.check_le("dtn vs closed form", float(np.max(np.abs(D.matrix - S))), 1e-9)
    _check_dtn_invariants(rep, D)

    lim = measures.exit_measure_limit(spec, 0, range(4, 13), 1e-8)
    rep.check_le("exit measure total vs (2-r)/r",
                 float(lim.masses.sum() - (2 - r) / r), 1e-8)

    res = harmonic.counterexample_recurrence(CounterexampleSpec(spine=40))
    rep.check("counterexample divergence", res.values[-1], 0.0,
              res.values[-1] > 1e3)
    return rep.finish()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mgbound",
                                 description="boundary structure of metric graphs")
    ap.add_argument("--outdir", default="out")
    # no abbreviations: --depth, which a limit does not read, is not --depths
    sub = ap.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("gen", help="emit a family graph as JSON")
    _add_family_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("partitions", help="canonical nested boundary partition")
    _add_family_flags(p)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("solve", help="Dirichlet solve on a graph")
    _add_family_flags(p)
    p.add_argument("--graph")
    p.add_argument("--boundary-values", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dtn", help="Dirichlet-to-Neumann matrix")
    _add_family_flags(p)
    p.add_argument("--graph")
    p.add_argument("--mu", help="JSON file: boundary vertex -> weight")
    p.set_defaults(func=cmd_dtn)

    p = sub.add_parser("dtn-limit", help="compressed DtN truncation limit")
    _add_tree_flags(p, depth=False)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--depths", default="4:14")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_dtn_limit)

    p = sub.add_parser("exit-measure", help="exit measure truncation limit")
    _add_tree_flags(p, depth=False)
    p.add_argument("--source-vertex", default=families.ROOT)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--depths", default="4:14")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_exit_measure)

    p = sub.add_parser("haar", help="generalized Haar basis")
    _add_tree_flags(p)
    p.add_argument("--measure", choices=["rho", "counting", "exit"], default="rho")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("haar-apply", help="analyze/synthesize/operator on a function")
    _add_tree_flags(p)
    p.add_argument("--measure", choices=["rho", "counting", "exit"], default="rho")
    p.add_argument("--function", required=True, help="CSV: cell,value (no header)")
    p.add_argument("--op", choices=["analyze", "synthesize", "operator"],
                   default="analyze")
    p.set_defaults(func=cmd_haar_apply)

    p = sub.add_parser("counterexample", help="spine recurrence of the divergent example")
    p.add_argument("--spine", type=int, default=50)
    p.add_argument("--pendant-exponent", type=float, default=2.0)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("check", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_check)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # machine-readable failure
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
