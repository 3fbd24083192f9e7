"""Command-line surface: ingest chains, run analyses, verify identities.

Subcommands: analyze, sumrule, forest-verify, simulate, counterexample,
generate. Chain files are CSV (n lines of n comma-separated decimals, no
header) or JSON ({"states": [...], "P": [[...], ...]}, labels optional).
Reports are printed to stdout as human tables (6 significant digits) or as
JSON with 17-significant-digit floats for reproducibility. Every identity
check is an object with exactly the fields {lhs, rhs, abs_err, tolerance,
pass}. Exit codes: 0 all checks pass, 1 input or usage error, 2 identity
check failure. The MR_SEED environment variable supplies a default seed;
an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__, chain, forest, linalg, resistance, simulate
from .errors import MaxStepsExceededError, MRDistError, NotErgodicError, ParseError
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CHECK_FAILED = 2

# 3-state birth-death chain whose middle state carries little stationary
# mass; the shortest closed form making the resistance triangle inequality
# fail. Stationary distribution (5/11, 1/11, 5/11).
COUNTEREXAMPLE_P = (
    (0.9, 0.1, 0.0),
    (0.5, 0.0, 0.5),
    (0.0, 0.1, 0.9),
)


def counterexample_chain() -> chain.StochasticMatrix:
    """Built-in triangle-inequality counterexample chain."""
    return chain.validate(COUNTEREXAMPLE_P, state_labels=("1", "2", "3"))


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# chain file input / output

def load_chain(path: str, *, tol: Tolerances = DEFAULT) -> chain.StochasticMatrix:
    """Read a chain file (JSON by .json extension, CSV otherwise)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

    labels = None
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "P" not in doc:
            raise ParseError(f'{path}: expected an object with a "P" key')
        rows = doc["P"]
        labels = doc.get("states")
        if labels is not None and not (
            isinstance(labels, list)
            and all(type(s) in (str, int, float) for s in labels)
            and len(set(map(str, labels))) == len(labels)
        ):
            raise ParseError(f'{path}: "states" must be an array of distinct strings or numbers')
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not rows:
            raise ParseError(f"{path}: no rows")

    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: ragged or non-numeric matrix: {exc}") from exc
    if labels is None:
        labels = [str(i + 1) for i in range(arr.shape[0] if arr.ndim == 2 else 0)]
    return chain.validate(arr, state_labels=labels, tol=tol)


def save_chain(path: str, mat: chain.StochasticMatrix) -> None:
    """Write a chain file, CSV by .csv extension, JSON otherwise."""
    if path.endswith(".csv"):
        lines = [",".join(_floats17(row)) for row in mat.P.tolist()]
        text = "\n".join(lines) + "\n"
    else:
        text = dumps_json({"states": _labels(mat), "P": mat.P}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# report serialization

def _floats17(values) -> list[str]:
    """Each float at 17 significant digits, marked as a float by a '.' or an
    exponent ("1.0", "-0.0", "1e+16", "inf.0")."""
    return [s if "." in s or "e" in s else s + ".0" for s in map("%.17g".__mod__, values)]


def _float17(x) -> str:
    return _floats17((float(x),))[0]


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _float17(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pieces: list[str] = []
    _emit_json(obj, 0, pieces)
    return "".join(pieces)


# module-level rather than a closure: a self-referencing closure is a
# reference cycle that keeps ``pieces`` alive until the next garbage collection
def _emit_json(x, depth: int, pieces: list[str]) -> None:
    pad = "  " * depth
    if isinstance(x, dict):
        if not x:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(x.items())
        for idx, (k, v) in enumerate(items):
            pieces.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit_json(v, depth + 1, pieces)
            pieces.append(",\n" if idx < len(items) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(x, (list, tuple, np.ndarray)):
        seq = list(x)
        if not seq:
            pieces.append("[]")
            return
        # a row of floats, such as a matrix row, is formatted in one pass
        if all(isinstance(v, float) for v in seq):
            pieces.append("[" + ", ".join(_floats17(seq)) + "]")
            return
        nested = any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if not nested:
            pieces.append("[" + ", ".join(_json_scalar(v) for v in seq) + "]")
        else:
            pieces.append("[\n")
            for idx, v in enumerate(seq):
                pieces.append(pad + "  ")
                _emit_json(v, depth + 1, pieces)
                pieces.append(",\n" if idx < len(seq) - 1 else "\n")
            pieces.append(pad + "]")
    else:
        pieces.append(_json_scalar(x))


_CHECK_FIELDS = ("lhs", "rhs", "abs_err", "tolerance", "pass")


def _fmt6(x) -> str:
    return format(float(x), ".6g")


def render_human(report: dict) -> str:
    """Indented key/value rendering with 6-digit tables."""
    lines: list[str] = []
    for k, v in report.items():
        _emit_human(k, v, 0, lines)
    return "\n".join(lines) + "\n"


def _emit_human(key, val, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(val, dict):
        if set(val) == set(_CHECK_FIELDS):
            verdict = "PASS" if val["pass"] else "FAIL"
            lines.append(
                f"{pad}{key}: lhs={_fmt6(val['lhs'])} rhs={_fmt6(val['rhs'])} "
                f"abs_err={_fmt6(val['abs_err'])} tol={_fmt6(val['tolerance'])} "
                f"{verdict}"
            )
            return
        lines.append(f"{pad}{key}:")
        for k, v in val.items():
            _emit_human(k, v, depth + 1, lines)
    elif isinstance(val, (list, tuple, np.ndarray)):
        seq = list(val)
        if seq and isinstance(seq[0], (list, tuple, np.ndarray)):
            lines.append(f"{pad}{key}:")
            for row in seq:
                lines.append(pad + "  " + "  ".join(map("%12.6g".__mod__, row)))
        elif seq and all(isinstance(v, dict) for v in seq):
            lines.append(f"{pad}{key}:")
            for idx, v in enumerate(seq):
                _emit_human(f"[{idx}]", v, depth + 1, lines)
        else:
            rendered = [
                _fmt6(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in seq
            ]
            lines.append(f"{pad}{key}: [" + ", ".join(rendered) + "]")
    elif isinstance(val, (float, np.floating)):
        lines.append(f"{pad}{key}: {_fmt6(val)}")
    else:
        lines.append(f"{pad}{key}: {val}")


# ---------------------------------------------------------------------------
# identity check records

def _check(lhs: float, rhs: float, tolerance: float, abs_err: float | None = None) -> dict:
    """The five-field check record; ``abs_err`` defaults to |lhs - rhs|."""
    err = abs(float(lhs) - float(rhs)) if abs_err is None else float(abs_err)
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "abs_err": err,
        "tolerance": float(tolerance),
        "pass": bool(err <= tolerance),
    }


def _residual_check(residual: float, tolerance: float) -> dict:
    return _check(residual, 0.0, tolerance)


def _all_pass(records) -> bool:
    """Conjunction of the given check records."""
    return all(rec["pass"] for rec in records)


def _sum_rule_check(pair, om, F, tol: Tolerances) -> dict:
    lhs, rhs = resistance.sum_rule(pair, om, F, tol=tol)
    return _check(lhs, rhs, tol.sum_rule_relative * (1.0 + abs(lhs)))


def _stationary_pair_check(analysis: chain.ChainAnalysis, om, tol: Tolerances) -> dict:
    """Sum rule for the canonical pair M = diag(pi), K = Pi."""
    pair = resistance.SumRulePair(M=np.diag(analysis.pi), K=analysis.Pi)
    return _sum_rule_check(pair, om, analysis.F, tol)


def _forest_checks(fw, analysis: chain.ChainAnalysis, om, tol: Tolerances) -> dict:
    """pi, H and Omega from the forest weights against the F route."""
    return {
        "forest_stationary": _residual_check(
            np.abs(forest.stationary_from_forest(fw) - analysis.pi).max(), tol.forest_pi
        ),
        "forest_hitting": _residual_check(
            np.abs(forest.hitting_from_forest(fw) - analysis.H).max(), tol.forest_hitting
        ),
        "forest_omega": _residual_check(
            np.abs(forest.omega_from_forest(fw).omega - om.omega).max(), tol.forest_omega
        ),
    }


# ---------------------------------------------------------------------------
# the shared analysis pipeline

def _matrix_rows(a: np.ndarray) -> list[list[float]]:
    return np.asarray(a, dtype=float).tolist()


def _labels(mat: chain.StochasticMatrix) -> list[str]:
    if mat.state_labels:
        return list(mat.state_labels)
    return [str(i + 1) for i in range(mat.n)]


def _triple_labels(triple, labels) -> list[str] | None:
    if triple is None:
        return None
    return [labels[t] for t in triple]


def _load_analyzed(
    path: str, tol: Tolerances, not_ergodic: str = "analysis requires an ergodic chain"
):
    """Load a chain file; return the matrix, its analysis and its Omega from F."""
    mat = load_chain(path, tol=tol)
    if not mat.is_ergodic:
        raise NotErgodicError(not_ergodic)
    analysis = chain.analyze(mat, tol=tol)
    return mat, analysis, resistance.omega_from_fundamental(analysis.F)


def analyze_report(
    mat: chain.StochasticMatrix,
    *,
    tol: Tolerances = DEFAULT,
    eigentime: bool = True,
    forest_cap: int = forest.DEFAULT_MAX_STATES,
    sim_cfg: simulate.SimConfig | None = None,
    sim_pairs: list[tuple[int, int]] | None = None,
) -> dict:
    """Full analysis document for an ergodic chain; raises on input errors."""
    labels = _labels(mat)
    n = mat.n
    P = mat.P
    if not mat.is_ergodic:
        strongly_connected, period = mat.graph_verdict
        raise NotErgodicError(
            f"chain is not ergodic (strongly_connected={strongly_connected}, "
            f"period={period})"
        )
    analysis = chain.analyze(mat, tol=tol)
    erg = analysis.ergodicity
    pi, F, D, H = analysis.pi, analysis.F, analysis.D, analysis.H
    report: dict = {
        "command": "analyze",
        "n": n,
        "states": labels,
        "ergodicity": dataclasses.asdict(erg),
        "pi": [float(v) for v in pi],
        "t_av": analysis.t_av,
    }

    om = resistance.omega_from_fundamental(F)
    om_d = resistance.omega_from_group_inverse(D)
    om_h = resistance.omega_from_hitting(H, pi)
    om_c = (
        resistance.omega_from_commute(H, erg) if erg.is_doubly_stochastic else None
    )
    omega_section = {
        "fundamental": _matrix_rows(om.omega),
        "group_inverse": _matrix_rows(om_d.omega),
        "hitting_time": _matrix_rows(om_h.omega),
    }
    if om_c is not None:
        omega_section["commute_scaled"] = _matrix_rows(om_c.omega)
    report["omega"] = omega_section

    metric = resistance.metric_check(om, tol=tol)
    report["metric"] = {
        **dataclasses.asdict(metric),
        "worst_triple": _triple_labels(metric.worst_triple, labels),
    }

    kirch = resistance.kirchhoff_indices(om, pi, analysis.t_av)
    report["kirchhoff"] = dataclasses.asdict(kirch)

    checks: dict[str, dict] = {}
    skipped: dict[str, str] = {}

    checks["stationary_residual"] = _residual_check(
        np.abs(pi @ P - pi).max(), tol.stationary_residual
    )
    residual_f = np.abs(F @ (np.eye(n) - P + analysis.Pi) - np.eye(n)).max()
    checks["fundamental_residual"] = _residual_check(
        residual_f, tol.fundamental_residual
    )
    checks["fundamental_row_sums"] = _residual_check(
        np.abs(F.sum(axis=1) - 1.0).max(), tol.stochastic_check
    )
    checks["group_inverse_row_sums"] = _residual_check(
        np.abs(D.sum(axis=1)).max(), tol.stochastic_check
    )
    ip = np.eye(n) - P
    axioms = max(
        np.abs(ip @ D @ ip - ip).max(),
        np.abs(D @ ip @ D - D).max(),
        np.abs(ip @ D - D @ ip).max(),
    )
    checks["group_inverse_axioms"] = _residual_check(axioms, tol.group_inverse_axioms)
    checks["stationary_projection"] = _residual_check(
        np.abs(analysis.Pi @ F - analysis.Pi).max(), tol.stochastic_check
    )
    per_start = H @ pi
    checks["random_target_spread"] = _residual_check(
        per_start.max() - per_start.min(), tol.random_target
    )
    checks["hitting_time_oracle"] = _residual_check(
        np.abs(H - chain.hitting_times_oracle(mat, tol=tol)).max(),
        tol.hitting_agreement,
    )
    checks["representation_group_inverse"] = _residual_check(
        np.abs(om_d.omega - om.omega).max(), tol.representation_agreement
    )
    checks["representation_hitting_time"] = _residual_check(
        np.abs(om_h.omega - om.omega).max(), tol.representation_agreement
    )
    if om_c is not None:
        checks["representation_commute_scaled"] = _residual_check(
            np.abs(om_c.omega - om.omega).max(), tol.representation_agreement
        )
        checks["triangle_inequality"] = _residual_check(
            max(metric.worst_violation, 0.0), tol.triangle
        )
    checks["kirchhoff_vs_kemeny"] = _check(
        kirch.kirchhoff, 2.0 * n * analysis.t_av, tol.kirchhoff
    )
    if eigentime:
        eigs = linalg.eigenvalues(P)
        report["eigenvalues"] = [[float(v.real), float(v.imag)] for v in eigs]
        try:
            et = chain.eigentime_constant(eigs, tol=tol)
        except NotErgodicError:
            # the graph already proved ergodicity; a nearly decomposable chain
            # only fails to isolate its Perron root at this tolerance
            near = int((np.abs(eigs - 1.0) <= tol.unit_eigenvalue).sum())
            skipped["eigentime"] = (
                f"{near} eigenvalues lie within unit_eigenvalue = "
                f"{tol.unit_eigenvalue:g} of 1, so the eigentime sum is undefined; "
                "the transition graph is ergodic"
            )
        else:
            checks["kemeny_vs_eigentime"] = _check(analysis.t_av, et, tol.eigentime)
            checks["kirchhoff_vs_eigentime"] = _check(
                kirch.kirchhoff, 2.0 * n * et, tol.eigentime * 2 * n
            )
    checks["multiplicative_kirchhoff"] = _check(
        kirch.multiplicative,
        2.0 * float(pi @ np.diag(F) - pi @ pi),
        tol.multiplicative_kirchhoff,
    )
    checks["additive_lower_bound"] = _check(
        kirch.additive, kirch.additive_lower, tol.additive_slack,
        abs_err=max(0.0, kirch.additive_lower - kirch.additive),
    )
    checks["additive_upper_bound"] = _check(
        kirch.additive, kirch.additive_upper, tol.additive_slack,
        abs_err=max(0.0, kirch.additive - kirch.additive_upper),
    )
    checks["sum_rule_stationary_pair"] = _stationary_pair_check(analysis, om, tol)

    if erg.is_reversible:
        for m in (1, 2, 3):
            f_lhs, f_rhs = resistance.foster_sum(mat, om, m, analysis, tol=tol)
            checks[f"foster_trace_m{m}"] = _check(f_lhs, f_rhs, tol.foster)
        if erg.is_doubly_stochastic:
            checks["foster_first_formula"] = _check(
                resistance.foster_first_formula(mat, om), 2.0 * (n - 1), tol.foster
            )
    else:
        skipped["foster"] = "chain is not reversible (detailed balance fails)"

    sqrt_metric = resistance.metric_check(
        resistance.resistance_matrix(np.sqrt(om.omega), om.method), tol=tol
    )
    report["informational"] = {
        "sqrt_omega_triangle": {
            "triangle_holds": sqrt_metric.triangle_holds,
            "worst_triple": _triple_labels(sqrt_metric.worst_triple, labels),
            "worst_violation": sqrt_metric.worst_violation,
        }
    }

    if n <= forest_cap:
        fw = forest.enumerate_forests(mat, max_n=forest_cap)
        report["forest"] = {
            "q_roots": [float(v) for v in fw.q_roots],
            "q_total": fw.q_total,
        }
        checks.update(_forest_checks(fw, analysis, om, tol))
    else:
        skipped["forest"] = f"n = {n} exceeds the enumeration cap {forest_cap}"

    records = list(checks.values())
    if sim_cfg is not None:
        report["simulation"] = _simulation_section(
            mat, analysis, om, sim_cfg, sim_pairs, labels, tol
        )
        records += [row["check"] for row in report["simulation"]["pairs"]]

    if skipped:
        report["skipped"] = skipped
    report["checks"] = checks
    report["pass"] = _all_pass(records)
    return report


def _simulation_section(mat, analysis, om, cfg, pairs, labels, tol) -> dict:
    if pairs is None:
        pairs = [(i, j) for i in range(mat.n) for j in range(i + 1, mat.n)]
    rows = []
    for i, j in pairs:
        row: dict = {"pair": [labels[i], labels[j]]}
        if i == j:
            row["estimate"] = 0.0
            row["std_error"] = 0.0
            row["check"] = _check(0.0, 0.0, 0.0)
        else:
            try:
                est = simulate.estimate_omega(mat, i, j, analysis.pi, cfg)
            except MaxStepsExceededError as exc:
                # no estimate; the check fails since Omega[i, j] >= pi[i] + pi[j] > 0
                row["error"] = str(exc)
                row["check"] = _check(0.0, om.omega[i, j], 0.0)
            else:
                row["estimate"] = est.mean
                row["std_error"] = est.std_error
                row["check"] = _check(
                    est.mean, float(om.omega[i, j]), tol.sigma_band * est.std_error
                )
        rows.append(row)
    return {
        "seed": cfg.seed,
        "replicas": cfg.replicas,
        "sigma_band": tol.sigma_band,
        "pairs": rows,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(
    path: str,
    *,
    tol: Tolerances = DEFAULT,
    eigentime: bool = True,
    forest_cap: int = forest.DEFAULT_MAX_STATES,
    sim_cfg: simulate.SimConfig | None = None,
    pairs_spec: str = "all",
) -> dict:
    mat = load_chain(path, tol=tol)
    sim_pairs = None
    if sim_cfg is not None and pairs_spec != "all":
        sim_pairs = parse_pairs(pairs_spec, _labels(mat))
    report = analyze_report(
        mat,
        tol=tol,
        eigentime=eigentime,
        forest_cap=forest_cap,
        sim_cfg=sim_cfg,
        sim_pairs=sim_pairs,
    )
    report["input"] = path
    return report


def cmd_sumrule(
    path: str,
    trials: int,
    seed: int,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat, analysis, om = _load_analyzed(path, tol, "sum rules require an ergodic chain")

    checks = {"canonical_stationary_pair": _stationary_pair_check(analysis, om, tol)}
    skipped: dict[str, str] = {}
    if analysis.ergodicity.is_reversible:
        for m in (1, 2, 3):
            pair = resistance.SumRulePair(
                M=np.diag(analysis.pi), K=linalg.matrix_power(mat.P, m)
            )
            checks[f"canonical_power_pair_m{m}"] = _sum_rule_check(pair, om, analysis.F, tol)
    else:
        skipped["power_pairs"] = (
            "transition-power pairs need a reversible chain "
            "(M(K - I) would not be symmetric)"
        )

    max_abs_err = 0.0
    worst: dict | None = None
    all_pass = True
    for k in range(trials):
        pair = resistance.make_sum_rule_pair(mat.n, seed + k, tol=tol)
        rec = _sum_rule_check(pair, om, analysis.F, tol)
        max_abs_err = max(max_abs_err, rec["abs_err"])
        all_pass = all_pass and rec["pass"]
        if worst is None or rec["abs_err"] - rec["tolerance"] > (
            worst["abs_err"] - worst["tolerance"]
        ):
            worst = rec
    random_section: dict = {"trials": trials, "max_abs_err": max_abs_err}
    if worst is not None:
        checks["random_pairs_worst"] = worst

    report = {
        "command": "sumrule",
        "input": path,
        "n": mat.n,
        "seed": seed,
        "random_pairs": random_section,
    }
    if skipped:
        report["skipped"] = skipped
    report["checks"] = checks
    report["pass"] = _all_pass(checks.values()) and all_pass
    return report


def cmd_forest_verify(
    path: str,
    cap: int = forest.DEFAULT_MAX_STATES,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat, analysis, om = _load_analyzed(path, tol)
    fw = forest.enumerate_forests(mat, max_n=cap)
    checks = _forest_checks(fw, analysis, om, tol)
    return {
        "command": "forest-verify",
        "input": path,
        "n": mat.n,
        "q_roots": [float(v) for v in fw.q_roots],
        "q_total": fw.q_total,
        "f": _matrix_rows(fw.f),
        "checks": checks,
        "pass": _all_pass(checks.values()),
    }


def cmd_simulate(
    path: str,
    pairs_spec: str,
    cfg: simulate.SimConfig,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat, analysis, om = _load_analyzed(path, tol)
    labels = _labels(mat)
    pairs = None if pairs_spec == "all" else parse_pairs(pairs_spec, labels)
    section = _simulation_section(mat, analysis, om, cfg, pairs, labels, tol)
    return {
        "command": "simulate",
        "input": path,
        "n": mat.n,
        "simulation": section,
        "pass": _all_pass(row["check"] for row in section["pairs"]),
    }


# closed-form values of the built-in counterexample chain, derived by
# first-step analysis: pi = (5/11, 1/11, 5/11), E_1(tau_2) = E_3(tau_2) = 10,
# E_2(tau_1) = E_2(tau_3) = 12, E_1(tau_3) = E_3(tau_1) = 22
_CE_PI_MIDDLE = 1.0 / 11.0
_CE_OMEGA_ENDPOINTS = 20.0
_CE_OMEGA_VIA_MIDDLE = 140.0 / 11.0


def cmd_counterexample(*, tol: Tolerances = DEFAULT) -> dict:
    mat = counterexample_chain()
    report = analyze_report(mat, tol=tol)
    report["command"] = "counterexample"
    om = np.asarray(report["omega"]["fundamental"])
    value_tol = tol.representation_agreement
    extra = {
        "pi_middle_state": _check(report["pi"][1], _CE_PI_MIDDLE, 1e-12),
        "omega_endpoints": _check(om[0, 2], _CE_OMEGA_ENDPOINTS, value_tol),
        "omega_via_middle": _check(
            om[0, 1] + om[1, 2], _CE_OMEGA_VIA_MIDDLE, value_tol
        ),
        "triangle_violation_margin": _check(
            om[0, 2] - om[0, 1] - om[1, 2],
            _CE_OMEGA_ENDPOINTS - _CE_OMEGA_VIA_MIDDLE,
            value_tol,
        ),
    }
    report["checks"].update(extra)
    triangle_breaks = not report["metric"]["triangle_holds"]
    report["counterexample"] = {
        "triangle_breaks": triangle_breaks,
        "worst_triple": report["metric"]["worst_triple"],
    }
    report["pass"] = _all_pass(report["checks"].values()) and triangle_breaks
    return report


def cmd_generate(
    n: int,
    kind: str,
    seed: int,
    out_path: str,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    save_chain(out_path, chain.generate_random_chain(n, kind, seed, tol=tol))
    return {
        "command": "generate",
        "output": out_path,
        "n": n,
        "kind": kind,
        "seed": seed,
        "format": "csv" if out_path.endswith(".csv") else "json",
        "pass": True,
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def parse_pairs(spec: str, labels: list[str]) -> list[tuple[int, int]]:
    """Parse a pair list like "1,3;2,3" using state labels."""
    index = {label: i for i, label in enumerate(labels)}
    pairs = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise _UsageError(f"bad pair {chunk!r}, expected LABEL,LABEL")
        try:
            pairs.append((index[parts[0]], index[parts[1]]))
        except KeyError as exc:
            raise _UsageError(f"unknown state label {exc.args[0]!r}") from exc
    if not pairs:
        raise _UsageError(f"no pairs in {spec!r}")
    return pairs


def _parse_tolerance_overrides(entries: list[str] | None) -> Tolerances:
    tol = DEFAULT
    if not entries:
        return tol
    changes: dict = {}
    valid = Tolerances.field_names()
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise _UsageError(f"--tolerance expects NAME=VALUE, got {entry!r}")
        name = name.strip()
        if name not in valid:
            raise _UsageError(f"unknown tolerance {name!r}")
        try:
            changes[name] = int(value) if name == "sinkhorn_max_sweeps" else float(value)
        except ValueError as exc:
            raise _UsageError(f"bad tolerance value in {entry!r}") from exc
        if not changes[name] >= 0:  # also rejects NaN
            raise _UsageError(f"tolerance {name} must be a non-negative number, got {value!r}")
    return tol.override(**changes)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrdist",
        description="Resistance distance of finite ergodic Markov chains.",
    )
    parser.add_argument("--version", action="version", version=f"mrdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("human", "json"), default="human",
            help="report format (default human)",
        )
        p.add_argument(
            "--tolerance", action="append", metavar="NAME=VALUE",
            help="override a named tolerance; repeatable",
        )

    p = sub.add_parser("analyze", help="full analysis and identity verification")
    p.add_argument("input")
    p.add_argument("--eigentime", choices=("on", "off"), default="on")
    p.add_argument("--forest-cap", type=int, default=forest.DEFAULT_MAX_STATES)
    p.add_argument("--simulate", action="store_true",
                   help="add Monte Carlo cross-checks")
    p.add_argument("--pairs", default="all")
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("sumrule", help="random and canonical sum-rule pairs")
    p.add_argument("input")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("forest-verify", help="check against exact in-forest weights")
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=forest.DEFAULT_MAX_STATES)
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo resistance estimates")
    p.add_argument("input")
    p.add_argument("--pairs", default="all",
                   help='"all" or semicolon list like "1,3;2,3"')
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("counterexample",
                       help="built-in triangle-inequality counterexample")
    common(p)

    p = sub.add_parser("generate", help="write a random chain file")
    p.add_argument("n", type=int)
    p.add_argument("kind", choices=chain.CHAIN_KINDS)
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=None)
    common(p)

    return parser


# main parses with one parser per process: building it costs ~20x a parse
_parser = functools.cache(build_parser)


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get("MR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"MR_SEED is not an integer: {env!r}") from exc
    return 0


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
        tol = _parse_tolerance_overrides(getattr(args, "tolerance", None))
        if args.command == "analyze":
            sim_cfg = None
            if args.simulate:
                sim_cfg = simulate.SimConfig(
                    seed=_resolve_seed(args),
                    replicas=args.replicas,
                    max_steps_per_replica=args.max_steps,
                )
            report = cmd_analyze(
                args.input,
                tol=tol,
                eigentime=args.eigentime == "on",
                forest_cap=args.forest_cap,
                sim_cfg=sim_cfg,
                pairs_spec=args.pairs,
            )
        elif args.command == "sumrule":
            if args.trials < 0:
                raise _UsageError(f"--trials must be non-negative, got {args.trials}")
            report = cmd_sumrule(args.input, args.trials, _resolve_seed(args), tol=tol)
        elif args.command == "forest-verify":
            report = cmd_forest_verify(args.input, args.cap, tol=tol)
        elif args.command == "simulate":
            cfg = simulate.SimConfig(
                seed=_resolve_seed(args),
                replicas=args.replicas,
                max_steps_per_replica=args.max_steps,
            )
            report = cmd_simulate(args.input, args.pairs, cfg, tol=tol)
        elif args.command == "counterexample":
            report = cmd_counterexample(tol=tol)
        else:  # generate
            report = cmd_generate(
                args.n, args.kind, _resolve_seed(args), args.output, tol=tol
            )
    except _UsageError as exc:
        print(f"mrdist: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (MRDistError, ValueError) as exc:
        error_report = {
            "command": getattr(args, "command", None),
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "pass": False,
        }
        _print_report(error_report, getattr(args, "format", "human"))
        return EXIT_INPUT_ERROR

    _print_report(report, args.format)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dumps_json(report) + "\n")
    else:
        sys.stdout.write(render_human(report))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
