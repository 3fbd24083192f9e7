"""Command-line surface: ingest chains, run analyses, verify identities.

Subcommands: analyze, sumrule, forest-verify, simulate, counterexample,
generate. A chain file whose name ends in .json is JSON ({"states": [...],
"P": [[...], ...]}, labels optional); any other name is CSV (n lines of n
comma-separated decimals, no header), for reading and writing alike.
Reports print to stdout as human tables (6 significant digits) or as JSON
with 17-significant-digit floats; in both, one pass formats each distinct
float of a report's matrices, which are read-only float64 arrays. Every
identity check has exactly the fields {lhs, rhs, abs_err, tolerance, pass}.
Exit codes: 0 all checks pass, 1 input or usage error, 2 identity check
failure. The MR_SEED environment variable supplies a default seed; --seed wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii

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

def _chain_format(path: str) -> str:
    """The format of a chain file: "json" for a .json name, "csv" otherwise."""
    return "json" if path.endswith(".json") else "csv"


def load_chain(path: str, *, tol: Tolerances = DEFAULT) -> chain.StochasticMatrix:
    """Read a chain file in the format :func:`_chain_format` names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

    labels = None
    if _chain_format(path) == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "P" not in doc:
            raise ParseError(f'{path}: expected an object with a "P" key')
        rows = doc["P"]
        # np.array would take booleans and numeric strings as numbers
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and set(map(type, row)) <= {int, float} for row in rows
        ):
            raise ParseError(f'{path}: "P" must be an array of rows of JSON numbers')
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
    return chain.validate(arr, state_labels=labels, tol=tol)


def save_chain(path: str, mat: chain.StochasticMatrix) -> None:
    """Write a chain file in the format :func:`_chain_format` names."""
    if _chain_format(path) == "json":
        text = dumps_json({"states": _labels(mat), "P": mat.P}) + "\n"
    else:
        tokens = iter(_float17_tokens([mat.P], _float17_each))
        text = "".join(",".join(islice(tokens, mat.n)) + "\n" for _ in range(mat.n))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# report serialization

def _float17(x) -> str:
    """A float at 17 significant digits, marked as a float by a '.' or an
    exponent ("1.0", "-0.0", "1e+16", "inf.0")."""
    s = "%.17g" % x
    return s if "." in s or "e" in s else s + ".0"


def _format_each(fmt: str, xs: np.ndarray) -> list[str]:
    """``fmt % x`` for each entry of a 1-D float64 array, in one %-call."""
    return ("\0".join([fmt] * len(xs)) % tuple(xs.tolist())).split("\0")


def _float17_each(xs: np.ndarray) -> list[str]:
    """:func:`_float17` of each entry of a 1-D float64 array, in one %-call;
    only an integer, an infinity or a NaN can print without '.' and 'e'."""
    tokens = _format_each("%.17g", xs)
    for i in np.flatnonzero((xs == np.trunc(xs)) | np.isnan(xs)).tolist():
        if "e" not in tokens[i]:
            tokens[i] += ".0"
    return tokens


# a human table cell: 6 significant digits, right-aligned in 12 columns
_fmt6_each = functools.partial(_format_each, "%12.6g")


def _float17_tokens(arrays, fmt_each) -> list[str]:
    """``fmt_each`` of the entries of float64 arrays, row-major, one array after
    another, in one call that formats each distinct bit pattern once (0.0 and -0.0 apart)."""
    flat = arrays[0].ravel() if len(arrays) == 1 else np.concatenate(arrays, axis=None)
    bits = flat.view(np.int64)
    order = bits.argsort()
    ordered = bits[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    inverse = np.empty_like(order)
    inverse[order] = first.cumsum() - 1
    distinct = np.array(fmt_each(ordered[first].view(np.float64)), dtype=object)
    return distinct[inverse].tolist()


def _is_table(x) -> bool:
    """A non-empty 2-D float64 array: its floats take :func:`_float17_tokens`."""
    return isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64 and x.size > 0


def _scalar(x):
    """A 0-d array's scalar ``x[()]``, which it prints as; any other value as it is."""
    return x[()] if isinstance(x, np.ndarray) and x.ndim == 0 else x


def _json_scalar(x) -> str:
    if isinstance(x, (float, np.floating)):  # most scalars of a report
        return _float17(x)
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits. Each table leaves
    a slot in the one walk of the document, and one pass formats the floats of
    all slots; every other float is formatted where the walk meets it."""
    pieces: list[str] = []
    slots: list[tuple[int, np.ndarray, str]] = []
    _emit_json(obj, 0, pieces, slots)
    if slots:
        tokens = iter(_float17_tokens([a for _, a, _ in slots], _float17_each))
        for idx, a, pad in slots:
            rows = ["[" + ", ".join(islice(tokens, a.shape[1])) + "]" for _ in range(len(a))]
            pieces[idx] = f"[\n{pad}  " + f",\n{pad}  ".join(rows) + f"\n{pad}]"
    return "".join(pieces)


# module-level rather than a closure: a self-referencing closure is a
# reference cycle that keeps ``pieces`` alive until the next garbage collection
def _emit_json(x, depth: int, pieces: list[str], slots: list) -> None:
    pad = "  " * depth
    if isinstance(x, dict):
        if not x:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for idx, (k, v) in enumerate(x.items()):
            pieces.append(pad + "  " + encode_basestring_ascii(str(k)) + ": ")
            _emit_json(v, depth + 1, pieces, slots)
            pieces.append(",\n" if idx < len(x) - 1 else "\n")
        pieces.append(pad + "}")
    elif not isinstance(x, (list, tuple, np.ndarray)):
        pieces.append(_json_scalar(x))
    elif _is_table(x):
        slots.append((len(pieces), x, pad))  # dumps_json fills it in
        pieces.append("")
    elif isinstance(x, np.ndarray) and x.ndim == 0:
        _emit_json(x[()], depth, pieces, slots)
    else:
        seq = [_scalar(v) for v in x]
        nested = any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if not nested:
            pieces.append("[" + ", ".join(_json_scalar(v) for v in seq) + "]")
        else:
            pieces.append("[\n")
            for idx, v in enumerate(seq):
                pieces.append(pad + "  ")
                _emit_json(v, depth + 1, pieces, slots)
                pieces.append(",\n" if idx < len(seq) - 1 else "\n")
            pieces.append(pad + "]")


_CHECK_FIELDS = ("lhs", "rhs", "abs_err", "tolerance", "pass")
_REAL = (int, float, np.integer, np.floating, np.bool_)  # entries of a row of numbers


def _fmt6(x) -> str:
    """A float at 6 significant digits; any other scalar as ``str`` gives it."""
    return format(float(x), ".6g") if isinstance(x, (float, np.floating)) else str(x)


def render_human(report: dict) -> str:
    """Indented key/value rendering with 6-digit tables; as in :func:`dumps_json`,
    one pass formats the floats of every table of the report."""
    lines: list[str] = []
    slots: list[tuple[int, np.ndarray, str]] = []
    for k, v in report.items():
        _emit_human(k, v, 0, lines, slots)
    if slots:
        tokens = iter(_float17_tokens([a for _, a, _ in slots], _fmt6_each))
        for idx, a, pad in slots:
            rows = (f"\n{pad}  " + "  ".join(islice(tokens, a.shape[1])) for _ in range(len(a)))
            lines[idx] += "".join(rows)
    return "\n".join(lines) + "\n"


def _emit_human(key, val, depth: int, lines: list[str], slots: list) -> None:
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
            _emit_human(k, v, depth + 1, lines, slots)
    elif not isinstance(val, (list, tuple, np.ndarray)):
        lines.append(f"{pad}{key}: {_fmt6(val)}")
    elif _is_table(val):
        slots.append((len(lines), val, pad))  # render_human appends the rows
        lines.append(f"{pad}{key}:")
    elif isinstance(val, np.ndarray) and val.ndim == 0:
        _emit_human(key, val[()], depth, lines, slots)
    else:
        seq = val.tolist() if isinstance(val, np.ndarray) else [_scalar(v) for v in val]
        if seq and all(isinstance(row, (list, tuple, np.ndarray)) for row in seq) and all(
            isinstance(_scalar(v), _REAL) for row in seq for v in row
        ):
            lines.append(f"{pad}{key}:")
            for row in seq:
                lines.append(pad + "  " + "  ".join(map("%12.6g".__mod__, row)))
        elif any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            lines.append(f"{pad}{key}:")
            for idx, v in enumerate(seq):
                _emit_human(f"[{idx}]", v, depth + 1, lines, slots)
        else:
            lines.append(f"{pad}{key}: [" + ", ".join(map(_fmt6, seq)) + "]")


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


def _identity_check(lhs: float, rhs: float, tol: Tolerances) -> dict:
    """lhs = rhs, bounded at the size of the larger side."""
    return _check(lhs, rhs, tol.bound(max(abs(lhs), abs(rhs))))


def _agreement_check(value: np.ndarray, reference: np.ndarray, tol: Tolerances) -> dict:
    """max |value - reference|, bounded at the size of the reference."""
    return _check(np.abs(value - reference).max(), 0.0, tol.bound(np.abs(reference).max()))


def _canonical_pair_checks(pairs, analysis: chain.ChainAnalysis, tol: Tolerances) -> dict:
    """Identity checks of the named pairs M = diag(pi), K = pairs[name], as one stack."""
    K = np.stack(list(pairs.values()))
    M = np.broadcast_to(np.diag(analysis.pi), K.shape)
    lhs, rhs = resistance.sum_rule(M, K, analysis.omega, analysis.F, tol=tol)
    return {name: _identity_check(left, right, tol) for name, left, right in zip(pairs, lhs, rhs)}


def _forest_checks(fw, analysis: chain.ChainAnalysis, tol: Tolerances) -> dict:
    """pi, H and Omega from the forest weights against the F route."""
    return {
        "forest_stationary": _agreement_check(forest.stationary_from_forest(fw), analysis.pi, tol),
        "forest_hitting": _agreement_check(forest.hitting_from_forest(fw), analysis.H, tol),
        "forest_omega": _agreement_check(forest.omega_from_forest(fw), analysis.omega, tol),
    }


# ---------------------------------------------------------------------------
# the shared analysis pipeline

def _labels(mat: chain.StochasticMatrix) -> list[str]:
    if mat.state_labels:
        return list(mat.state_labels)
    return [str(i + 1) for i in range(mat.n)]


def _triple_labels(triple, labels) -> list[str] | None:
    if triple is None:
        return None
    return [labels[t] for t in triple]


def analyze_report(
    mat: chain.StochasticMatrix,
    *,
    tol: Tolerances = DEFAULT,
    eigentime: bool = True,
    forest_cap: int = forest.DEFAULT_MAX_STATES,
    sim_cfg: simulate.SimConfig | None = None,
    sim_pairs: list[tuple[int, int]] | None = None,
) -> dict:
    """Full analysis document for an ergodic chain; raises on input errors.

    Its matrices, ``omega.*`` and ``eigenvalues`` as (real, imag) rows, are
    read-only float64 arrays. ``sim_pairs`` lists the state index pairs to
    simulate when ``sim_cfg`` is given.
    """
    labels = _labels(mat)
    n = mat.n
    P = mat.P
    analysis = chain.analyze(mat, tol=tol)
    erg = analysis.ergodicity
    pi, F, D, H, om = analysis.pi, analysis.F, analysis.D, analysis.H, analysis.omega
    report: dict = {
        "command": "analyze",
        "n": n,
        "states": labels,
        "ergodicity": dataclasses.asdict(erg),
        "pi": [float(v) for v in pi],
        "t_av": analysis.t_av,
    }

    om_d = resistance.omega_from_group_inverse(D)
    om_h = resistance.omega_from_hitting(H, pi)
    report["omega"] = {"fundamental": om, "group_inverse": om_d, "hitting_time": om_h}
    if erg.is_doubly_stochastic:
        om_c = report["omega"]["commute_scaled"] = resistance.omega_from_commute(H, erg)

    metric = resistance.metric_check(om, tol=tol)
    report["metric"] = {
        **dataclasses.asdict(metric),
        "worst_triple": _triple_labels(metric.worst_triple, labels),
    }

    kirch = resistance.kirchhoff_indices(om, pi, analysis.t_av)
    report["kirchhoff"] = dataclasses.asdict(kirch)

    checks: dict[str, dict] = {}
    skipped: dict[str, str] = {}

    t_av, kemeny_sum = analysis.t_av, 2.0 * n * analysis.t_av
    max_d = np.abs(D).max()
    f_tol, d_tol = tol.bound(np.abs(F).max()), tol.bound(max_d)
    checks["stationary_residual"] = _agreement_check(pi @ P, pi, tol)
    residual_f = np.abs(F @ (np.eye(n) - P + analysis.Pi) - np.eye(n)).max()
    checks["fundamental_residual"] = _check(residual_f, 0.0, f_tol)
    checks["fundamental_row_sums"] = _check(np.abs(F.sum(axis=1) - 1.0).max(), 0.0, f_tol)
    checks["group_inverse_row_sums"] = _check(np.abs(D.sum(axis=1)).max(), 0.0, d_tol)
    ip = np.eye(n) - P
    # D(I - P)D - D is quadratic in D, so it is scaled down by max(1, max|D|)
    axioms = max(
        np.abs(ip @ D @ ip - ip).max(),
        np.abs(D @ ip @ D - D).max() / max(1.0, max_d),
        np.abs(ip @ D - D @ ip).max(),
    )
    checks["group_inverse_axioms"] = _check(axioms, 0.0, d_tol)
    checks["stationary_projection"] = _check(
        np.abs(analysis.Pi @ F - analysis.Pi).max(), 0.0, f_tol
    )
    checks["random_target_spread"] = _check(np.ptp(H @ pi), 0.0, tol.bound(t_av))
    checks["hitting_time_oracle"] = _check(
        np.abs(H - chain.hitting_times_oracle(mat, tol=tol)).max(), 0.0, tol.hitting_agreement
    )
    checks["representation_group_inverse"] = _agreement_check(om_d, om, tol)
    checks["representation_hitting_time"] = _agreement_check(om_h, om, tol)
    if erg.is_doubly_stochastic:
        checks["representation_commute_scaled"] = _agreement_check(om_c, om, tol)
        checks["triangle_inequality"] = _check(
            max(metric.worst_violation, 0.0), 0.0, tol.bound(om.max())
        )
    checks["kirchhoff_vs_kemeny"] = _check(kirch.kirchhoff, kemeny_sum, tol.bound(kemeny_sum))
    if eigentime:
        eigs = linalg.eigenvalues(P)
        report["eigenvalues"] = np.column_stack((eigs.real, eigs.imag))
        report["eigenvalues"].setflags(write=False)
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
            checks["kemeny_vs_eigentime"] = _check(t_av, et, tol.eigentime * max(1.0, t_av))
            checks["kirchhoff_vs_eigentime"] = _check(
                kirch.kirchhoff, 2.0 * n * et, tol.eigentime * max(1.0, kemeny_sum)
            )
    checks["multiplicative_kirchhoff"] = _check(
        kirch.multiplicative, 2.0 * float(pi @ np.diag(F) - pi @ pi), f_tol
    )
    checks["additive_lower_bound"] = _check(
        kirch.additive, kirch.additive_lower, tol.bound(kirch.additive_lower),
        abs_err=max(0.0, kirch.additive_lower - kirch.additive),
    )
    checks["additive_upper_bound"] = _check(
        kirch.additive, kirch.additive_upper, tol.bound(kirch.additive_upper),
        abs_err=max(0.0, kirch.additive - kirch.additive_upper),
    )
    checks |= _canonical_pair_checks({"sum_rule_stationary_pair": analysis.Pi}, analysis, tol)

    if erg.is_reversible:
        f_lhs, f_rhs = resistance.foster_sum(mat, om, 3, analysis)
        for m, (left, right) in enumerate(zip(f_lhs, f_rhs), start=1):
            checks[f"foster_trace_m{m}"] = _identity_check(left, right, tol)
        if erg.is_doubly_stochastic:
            checks["foster_first_formula"] = _check(
                resistance.foster_first_formula(mat, om), 2.0 * (n - 1),
                tol.bound(2.0 * (n - 1)),
            )
    else:
        skipped["foster"] = "chain is not reversible (detailed balance fails)"

    sqrt_metric = resistance.metric_check(
        resistance.resistance_matrix(np.sqrt(om)), tol=tol
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
        checks.update(_forest_checks(fw, analysis, tol))
    else:
        skipped["forest"] = f"n = {n} exceeds the enumeration cap {forest_cap}"

    records = list(checks.values())
    if sim_cfg is not None:
        report["simulation"] = _simulation_section(mat, analysis, sim_cfg, sim_pairs, labels, tol)
        records += [row["check"] for row in report["simulation"]["pairs"]]

    if skipped:
        report["skipped"] = skipped
    report["checks"] = checks
    report["pass"] = all(rec["pass"] for rec in records)
    return report


def _simulation_section(mat, analysis, cfg, pairs, labels, tol) -> dict:
    rows = []
    for i, j in pairs:
        row: dict = {"pair": [labels[i], labels[j]]}
        try:
            est = simulate.estimate_omega(mat, i, j, analysis.pi, cfg)
        except MaxStepsExceededError as exc:
            # no estimate; the check fails since Omega[i, j] >= pi[i] + pi[j] > 0
            row["error"] = str(exc)
            row["check"] = _check(0.0, analysis.omega[i, j], 0.0)
        else:
            row["estimate"] = est.mean
            row["std_error"] = est.std_error
            row["check"] = _check(
                est.mean, float(analysis.omega[i, j]), tol.sigma_band * est.std_error
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
    sim_pairs = None if sim_cfg is None else parse_pairs(pairs_spec, _labels(mat))
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


# Random sum-rule trials are built and checked in stacks of at most this many
# entries (128 KiB) per (k, n, n) array, so that a stack's temporaries stay in
# cache and memory does not grow with --trials. On a 2-vCPU Xeon (2 MiB L2 a
# core), `sumrule --trials 200` at n = 64 took 80-90 ms in stacks of 2**14 to
# 2**16 entries, 90-100 ms one trial at a time and 103-106 ms in one stack.
_PAIR_BLOCK_ENTRIES = 2**14


def _random_pair_sides(seeds, analysis: chain.ChainAnalysis, tol: Tolerances):
    """Both sides of the sum rule for the random pair of each seed, as the
    rows of a (2, k) array, built and checked one block of trials at a time."""
    n = len(analysis.omega)
    sides = np.empty((2, len(seeds)))
    block = max(1, _PAIR_BLOCK_ENTRIES // n**2)
    for lo in range(0, len(seeds), block):
        M, K = resistance.make_sum_rule_pair(n, seeds[lo:lo + block], tol=tol)
        sides[:, lo:lo + block] = resistance.sum_rule(M, K, analysis.omega, analysis.F, tol=tol)
    return sides


def cmd_sumrule(
    path: str,
    trials: int,
    seed: int,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat = load_chain(path, tol=tol)
    if mat.n < 2:  # every pair of a one-state chain gives 0 = 0
        raise _UsageError("sum rules need n >= 2 states: a one-state chain has no pairs")
    analysis = chain.analyze(mat, tol=tol)

    pairs = {"canonical_stationary_pair": analysis.Pi}
    skipped: dict[str, str] = {}
    if analysis.ergodicity.is_reversible:
        P, P2 = mat.P, mat.P @ mat.P
        pairs |= {"canonical_power_pair_m1": P, "canonical_power_pair_m2": P2,
                  "canonical_power_pair_m3": P2 @ P}
    else:
        skipped["power_pairs"] = (
            "transition-power pairs need a reversible chain "
            "(M(K - I) would not be symmetric)"
        )
    checks = _canonical_pair_checks(pairs, analysis, tol)

    lhs, rhs = _random_pair_sides(range(seed, seed + trials), analysis, tol)
    err = np.abs(lhs - rhs)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    bound = np.array([tol.bound(s) for s in scale.tolist()])
    random_section: dict = {"trials": trials, "max_abs_err": float(err.max(initial=0.0))}
    # the first trial of the largest err - bound holds the verdict of them all
    if trials:
        worst = int(np.argmax(err - bound))
        checks["random_pairs_worst"] = _identity_check(lhs[worst], rhs[worst], tol)

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
    report["pass"] = all(rec["pass"] for rec in checks.values())
    return report


def cmd_forest_verify(
    path: str,
    cap: int = forest.DEFAULT_MAX_STATES,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat = load_chain(path, tol=tol)
    analysis = chain.analyze(mat, tol=tol)
    fw = forest.enumerate_forests(mat, max_n=cap)
    checks = _forest_checks(fw, analysis, tol)
    return {
        "command": "forest-verify",
        "input": path,
        "n": mat.n,
        "q_roots": [float(v) for v in fw.q_roots],
        "q_total": fw.q_total,
        "f": fw.f,
        "checks": checks,
        "pass": all(rec["pass"] for rec in checks.values()),
    }


def cmd_simulate(
    path: str,
    pairs_spec: str,
    cfg: simulate.SimConfig,
    *,
    tol: Tolerances = DEFAULT,
) -> dict:
    mat = load_chain(path, tol=tol)
    analysis = chain.analyze(mat, tol=tol)
    labels = _labels(mat)
    pairs = parse_pairs(pairs_spec, labels)
    section = _simulation_section(mat, analysis, cfg, pairs, labels, tol)
    return {
        "command": "simulate",
        "input": path,
        "n": mat.n,
        "simulation": section,
        "pass": all(row["check"]["pass"] for row in section["pairs"]),
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
    om = report["omega"]["fundamental"]
    value_tol = tol.bound(om.max())
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
    report["pass"] = all(rec["pass"] for rec in report["checks"].values()) and triangle_breaks
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
        "format": _chain_format(out_path),
        "pass": True,
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def parse_pairs(spec: str, labels: list[str]) -> list[tuple[int, int]]:
    """Parse "all" or a pair list like "1,3;2,3" using state labels."""
    if spec == "all":
        if len(labels) < 2:  # a report of zero checks would pass vacuously
            raise _UsageError(f"no pairs in {spec!r}: a one-state chain has none")
        return list(combinations(range(len(labels)), 2))
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
            pair = (index[parts[0]], index[parts[1]])
        except KeyError as exc:
            raise _UsageError(f"unknown state label {exc.args[0]!r}") from exc
        if pair[0] == pair[1]:
            raise _UsageError(f"pair {chunk!r} names one state twice")
        pairs.append(pair)
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
            changes[name] = float(value)
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

    def simulation(p):
        p.add_argument("--pairs", default="all",
                       help='"all" or semicolon list like "1,3;2,3"')
        p.add_argument("--replicas", type=int, default=100_000)
        p.add_argument("--max-steps", type=int, default=10_000_000)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("analyze", help="full analysis and identity verification")
    p.add_argument("input")
    p.add_argument("--eigentime", choices=("on", "off"), default="on")
    p.add_argument("--forest-cap", type=int, default=forest.DEFAULT_MAX_STATES)
    p.add_argument("--simulate", action="store_true",
                   help="add Monte Carlo cross-checks")
    simulation(p)
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
    simulation(p)
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


def _sim_config(args) -> simulate.SimConfig:
    return simulate.SimConfig(
        seed=_resolve_seed(args),
        replicas=args.replicas,
        max_steps_per_replica=args.max_steps,
    )


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
        tol = _parse_tolerance_overrides(getattr(args, "tolerance", None))
        if args.command == "analyze":
            report = cmd_analyze(
                args.input,
                tol=tol,
                eigentime=args.eigentime == "on",
                forest_cap=args.forest_cap,
                sim_cfg=_sim_config(args) if args.simulate else None,
                pairs_spec=args.pairs,
            )
        elif args.command == "sumrule":
            if args.trials < 0:
                raise _UsageError(f"--trials must be non-negative, got {args.trials}")
            report = cmd_sumrule(args.input, args.trials, _resolve_seed(args), tol=tol)
        elif args.command == "forest-verify":
            report = cmd_forest_verify(args.input, args.cap, tol=tol)
        elif args.command == "simulate":
            report = cmd_simulate(args.input, args.pairs, _sim_config(args), tol=tol)
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
