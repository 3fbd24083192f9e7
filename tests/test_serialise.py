"""Report serialisation against the per-scalar serialiser it replaced.

``cli.dumps_json`` and ``cli.render_human`` format a row of floats in one
pass. The reference below formats one value per call, as the CLI did before;
both must give the same bytes on edge values, mixed lists and whole reports.
"""

import json

import numpy as np
import pytest

from mrdist import chain, cli

# ---------------------------------------------------------------------------
# reference: one value per call


def ref_float17(x) -> str:
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def ref_json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return ref_float17(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def ref_dumps_json(obj) -> str:
    pieces: list[str] = []
    _ref_emit_json(obj, 0, pieces)
    return "".join(pieces)


def _ref_emit_json(x, depth, pieces) -> None:
    pad = "  " * depth
    if isinstance(x, dict):
        if not x:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(x.items())
        for idx, (k, v) in enumerate(items):
            pieces.append(pad + "  " + json.dumps(str(k)) + ": ")
            _ref_emit_json(v, depth + 1, pieces)
            pieces.append(",\n" if idx < len(items) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(x, (list, tuple, np.ndarray)):
        seq = list(x)
        if not seq:
            pieces.append("[]")
            return
        nested = any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if not nested:
            pieces.append("[" + ", ".join(ref_json_scalar(v) for v in seq) + "]")
        else:
            pieces.append("[\n")
            for idx, v in enumerate(seq):
                pieces.append(pad + "  ")
                _ref_emit_json(v, depth + 1, pieces)
                pieces.append(",\n" if idx < len(seq) - 1 else "\n")
            pieces.append(pad + "]")
    else:
        pieces.append(ref_json_scalar(x))


def _ref_fmt6(x) -> str:
    return format(float(x), ".6g")


def ref_render_human(report: dict) -> str:
    lines: list[str] = []
    for k, v in report.items():
        _ref_emit_human(k, v, 0, lines)
    return "\n".join(lines) + "\n"


def _ref_emit_human(key, val, depth, lines) -> None:
    pad = "  " * depth
    if isinstance(val, dict):
        if set(val) == {"lhs", "rhs", "abs_err", "tolerance", "pass"}:
            verdict = "PASS" if val["pass"] else "FAIL"
            lines.append(
                f"{pad}{key}: lhs={_ref_fmt6(val['lhs'])} rhs={_ref_fmt6(val['rhs'])} "
                f"abs_err={_ref_fmt6(val['abs_err'])} tol={_ref_fmt6(val['tolerance'])} "
                f"{verdict}"
            )
            return
        lines.append(f"{pad}{key}:")
        for k, v in val.items():
            _ref_emit_human(k, v, depth + 1, lines)
    elif isinstance(val, (list, tuple, np.ndarray)):
        seq = list(val)
        if seq and isinstance(seq[0], (list, tuple, np.ndarray)):
            lines.append(f"{pad}{key}:")
            for row in seq:
                lines.append(pad + "  " + "  ".join(f"{float(v):>12.6g}" for v in row))
        elif seq and all(isinstance(v, dict) for v in seq):
            lines.append(f"{pad}{key}:")
            for idx, v in enumerate(seq):
                _ref_emit_human(f"[{idx}]", v, depth + 1, lines)
        else:
            rendered = [
                _ref_fmt6(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in seq
            ]
            lines.append(f"{pad}{key}: [" + ", ".join(rendered) + "]")
    elif isinstance(val, (float, np.floating)):
        lines.append(f"{pad}{key}: {_ref_fmt6(val)}")
    else:
        lines.append(f"{pad}{key}: {val}")


# ---------------------------------------------------------------------------
# edge values and mixed lists

EDGE_ROW = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 2.0**53 + 2, 1e16, 1.2e17, 1e22, 1e-5,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, float("inf"),
    float("-inf"), float("nan"), 123456789.0, -2.5e-300, 70.0 / 11.0,
]

MIXED = {
    "empty": [],
    "empty_nested": [[], [[]]],
    "bools": [True, np.bool_(False), True],
    "ints": [3, np.int64(-2), 0],
    "mixed": [True, np.bool_(False), 3, np.int64(7), np.float64(0.5), None, 'a"b', 1.0],
    "float_then_int": [1.0, 2],
    "float_then_none": [0.0, None],
    "np_floats": [np.float64(2.0), np.float64(-0.0), np.float32(0.1)],
    "tuple": (1.0, 2.5, -0.0),
    "nested": [[1.0, 2.0], [3, None], (True, 0.5)],
    "rows_of_dicts": [{"a": 1.0, "b": [0.0, 1e16]}, {}],
    "array_1d": np.array(EDGE_ROW),
    "array_2d": np.array([EDGE_ROW[:5], EDGE_ROW[5:10]]),
    "array_int": np.arange(4),
    "array_bool": np.array([True, False]),
    "array_empty": np.zeros(0),
    "array_float32": np.array([0.1, 1.0], dtype=np.float32),
    "strings": ["1", "2", "x"],
}


@pytest.mark.parametrize("x", EDGE_ROW, ids=repr)
def test_float17_matches_reference(x):
    assert cli._float17(x) == ref_float17(x)
    assert cli._float17(np.float64(x)) == ref_float17(x)


@pytest.mark.parametrize(
    "row",
    [EDGE_ROW, tuple(EDGE_ROW), np.array(EDGE_ROW), [np.float64(v) for v in EDGE_ROW]],
    ids=["list", "tuple", "ndarray", "np_float64_list"],
)
def test_float_row_matches_reference(row):
    assert cli.dumps_json(row) == ref_dumps_json(row)
    assert cli.dumps_json({"m": [row, row]}) == ref_dumps_json({"m": [row, row]})
    assert cli.render_human({"m": [row, row]}) == ref_render_human({"m": [row, row]})


@pytest.mark.parametrize("key", list(MIXED))
def test_mixed_list_matches_reference(key):
    doc = {key: MIXED[key]}
    assert cli.dumps_json(doc) == ref_dumps_json(doc)
    assert cli.dumps_json(MIXED[key]) == ref_dumps_json(MIXED[key])


def test_human_flat_and_matrix_lists_match_reference():
    doc = {k: v for k, v in MIXED.items() if k not in ("nested", "empty_nested")}
    doc["matrix"] = np.array([EDGE_ROW, EDGE_ROW[::-1]])
    doc["int_matrix"] = [[1, 2], [3, np.int64(4)]]
    assert cli.render_human(doc) == ref_render_human(doc)


def test_saved_chain_files_match_reference(tmp_path):
    mat = chain.generate_random_chain(9, "ergodic", 3)
    cli.save_chain(str(tmp_path / "c.csv"), mat)
    cli.save_chain(str(tmp_path / "c.json"), mat)
    csv = "".join(",".join(ref_float17(v) for v in row) + "\n" for row in mat.P)
    assert (tmp_path / "c.csv").read_text() == csv
    doc = {"states": [str(i + 1) for i in range(9)], "P": mat.P}
    assert (tmp_path / "c.json").read_text() == ref_dumps_json(doc) + "\n"


# ---------------------------------------------------------------------------
# whole reports


def _dyadic_cycle(n: int) -> np.ndarray:
    # lazy cycle with one skewed row: dyadic entries keep the exact forest
    # oracle fast at n = 64
    step = np.roll(np.eye(n), 1, axis=1)
    P = 0.5 * np.eye(n) + 0.25 * (step + step.T)
    P[0] = 0.0
    P[0, 0], P[0, 1], P[0, -1] = 0.5, 0.375, 0.125
    return P


def _write(tmp_path, name, P) -> str:
    path = str(tmp_path / name)
    cli.save_chain(path, chain.validate(P))
    return path


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("reports")
    out = {"counterexample": cli.cmd_counterexample()}
    for n in (3, 16, 64):
        for kind in chain.CHAIN_KINDS:
            path = _write(tmp_path, f"{kind}_{n}.json",
                          chain.generate_random_chain(n, kind, n).P)
            out[f"analyze {kind} {n}"] = cli.cmd_analyze(path)
        path = _write(tmp_path, f"cycle_{n}.csv", _dyadic_cycle(n))
        out[f"analyze cycle {n}"] = cli.cmd_analyze(path)
        out[f"forest-verify cycle {n}"] = cli.cmd_forest_verify(path, cap=n)
        if n <= 16:  # the oracle on a generated chain takes seconds at n = 64
            path = str(tmp_path / f"ergodic_{n}.json")
            out[f"forest-verify ergodic {n}"] = cli.cmd_forest_verify(path, cap=n)
    return out


def test_reports_cover_every_section(reports):
    assert len(reports) == 21
    assert reports["counterexample"]["forest"]["q_roots"]
    assert len(reports["forest-verify cycle 64"]["f"]) == 64
    assert "commute_scaled" in reports["analyze doubly_stochastic 64"]["omega"]


def test_reports_match_reference_json(reports):
    for name, report in reports.items():
        assert cli.dumps_json(report) == ref_dumps_json(report), name


def test_reports_match_reference_human(reports):
    for name, report in reports.items():
        assert cli.render_human(report) == ref_render_human(report), name
