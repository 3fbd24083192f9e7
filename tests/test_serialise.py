"""Report serialisation against the per-scalar serialiser it replaced.

A report holds its matrices as read-only float64 arrays. ``cli.dumps_json``
and ``cli.render_human`` each format the floats of all of a document's
non-empty 2-D float64 arrays in one vectorised pass, each distinct bit
pattern once, and every other float where they meet it. The reference below
formats one value per call, as the CLI did before; both must give the same
bytes on edge values, mixed lists, arrays of every shape and layout, and
whole reports. The arrays a report holds must be read-only.
"""

import json

import numpy as np
import pytest

from mrdist import chain, cli, simulate

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
        real = (int, float, np.integer, np.floating, np.bool_)
        if seq and all(
            isinstance(row, (list, tuple, np.ndarray)) and all(isinstance(v, real) for v in row)
            for row in seq
        ):
            lines.append(f"{pad}{key}:")
            for row in seq:
                lines.append(pad + "  " + "  ".join(f"{float(v):>12.6g}" for v in row))
        elif any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
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
    "table_then_scalar": [np.eye(2), 0.5],
    "row_with_none": [[1.0, None]],
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


def test_recurring_zeros_and_nans_match_reference():
    # 0.0 == -0.0 and NaN != NaN: neither may take another value's token
    nan = float("nan")
    row = [0.0, -0.0, nan, 0.5, -0.0, 0.0, float("nan"), -0.5]
    doc = {
        "m1": [row, row[::-1], [-0.0] * 3, [nan, nan]],
        "m2": np.array([row, [-0.0, 0.0, nan, -0.5, 0.5, -0.0, 0.0, nan]]),
        "scalars": [-0.0, 0.0, nan],
        "rows": [[0.0], [-0.0], [nan], [np.float64(-0.0)], [np.float64(nan)]],
    }
    assert cli.dumps_json(doc) == ref_dumps_json(doc)


def test_numpy_float_equal_to_an_earlier_float_matches_reference():
    doc = {"a": [0.1, 1 / 3, 1e16], "b": [np.float64(0.1), np.float64(1 / 3)],
           "c": np.array([1e16, 0.1]), "d": [1 / 3, 1e16]}
    assert cli.dumps_json(doc) == ref_dumps_json(doc)


def test_each_distinct_float_formatted_once_per_call(monkeypatch):
    # lists of floats take the per-value path
    doc = {"a": [0.1, 0.2, 0.1], "b": [[0.2, 0.1], [0.0, -0.0]], "c": [0.0, 0.3]}
    assert cli.dumps_json(doc) == ref_dumps_json(doc)

    # arrays: one pass formats each distinct bit pattern of all of them once
    passes = []
    real_each = cli._float17_each
    monkeypatch.setattr(cli, "_float17_each", lambda xs: passes.append(xs.copy()) or real_each(xs))
    nan = float("nan")
    a = np.array([[0.1, 0.2, 0.1], [0.0, -0.0, 0.0], [nan, 0.3, nan]])
    arrays = {"a": a, "b": a.T, "c": {"d": np.array([[0.2, 0.4]])}, "list": [0.1, 0.5]}
    first = cli.dumps_json(arrays)
    assert first == ref_dumps_json(arrays)
    bits = sorted({int(b) for b in np.concatenate([a.ravel(), [0.4]]).view(np.int64)})
    assert len(bits) == 7  # 0.0 and -0.0 apart, NaN once
    assert len(passes) == 1
    assert sorted(passes[0].view(np.int64).tolist()) == bits
    passes.clear()
    assert cli.dumps_json(arrays) == first
    assert len(passes) == 1 and sorted(passes[0].view(np.int64).tolist()) == bits

    # human tables: one "%12.6g" pass a call over the same bit patterns, with
    # nothing remembered between calls
    human = []
    real_fmt6 = cli._fmt6_each
    monkeypatch.setattr(cli, "_fmt6_each", lambda xs: human.append(xs.copy()) or real_fmt6(xs))
    text = cli.render_human(arrays)
    assert text == ref_render_human(arrays)
    assert len(human) == 1 and sorted(human[0].view(np.int64).tolist()) == bits
    human.clear()
    assert cli.render_human(arrays) == text
    assert len(human) == 1 and sorted(human[0].view(np.int64).tolist()) == bits
    assert len(passes) == 1  # neither format calls the other's formatter


# ---------------------------------------------------------------------------
# 2-D float64 arrays: one vectorised pass per document

_EDGE = np.array(EDGE_ROW)  # 20 values: +-0.0, NaN, +-inf, 1e16, 5e-324, integral floats
ARRAYS = {
    "1x1": _EDGE[:1].reshape(1, 1),
    "1x1_nan": np.full((1, 1), np.nan),
    "1xn": _EDGE.reshape(1, -1),
    "nx1": _EDGE.reshape(-1, 1),
    "4x5": _EDGE.reshape(4, 5),
    "transposed": _EDGE.reshape(4, 5).T,
    "strided": _EDGE.reshape(4, 5)[:, ::2],
    "reversed_rows": _EDGE.reshape(4, 5)[::-1],
    "integral": np.arange(-6.0, 6.0).reshape(3, 4) * 1e15,
    "near_1e17": np.array([[1e17, np.nextafter(1e17, 0), -np.nextafter(1e17, 0)]]),
    "float32": np.array([[0.1, -0.0, 1.0], [np.nan, np.inf, 3.5]], dtype=np.float32),
    "int": np.arange(12).reshape(3, 4),
    "empty_rows": np.zeros((0, 3)),
    "empty_cols": np.zeros((3, 0)),
}


@pytest.mark.parametrize("key", list(ARRAYS))
def test_array_document_matches_lists_and_reference(key):
    a = ARRAYS[key]
    doc = {"m": a, "nested": {"rows": [a, 0.5, a.copy()]}, "after": [1.0, -0.0]}
    as_lists = {"m": a.tolist(), "nested": {"rows": [a.tolist(), 0.5, a.tolist()]},
                "after": [1.0, -0.0]}
    assert cli.dumps_json(doc) == cli.dumps_json(as_lists) == ref_dumps_json(doc)
    assert cli.dumps_json(a) == ref_dumps_json(a)
    # a human report holds no list that mixes tables and scalars
    doc = {"m": a, "nested": {"again": a.copy(), "x": 0.5}, "after": [1.0, -0.0]}
    as_lists = {"m": a.tolist(), "nested": {"again": a.tolist(), "x": 0.5},
                "after": [1.0, -0.0]}
    assert cli.render_human(doc) == cli.render_human(as_lists) == ref_render_human(doc)


@pytest.mark.parametrize("key", ["float32", "int", "empty_rows", "empty_cols"])
def test_other_arrays_keep_the_generic_path(monkeypatch, key):
    # the vectorised passes would fail
    monkeypatch.setattr(cli, "_float17_each", None)
    monkeypatch.setattr(cli, "_fmt6_each", None)
    doc = {"m": ARRAYS[key], "f": [0.25, 1.0]}
    assert cli.dumps_json(doc) == ref_dumps_json(doc)
    assert cli.render_human(doc) == ref_render_human(doc)


def test_vectorised_format_matches_float17_on_random_bits():
    rng = np.random.default_rng(0)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000,
                        dtype=np.int64, endpoint=True)
    random = bits.view(np.float64)
    # signalling NaNs made quiet: float arithmetic never yields one
    bits[np.isnan(random)] |= 1 << 51
    p10 = 10.0 ** np.arange(-30.0, 31.0)
    integral = np.concatenate([
        rng.integers(-10**17, 10**17, 5_000).astype(float),
        np.ldexp(1.0, np.arange(-1074, 1024)), p10,
        np.nextafter(p10, 0.0), np.nextafter(p10, np.inf),
    ])
    for xs in (random, integral, -integral, _EDGE):
        assert cli._float17_each(xs) == [ref_float17(x) for x in xs]


def test_human_flat_and_matrix_lists_match_reference():
    doc = dict(MIXED)
    doc["matrix"] = np.array([EDGE_ROW, EDGE_ROW[::-1]])
    doc["int_matrix"] = [[1, 2], [3, np.int64(4)]]
    assert cli.render_human(doc) == ref_render_human(doc)


@pytest.mark.parametrize(
    "doc, text",
    [
        ({"rows": [np.eye(2), 0.5]},
         "rows:\n  [0]:\n               1             0\n               0             1\n"
         "  [1]: 0.5\n"),
        ({"rows": [[1.0, None]]}, "rows:\n  [0]: [1, None]\n"),
    ],
)
def test_human_lists_that_are_not_rows_of_numbers_go_entry_by_entry(doc, text):
    # only a list whose every entry is a row of numbers is printed as rows
    assert cli.render_human(doc) == text
    assert cli.dumps_json(doc) == ref_dumps_json(doc)


# 0-d arrays, as a NumPy reduction may return, beside the scalars they print as
ZERO_D = {
    "top": ({"x": np.array(1.0)}, {"x": 1.0}),
    "in_list": ({"x": [np.array(1.0)]}, {"x": [1.0]}),
    "in_rows": ({"x": [[np.array(1.0), 2.0], [3.0, np.array(4)]]},
                {"x": [[1.0, 2.0], [3.0, np.int64(4)]]}),
    "dtypes": ({"x": [np.array(np.nan), np.array(-0.0), np.array(3), np.array(True),
                      np.array("s"), np.array(0.1, dtype=np.float32)]},
               {"x": [np.nan, -0.0, np.int64(3), np.True_, "s", np.float32(0.1)]}),
    "beside_table": ({"m": np.eye(2), "d": {"y": np.array(0.5)},
                      "x": [{"z": np.array(1e16)}, np.array(2.0)]},
                     {"m": np.eye(2), "d": {"y": 0.5}, "x": [{"z": 1e16}, 2.0]}),
}


@pytest.mark.parametrize("key", list(ZERO_D))
def test_zero_d_arrays_print_as_their_scalars(key):
    doc, scalars = ZERO_D[key]
    assert cli.dumps_json(doc) == cli.dumps_json(scalars) == ref_dumps_json(scalars)
    assert cli.render_human(doc) == cli.render_human(scalars) == ref_render_human(scalars)


def test_saved_chain_files_match_reference(tmp_path):
    # a birth-death chain's zeros need the ".0" rule
    for n, kind, seed in ((9, "ergodic", 3), (9, "birth_death", 1), (64, "ergodic", 0),
                          (64, "birth_death", 2)):
        mat = chain.generate_random_chain(n, kind, seed)
        cli.save_chain(str(tmp_path / "c.csv"), mat)
        cli.save_chain(str(tmp_path / "c.json"), mat)
        csv = "".join(",".join(ref_float17(v) for v in row) + "\n" for row in mat.P)
        assert (tmp_path / "c.csv").read_text() == csv, (n, kind)
        doc = {"states": [str(i + 1) for i in range(n)], "P": mat.P}
        assert (tmp_path / "c.json").read_text() == ref_dumps_json(doc) + "\n", (n, kind)


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


@pytest.mark.parametrize("kind", chain.CHAIN_KINDS)
@pytest.mark.parametrize("n", [32, 64])
def test_analyze_reports_match_reference_json(tmp_path, kind, n):
    for seed in (0, 1):
        path = _write(tmp_path, f"{kind}_{n}_{seed}.json",
                      chain.generate_random_chain(n, kind, seed).P)
        report = cli.cmd_analyze(path)
        assert cli.dumps_json(report) == ref_dumps_json(report), seed


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _arrays(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _arrays(v)


def test_report_arrays_are_read_only(tmp_path):
    path = _write(tmp_path, "ds.json", chain.generate_random_chain(4, "doubly_stochastic", 0).P)
    sim = simulate.SimConfig(seed=1, replicas=200, max_steps_per_replica=10_000)
    reports = {
        "analyze": cli.cmd_analyze(path, sim_cfg=sim, pairs_spec="1,2"),
        "sumrule": cli.cmd_sumrule(path, 5, 1),
        "forest-verify": cli.cmd_forest_verify(path),
        "simulate": cli.cmd_simulate(path, "1,2", sim),
        "counterexample": cli.cmd_counterexample(),
    }
    for name, report in reports.items():
        for a in _arrays(report):
            assert not a.flags.writeable, name
    # the matrices are the arrays: omega's four copies and the eigenvalues; f
    assert len(list(_arrays(reports["analyze"]))) == 5
    assert len(list(_arrays(reports["forest-verify"]))) == 1
    assert len(list(_arrays(reports["counterexample"]))) == 4
