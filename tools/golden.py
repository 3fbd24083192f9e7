"""Golden outputs: run a fixed set of mrdist command lines in-process and
record what each prints, or compare two such records.

    python tools/golden.py capture SRC_DIR OUT.json
    python tools/golden.py diff BEFORE.json AFTER.json

``capture`` imports ``mrdist`` from SRC_DIR (a checkout's ``src/``), so the
same script records any two versions of the package. It writes its
hand-made chain files with the standard library, makes the generated ones
with the ``generate`` subcommand (itself a recorded case), and runs every
command from inside one scratch directory, so the file names in reports are
relative and two captures of one version are byte-identical. Each case
records the exit code, stdout and stderr of ``mrdist.cli.main``, or the
exception that escapes it; library cases record the result or the exception
of a direct ``linalg.lu_solve`` call.

The command lines cover every subcommand in human and JSON output, input
and usage errors, which of two errors a command line reports first,
non-ergodic and one-state chains, slow-mixing chains
whose checks fail on rounding, Monte Carlo legs on
n = 16 chains, legs stopped by ``--max-steps``, replica counts near and past
the int64 range, and every ``--help``.

``diff`` prints the name of each case whose record differs, with the first
differing lines, then a count of identical and differing cases. It exits 0
when every case is identical and 1 otherwise, also when its reader closes
the pipe early (``diff ... | head``).
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import numpy as np

KINDS = ("ergodic", "reversible", "doubly_stochastic", "birth_death")
FORMATS = ("json", "human")


def _matrix_csv(rows) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)


def _path_chain(n: int, p: float):
    """Symmetric path: P[i, i +- 1] = p, the rest of each row on the diagonal."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                rows[i][j] = p
        rows[i][i] = 1.0 - sum(rows[i])
    return rows


def _cycle(n: int):
    return [[1.0 if j == (i + 1) % n else 0.0 for j in range(n)] for i in range(n)]


# hand-made chain files: name -> text
FILES = {
    "ce.csv": "0.9,0.1,0\n0.5,0,0.5\n0,0.1,0.9\n",
    "uniform4.csv": _matrix_csv([[0.25] * 4] * 4),
    "two_1e-4.csv": "0.9999,0.0001\n0.0001,0.9999\n",
    "two_1e-8.csv": "0.99999999,1e-8\n1e-8,0.99999999\n",
    "two_block.csv": "0.5,0.49999999,1e-8,0\n0.5,0.5,0,0\n0,0,0.5,0.5\n1e-8,0,0.5,0.49999999\n",
    "path16_1e-3.csv": _matrix_csv(_path_chain(16, 1e-3)),
    "path8_1e-4.csv": _matrix_csv(_path_chain(8, 1e-4)),
    "cycle2.csv": _matrix_csv(_cycle(2)),
    "cycle3.csv": _matrix_csv(_cycle(3)),
    "reducible.csv": "1,0\n0,1\n",
    "absorbing.csv": "0.5,0.5\n0,1\n",
    "one.json": '{"P": [[1.0]]}',
    "one.csv": "1\n",
    "labels.json": '{"states": ["sun", "rain", "fog"], '
                   '"P": [[0.8, 0.15, 0.05], [0.4, 0.5, 0.1], [0.3, 0.3, 0.4]]}',
    "numeric_labels.json": '{"states": [3, 7.5], "P": [[0.8, 0.2], [0.4, 0.6]]}',
    "bad_json.json": "{not json",
    "bad_states.json": '{"states": ["a", "a"], "P": [[0.5, 0.5], [0.5, 0.5]]}',
    "bool_p.json": '{"P": [[0.5, 0.5], [true, false]]}',
    "string_p.json": '{"P": [["0.5", "0.5"], ["0.5", "0.5"]]}',
    # not reversible, but detailed balance fails by only 3.3e-10
    "rotating_1e-9.csv": "0.999999999,1e-09,0\n0,0.999999999,1e-09\n1e-09,0,0.999999999\n",
    "no_p.json": '{"Q": [[1.0]]}',
    "ragged.csv": "0.5,0.5\n1\n",
    "nonsquare.csv": "0.5,0.5\n",
    "text.csv": "0.5,x\n0.5,0.5\n",
    "empty.csv": "\n",
    "negative.csv": "1.5,-0.5\n0.5,0.5\n",
    "row_sum.csv": "0.5,0.6\n0.5,0.5\n",
    "nan.csv": "nan,1\n0.5,0.5\n",
}

# chains made by `generate`: (n, kind, seed)
GENERATED = [(n, kind, seed) for n in (2, 3, 5, 8, 9, 16, 32, 64)
             for kind in KINDS for seed in (0, 1)]


def _gen_name(n: int, kind: str, seed: int) -> str:
    return f"{kind}_{n}_s{seed}.json"


def command_lines() -> list[tuple[list[str], dict]]:
    """Every recorded command line with the environment it runs under."""
    cases: list[tuple[list[str], dict]] = []

    def add(*argv, env=None):
        cases.append((list(argv), env or {}))

    def both(*argv):
        for fmt in FORMATS:
            add(*argv, "--format", fmt)

    # help, version and usage errors
    add("--help")
    add("--version")
    for command in ("analyze", "sumrule", "forest-verify", "simulate",
                    "counterexample", "generate"):
        add(command, "--help")
    add()
    add("frobnicate")
    add("analyze")
    add("analyze", "ce.csv", "--format", "xml")
    add("analyze", "ce.csv", "--tolerance", "nope=1")
    add("analyze", "ce.csv", "--tolerance", "pivot")
    add("analyze", "ce.csv", "--tolerance", "pivot=abc")
    add("analyze", "ce.csv", "--tolerance", "row_sum_reject=nan")
    add("analyze", "ce.csv", "--tolerance", "identity_relative=-1")
    add("analyze", "ce.csv", "--tolerance", "triangle=1e-6")
    add("analyze", "ce.csv", "--tolerance", "stationary_residual=1e-6")
    add("sumrule", "ce.csv", "--trials", "-3")
    add("generate", "4", "ergodic", "env.json", env={"MR_SEED": "x"})
    for pairs in ("1,9", "1,3;2,2", "1", ";", "1,2,3"):
        add("simulate", "ce.csv", "--pairs", pairs)
        add("analyze", "ce.csv", "--simulate", "--pairs", pairs)
    add("generate", "1", "ergodic", "g1.json")
    add("generate", "65", "ergodic", "g65.json")
    add("generate", "3", "ergodic", "missing_dir/x.json")  # unwritable output
    # which error wins: Monte Carlo settings and MR_SEED are read before the
    # chain file, and sumrule's --trials before MR_SEED
    both("analyze", "missing.csv", "--simulate", "--replicas", "99")
    both("simulate", "missing.csv", "--replicas", "99")
    both("analyze", "missing.csv", "--simulate", "--pairs", "1,9")
    for fmt in FORMATS:
        add("sumrule", "missing.csv", "--trials", "-1", "--format", fmt, env={"MR_SEED": "x"})
        add("sumrule", "missing.csv", "--format", fmt, env={"MR_SEED": "x"})
        add("simulate", "missing.csv", "--format", fmt, env={"MR_SEED": "x"})
        add("analyze", "missing.csv", "--simulate", "--format", fmt, env={"MR_SEED": "x"})
    both("analyze", "ce.csv", "--pairs", "1,9")  # --pairs without --simulate is ignored

    # input errors
    for name in ("missing.csv", "bad_json.json", "bad_states.json", "no_p.json",
                 "bool_p.json", "string_p.json", "ragged.csv", "nonsquare.csv", "text.csv", "empty.csv",
                 "negative.csv", "row_sum.csv", "nan.csv"):
        both("analyze", name)
    for name in ("reducible.csv", "absorbing.csv", "cycle2.csv", "cycle3.csv"):
        both("analyze", name)
        both("sumrule", name)
        both("forest-verify", name)
        both("simulate", name, "--replicas", "100")

    # one-state chains
    for name in ("one.json", "one.csv"):
        both("analyze", name)
        both("analyze", name, "--simulate")
        both("sumrule", name)
        both("sumrule", name, "--trials", "0")
        both("forest-verify", name)
        both("simulate", name)

    # reports
    both("counterexample")
    add("counterexample", "--tolerance", "identity_relative=1e-20", "--format", "json")
    for n, kind, seed in GENERATED:
        name = _gen_name(n, kind, seed)
        add("generate", str(n), kind, name, "--seed", str(seed))
        both("analyze", name)
        # at n = 32 and 64, 20 trials take more than one stack and fewer than all
        both("sumrule", name, "--trials", "20", "--seed", str(seed))
        if n <= 8:
            both("forest-verify", name)
        if n <= 5:
            both("simulate", name, "--replicas", "300", "--seed", str(seed))
    # the random-target lemma is judged by the report's spread check alone
    add("analyze", "ergodic_5_s0.json", "--tolerance", "identity_relative=1e-20",
        "--format", "json")
    # Foster's trace identity is judged by the foster_trace_m* checks alone
    add("analyze", "reversible_5_s0.json", "--tolerance", "identity_relative=1e-20",
        "--format", "json")
    # the eigentime sum's imaginary residue has no tolerance of its own
    add("analyze", "ergodic_16_s0.json", "--tolerance", "eigentime_imag=1e-30",
        "--format", "json")
    # a chain file is JSON for a .json name and CSV for any other
    add("generate", "4", "ergodic", "g4.txt", "--seed", "0")
    add("analyze", "g4.txt", "--format", "json")
    add("forest-verify", "ergodic_9_s0.json", "--format", "json")
    add("forest-verify", "ergodic_16_s0.json", "--cap", "8", "--format", "json")
    add("generate", "5", "reversible", "g5.csv", "--seed", "3")
    add("generate", "4", "ergodic", "env.json", env={"MR_SEED": "31"})
    for name in ("ce.csv", "uniform4.csv", "two_1e-4.csv", "two_1e-8.csv",
                 "two_block.csv", "path16_1e-3.csv", "path8_1e-4.csv",
                 "labels.json", "numeric_labels.json", "g5.csv", "env.json"):
        both("analyze", name)
        both("sumrule", name, "--trials", "10")
        both("forest-verify", name, "--cap", "16")
    both("analyze", "rotating_1e-9.csv")
    both("sumrule", "rotating_1e-9.csv")
    both("forest-verify", "rotating_1e-9.csv")
    both("analyze", "ce.csv", "--eigentime", "off")
    both("analyze", "ce.csv", "--forest-cap", "2")
    both("analyze", "ce.csv", "--simulate", "--replicas", "400", "--seed", "4")
    both("analyze", "labels.json", "--simulate", "--pairs", "sun,fog;rain,sun",
         "--replicas", "400", "--seed", "5")
    both("analyze", "ce.csv", "--simulate", "--pairs", "1,3", "--replicas", "400",
         "--tolerance", "sigma_band=0")
    # 97 of 100 replicas are still running at a 2-step cap
    both("analyze", "ce.csv", "--simulate", "--pairs", "1,3", "--replicas", "100",
         "--max-steps", "2")
    add("analyze", "ce.csv", "--simulate", "--pairs", "1,3", "--replicas", "400",
        "--format", "json", env={"MR_SEED": "12"})
    both("simulate", "labels.json", "--pairs", "sun,fog", "--replicas", "400")
    both("simulate", "ce.csv", "--pairs", "1,3", "--replicas", "100", "--max-steps", "2")
    both("simulate", "ce.csv", "--pairs", "1,3", "--replicas", "99")
    add("simulate", "ce.csv", "--pairs", "all", "--replicas", "400", "--format", "json",
        env={"MR_SEED": "12"})
    add("sumrule", "ce.csv", "--trials", "0", "--format", "json")
    # a hypothesis error names the first failing trial: at pair_hypothesis =
    # 3e-16 trial 0 of ergodic_3_s0 passes and trial 2 fails, at 5e-16 trial 6
    for name in ("ce.csv", "ergodic_3_s0.json", "ergodic_5_s0.json"):
        both("sumrule", name, "--tolerance", "pair_hypothesis=0")
    for value in ("3e-16", "5e-16"):
        both("sumrule", "ergodic_3_s0.json", "--trials", "20",
             "--tolerance", f"pair_hypothesis={value}")
    add("sumrule", "ce.csv", "--format", "json", env={"MR_SEED": "8"})
    # a pivot threshold of 1 or more stops sumrule in a solve of the chain's
    # analysis, before any random pair is drawn
    for value in ("1", "1.5"):
        for name in ("ce.csv", "ergodic_3_s0.json", "birth_death_8_s1.json"):
            both("sumrule", name, "--tolerance", f"pivot={value}")
    add("generate", "4", "doubly_stochastic", "ds_sinkhorn.json",
        "--tolerance", "sinkhorn=1e-12")
    # Monte Carlo legs that draw both per row and stacked
    for kind in ("ergodic", "birth_death"):
        name = _gen_name(16, kind, 0)
        both("simulate", name, "--pairs", "1,16", "--replicas", "2000")
        both("analyze", name, "--simulate", "--pairs", "1,16", "--replicas", "2000")
    # replicas whose step sum passes int64, and replicas past int64 itself
    for replicas in ("1000000000000000000", "10000000000000000000"):
        add("simulate", "ce.csv", "--pairs", "1,3", "--replicas", replicas)
    return cases


def lu_solve_cases():
    """(name, a, b) inputs of direct ``linalg.lu_solve`` calls."""
    rng = np.random.default_rng(0)
    a3 = rng.standard_normal((3, 3))
    stack = rng.standard_normal((2, 3, 3))
    return [
        ("2-D, vector rhs", a3, rng.standard_normal(3)),
        ("2-D, block rhs", a3, rng.standard_normal((3, 2))),
        ("stack, vector rhs", stack, rng.standard_normal((2, 3))),
        ("stack, block rhs", stack, rng.standard_normal((2, 3, 4))),
        ("0 x 0", np.zeros((0, 0)), np.zeros(0)),
        ("stack of 0 x 0", np.zeros((2, 0, 0)), np.zeros((2, 0))),
        ("empty stack", np.zeros((0, 2, 2)), np.zeros((0, 2))),
        ("singular", np.ones((2, 2)), np.ones(2)),
        ("singular in stack", np.stack([np.eye(2), np.ones((2, 2))]), np.ones((2, 2))),
        ("zero pivot first", np.stack([np.zeros((2, 2)), np.eye(2)]), np.ones((2, 2))),
        ("scalar a", np.float64(2.0), np.ones(1)),
        ("1-D a of one", np.ones(1), np.ones(1)),
        ("1-D a of three", np.ones(3), np.ones(3)),
        ("4-D a", np.ones((1, 1, 2, 2)), np.ones((1, 1, 2))),
        ("2-D not square", np.ones((2, 3)), np.ones(2)),
        ("stack not square", np.ones((2, 3, 4)), np.ones((2, 3))),
        ("rhs rows", np.eye(2), np.ones((3, 1))),
        ("rhs vector length", np.eye(2), np.ones(3)),
        ("rhs 3-D for 2-D a", np.eye(2), np.ones((1, 2, 1))),
        ("scalar rhs", np.eye(2), np.float64(1.0)),
        ("stack rhs count", np.ones((2, 3, 3)), np.ones((3, 3))),
        ("stack rhs rows", np.ones((2, 3, 3)), np.ones((2, 4))),
        ("stack rhs not stacked", np.ones((2, 3, 3)), np.ones(3)),
        ("nan in a", np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
        ("inf in stack", np.stack([np.eye(2), np.full((2, 2), np.inf)]), np.ones((2, 2))),
        ("nan in rhs", np.eye(2), np.array([np.nan, 1.0])),
    ]


def _run_main(cli, argv: list[str], env: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if "MR_SEED" not in env:  # a seed set in the calling shell stays out
            os.environ.pop("MR_SEED", None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
        except Exception as exc:  # an escaped exception is the record
            return {"raises": f"{type(exc).__name__}: {exc}", "stdout": out.getvalue()}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_lu_solve(linalg, a, b) -> dict:
    try:
        x = linalg.lu_solve(a, b)
    except Exception as exc:  # the record is the exception itself
        return {"raises": f"{type(exc).__name__}: {exc}"}
    return {"shape": list(x.shape), "bytes": x.tobytes().hex()}


def capture(src: str, out_path: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from mrdist import cli, linalg

    record: dict[str, dict] = {}
    cwd = os.getcwd()
    out_path = os.path.abspath(out_path)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in FILES.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for argv, env in command_lines():
                key = " ".join(argv) + "".join(f" [{k}={v}]" for k, v in env.items())
                record[f"mrdist {key}".rstrip()] = _run_main(cli, argv, env)
        finally:
            os.chdir(cwd)
    for name, a, b in lu_solve_cases():
        record[f"lu_solve {name}"] = _run_lu_solve(linalg, a, b)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{len(record)} cases written to {out_path}")


def diff(before_path: str, after_path: str) -> int:
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)
    same = changed = 0
    for key in list(before) + [k for k in after if k not in before]:
        a, b = before.get(key), after.get(key)
        if a == b:
            same += 1
            continue
        changed += 1
        print(f"=== {key}")
        if a is None or b is None:
            print("    only in", "after" if a is None else "before")
            continue
        for field in sorted(set(a) | set(b)):
            if a.get(field) == b.get(field):
                continue
            old, new = a.get(field), b.get(field)
            if isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
                lines = difflib.unified_diff(
                    old.splitlines(), new.splitlines(), field, field, n=0, lineterm=""
                )
                for line in list(lines)[2:14]:
                    print("    " + line)
            else:
                print(f"    {field}: {old!r} -> {new!r}")
    print(f"{same} identical, {changed} differ")
    return 0 if changed == 0 else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "capture":
        capture(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``diff ... | head``): stop quietly, and
        # point stdout at devnull so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
