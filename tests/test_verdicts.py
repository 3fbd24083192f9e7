"""The verdicts of `analyze`, `sumrule` and `forest-verify` on slow-mixing chains.

This pins the verdict table of ROADMAP.md: for each chain, the exit code of
each command and either the sorted names of its failing checks or the type
of the error it reports. Every chain here is valid and ergodic, so each
failing check is a verdict about the tolerance scheme or the numerics, not
about the chain. A change that moves a row, in either direction, must say
so in a CHANGES.md line and update the ROADMAP table with it.
"""

import contextlib
import io
import json

import pytest

from mrdist import cli

FOREST = ["forest_hitting", "forest_omega", "forest_stationary"]
FOSTER = ["foster_first_formula", "foster_trace_m1", "foster_trace_m2", "foster_trace_m3"]
ORACLE = ["hitting_time_oracle"]

# chain file text, or (n, kind, seed) for `generate` -> expected
# (analyze, sumrule, forest-verify --cap 32), each (exit code, failing
# check names or error type)
TABLE = {
    "two_state_1e-4": ("0.9999,0.0001\n0.0001,0.9999\n", ((0, []), (0, []), (0, []))),
    "two_state_1e-5": ("0.99999,1e-05\n1e-05,0.99999\n", ((2, ORACLE), (0, []), (0, []))),
    "two_state_1e-6": ("0.999999,1e-06\n1e-06,0.999999\n", ((2, ORACLE), (0, []), (0, []))),
    "two_state_1e-8": (
        "0.99999999,1e-08\n1e-08,0.99999999\n",
        (
            (2, sorted(FOREST + FOSTER + ORACLE)),
            (2, [f"canonical_power_pair_m{m}" for m in (1, 2, 3)]),
            (2, FOREST),
        ),
    ),
    "two_block_1e-8": (
        "0.5,0.49999999,1e-8,0\n0.5,0.5,0,0\n0,0,0.5,0.5\n1e-8,0,0.5,0.49999999\n",
        (
            (2, ["forest_hitting", "forest_omega", *ORACLE]),
            (0, []),
            (2, ["forest_hitting", "forest_omega"]),
        ),
    ),
    # not reversible, but detailed balance fails by only 3.3e-10
    "rotating_1e-9": (
        "0.999999999,1e-09,0\n0,0.999999999,1e-09\n1e-09,0,0.999999999\n",
        (
            (2, sorted(FOREST + FOSTER + ORACLE + ["representation_commute_scaled"])),
            (1, "HypothesisViolatedError"),
            (2, FOREST),
        ),
    ),
    **{
        f"birth_death_32_s{seed}": (
            (32, "birth_death", seed),
            ((2, ORACLE) if seed in (0, 4, 5) else (0, []), (0, []), (0, [])),
        )
        for seed in range(6)
    },
}

COMMANDS = (["analyze"], ["sumrule"], ["forest-verify", "--cap", "32"])


def _run(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


def _verdict(argv) -> tuple[int, list[str] | str]:
    code, report = _run(argv)
    if "error" in report:
        return code, report["error"]["type"]
    return code, sorted(name for name, check in report["checks"].items() if not check["pass"])


@pytest.mark.parametrize("name", TABLE)
def test_verdict_table(name, tmp_path, monkeypatch):
    chain, expected = TABLE[name]
    monkeypatch.delenv("MR_SEED", raising=False)
    if isinstance(chain, str):
        path = tmp_path / f"{name}.csv"
        path.write_text(chain)
    else:
        n, kind, seed = chain
        path = tmp_path / f"{name}.json"
        assert _run(["generate", str(n), kind, str(path), "--seed", str(seed)])[0] == 0
    got = tuple(_verdict([cmd[0], str(path), *cmd[1:]]) for cmd in COMMANDS)
    assert got == expected
