"""The narrative demos run to completion against the current package."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_triangle_counterexample.py",
        "02_four_representations.py",
        "03_sum_rules_and_kirchhoff.py",
        "04_forest_oracle.py",
        "05_monte_carlo.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
