"""The narrative demos run to completion against the current package.

Demo 05 is left out: it repeats the Monte Carlo legs of acceptance
criterion 10, the slowest test of the suite.
"""

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
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
