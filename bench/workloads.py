"""The benchmark's workloads: the reports each round makes, and their chains.

Every report is one ``mrdist`` command line. A round is a fixed list of
reports, visited in a seeded order, and every run is made of whole rounds.
Chain files are written with ``mrdist generate`` from seeds derived from the
benchmark seed, except where a workload needs inputs that do not depend on
it (see the comments in `build`).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("analyze_small", "analyze_large", "forest_verify", "monte_carlo")
KINDS = ("ergodic", "reversible", "doubly_stochastic", "birth_death")
DENSE_KINDS = ("ergodic", "reversible", "doubly_stochastic")

# the triangle-inequality counterexample, written out independently of mrdist
COUNTEREXAMPLE = [[0.9, 0.1, 0.0], [0.5, 0.0, 0.5], [0.0, 0.1, 0.9]]

SUMRULE_TRIALS = 20          # keeps a sumrule report as costly as an analyze report
MC_SEED = 20_260_808         # the Monte Carlo acceptance criterion's seed
MC_REPLICAS = 100_000
# criterion-10 chains (n, generator seed) and the pair simulated on each. The
# pairs are the cheapest of each chain, 0.15-0.18 s a report, and the
# counterexample pair costs about 0.45 s, so it fills the top fifth of the
# latencies: p50 falls among the cheap pairs and p90 on the counterexample
MC_CHAINS = ((4, 0, "1,2"), (5, 1, "1,2"), (6, 2, "4,5"), (8, 3, "3,6"))
MC_COUNTEREXAMPLE_PAIR = "2,3"

# birth-death chains in analyze_large use fixed generator seeds, so that which
# of them hit the hitting_agreement fault does not depend on the benchmark seed
BIRTH_DEATH_SEEDS = {16: (0,), 32: (0, 1, 2), 64: (0,)}


@dataclass(frozen=True)
class Report:
    name: str
    command: str               # the subcommand, which selects the checker
    argv: tuple[str, ...]
    chain_file: str
    known_fault: bool = False  # may exit 2 through the birth-death fault


def write_counterexample(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"states": ["1", "2", "3"], "P": COUNTEREXAMPLE}, fh)


def _analyze(path: str, **kw) -> Report:
    return Report(f"analyze {os.path.basename(path)}", "analyze",
                  ("analyze", path, "--format", "json"), path, **kw)


def _sumrule(path: str, seed: int) -> Report:
    return Report(
        f"sumrule {os.path.basename(path)}", "sumrule",
        ("sumrule", path, "--trials", str(SUMRULE_TRIALS), "--seed", str(seed),
         "--format", "json"),
        path,
    )


def build(workload: str, seed: int, chain_dir: str, generate) -> list[Report]:
    """One round of ``workload``; ``generate(n, kind, seed, path)`` writes a chain."""
    gen_seeds = itertools.count(1000 * seed)
    ce_path = os.path.join(chain_dir, "counterexample.json")
    write_counterexample(ce_path)

    def chain_file(n: int, kind: str, gen_seed: int | None = None) -> str:
        gen_seed = next(gen_seeds) if gen_seed is None else gen_seed
        path = os.path.join(chain_dir, f"{kind}-n{n}-s{gen_seed}.json")
        if not os.path.exists(path):
            generate(n, kind, gen_seed, path)
        return path

    if workload == "analyze_small":
        # about 5 ms a report, mostly fixed per-call cost
        reports = [
            Report("counterexample", "counterexample", ("counterexample", "--format", "json"),
                   ce_path),
            _sumrule(ce_path, seed),
        ]
        for kind in KINDS:
            for n in (2, 3, 4):
                path = chain_file(n, kind)
                reports += [_analyze(path), _sumrule(path, seed)]
    elif workload == "analyze_large":
        # n = 16, 32, 64 cost about 10-15, 20-35 and 60-120 ms a report. Each n = 32
        # report is visited three times, so that n = 32 holds ranks 0.2-0.8
        # (p50 in its middle) and n = 64 ranks 0.8-1.0 (p90 in its middle)
        reports = []
        for n, visits in ((16, 1), (32, 3), (64, 1)):
            for kind in KINDS:
                if kind == "birth_death":
                    for bd_seed in BIRTH_DEATH_SEEDS[n]:
                        reports.append(_analyze(chain_file(n, kind, bd_seed), known_fault=True))
                else:
                    reports += [_analyze(chain_file(n, kind))] * visits
    elif workload == "forest_verify":
        # dense n = 6 chains all have the same forests to enumerate, ~55 ms each
        reports = []
        for kind in DENSE_KINDS:
            for _ in range(2):
                path = chain_file(6, kind)
                reports.append(Report(f"forest-verify {os.path.basename(path)}", "forest-verify",
                                     ("forest-verify", path, "--format", "json"), path))
    elif workload == "monte_carlo":
        # the acceptance chains and seed are fixed; the benchmark seed only
        # sets the visiting order
        reports = []
        for path, pair in [(ce_path, MC_COUNTEREXAMPLE_PAIR)] + [
            (chain_file(n, "ergodic", gen_seed), pair) for n, gen_seed, pair in MC_CHAINS
        ]:
            reports.append(Report(
                f"simulate {os.path.basename(path)} {pair}", "simulate",
                ("simulate", path, "--pairs", pair, "--replicas", str(MC_REPLICAS),
                 "--seed", str(MC_SEED), "--format", "json"),
                path,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(reports)
    return reports
