"""Spans around the public functions of each mrdist module.

The tracer replaces each traced function, wherever a module of the package
holds a reference to it, with a wrapper that records a span: its name, start,
end, parent span and report. Rebinding every reference matters because
``forest`` and ``simulate`` import ``check_ergodicity`` by name, so patching
``mrdist.chain`` alone would miss their calls. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions whose calls are timed
TRACED = {
    "cli": ("main", "load_chain", "analyze_report", "dumps_json"),
    "chain": ("check_ergodicity", "analyze", "hitting_times_oracle"),
    "linalg": ("lu_solve", "eigenvalues"),
    "resistance": (
        "omega_from_fundamental",
        "omega_from_group_inverse",
        "omega_from_hitting",
        "omega_from_commute",
        "metric_check",
        "sum_rule",
        "make_sum_rule_pair",
    ),
    "forest": ("enumerate_forests",),
    "simulate": ("simulate_hitting",),
}

OMEGA_CONSTRUCTIONS = tuple(
    f"resistance.{name}" for name in TRACED["resistance"] if name.startswith("omega_from_")
)


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, report index, steps]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.report = -1

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mrdist" or name.startswith("mrdist."))]
        for layer, names in TRACED.items():
            module = sys.modules[f"mrdist.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        counts_steps = span_name == "simulate.simulate_hitting"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.report, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts_steps:
                span[5] = round(result.mean * result.replicas_used)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "steps": 0}
        )
        for (name, start, end, _, _, steps), child_s in zip(self.spans, child):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s
            t["steps"] += steps
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report, steps in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "report": report, "steps": steps,
                }) + "\n")


def per_layer_metrics(tracer: Tracer, reports: int, report_bytes: int) -> dict:
    """The per-layer metrics, per report unless stated otherwise."""
    t = tracer.totals()

    def get(name: str, key: str) -> float:
        return t[name][key] if name in t else 0.0

    def ms(name: str, key: str = "s") -> float:
        return 1e3 * get(name, key) / reports

    legs = get("simulate.simulate_hitting", "calls")
    sim_s = get("simulate.simulate_hitting", "s")
    steps = get("simulate.simulate_hitting", "steps")
    values = {
        "cli.main.self_ms": (ms("cli.main", "self_s"), "ms"),
        "cli.load_chain.ms": (ms("cli.load_chain"), "ms"),
        "cli.analyze_report.self_ms": (ms("cli.analyze_report", "self_s"), "ms"),
        "cli.dumps_json.ms": (ms("cli.dumps_json"), "ms"),
        "cli.report_kb": (report_bytes / 1000.0 / reports, "kB"),
        "chain.check_ergodicity.calls": (get("chain.check_ergodicity", "calls") / reports, "count"),
        "chain.check_ergodicity.ms": (ms("chain.check_ergodicity"), "ms"),
        "chain.analyze.self_ms": (ms("chain.analyze", "self_s"), "ms"),
        "chain.hitting_times_oracle.self_ms": (ms("chain.hitting_times_oracle", "self_s"), "ms"),
        "linalg.lu_solve.calls": (get("linalg.lu_solve", "calls") / reports, "count"),
        "linalg.lu_solve.ms": (ms("linalg.lu_solve"), "ms"),
        "linalg.eigenvalues.ms": (ms("linalg.eigenvalues"), "ms"),
        "resistance.omega.ms": (sum(ms(name) for name in OMEGA_CONSTRUCTIONS), "ms"),
        "resistance.metric_check.ms": (ms("resistance.metric_check"), "ms"),
        "resistance.sum_rule.ms": (ms("resistance.sum_rule"), "ms"),
        "resistance.make_sum_rule_pair.ms": (ms("resistance.make_sum_rule_pair"), "ms"),
        "forest.enumerate_forests.ms": (ms("forest.enumerate_forests"), "ms"),
        "forest.enumerate_forests.calls": (get("forest.enumerate_forests", "calls") / reports, "count"),
        "simulate.simulate_hitting.ms": (1e3 * sim_s / legs if legs else 0.0, "ms"),
        "simulate.replica_steps": (steps / reports, "count"),
        "simulate.steps_per_s": (steps / sim_s if sim_s else 0.0, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_self_shares(tracer: Tracer) -> dict[str, float]:
    """Share of all traced report time spent in each layer's own code."""
    t = tracer.totals()
    total = t["cli.main"]["s"] if "cli.main" in t else 0.0
    shares: dict[str, float] = defaultdict(float)
    for name, v in t.items():
        shares[name.split(".")[0]] += v["self_s"] / total if total else 0.0
    return dict(shares)
