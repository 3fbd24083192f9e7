#!/usr/bin/env python3
"""Benchmark of mrdist's command-line reports, checked against a reference.

Run one workload for a given time and print its metrics as the last line:

    python3 bench/run.py --workload analyze_small --seed 1 --seconds 20 --trace 0

Each report is one in-process ``mrdist.cli.main(argv)`` call with stdout
captured, made by a single caller in a closed loop. A run sets up (imports
mrdist from ``src/`` and writes its chain files), makes one untimed warm-up
round, then times whole rounds until ``--seconds`` have passed and at least
100 reports are done. Each timed report must repeat its warm-up output byte
for byte. After the timed phase the reference values of the chains are
computed and every warm-up output is checked against them.
``--trace 1`` times the calls into each module instead and prints the
per-layer metrics. ``--steadiness`` runs two sets of ten runs (seeds 101-110)
and prints each metric's spread and shift against its bound in
BENCHMARK.json.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3       # setup_s is the median of this many set-ups
PROBE_TIMEOUT_S = 60
MIN_REPORTS = 100       # so that at least ten latencies lie beyond p90
STEADY_SETS = 2         # --steadiness compares two sets of runs,
STEADY_SEEDS = range(101, 111)  # each of one run per seed


class BenchError(Exception):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_cli():
    """Import mrdist from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mrdist", "__init__.py")):
        raise BenchError(f"no mrdist sources under {src}")
    sys.path.insert(0, src)
    from mrdist import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        raise BenchError(f"imported mrdist from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def set_up(workload: str, seed: int, chain_dir: str):
    """Import mrdist and write the workload's chain files; the set-up time."""
    cli = import_cli()

    def generate(n, kind, gen_seed, path):
        code, out = call(cli, ["generate", str(n), kind, path, "--seed", str(gen_seed)])
        if code != 0:
            raise BenchError(f"mrdist generate {n} {kind} failed: {out}")

    reports = workloads.build(workload, seed, chain_dir, generate)
    return cli, reports, time.perf_counter() - T0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running this script's set-up alone."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    chain_dir = tempfile.mkdtemp(prefix=f"chains-{args.workload}-", dir=OUT_DIR)
    try:
        cli, reports, setup_main = set_up(args.workload, args.seed, chain_dir)
        if args.setup_probe:
            print(repr(setup_main))
            return 0
        return measure(args, cli, reports, setup_main)
    finally:
        shutil.rmtree(chain_dir, ignore_errors=True)


def measure(args, cli, reports, setup_main: float) -> int:
    import tracer as tracing

    # warm-up round, untimed: the output of each distinct report is kept and
    # checked against the reference after the timed phase, so that the
    # reference is not part of the process's peak RSS
    warm_up = {}
    for rep in reports:
        if rep not in warm_up:
            warm_up[rep] = call(cli, rep.argv)
    digests = {rep: (code, hashlib.blake2b(out.encode()).digest())
               for rep, (code, out) in warm_up.items()}
    problems: list[str] = []

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    latencies: list[float] = []
    visits: collections.Counter = collections.Counter()
    attempted = failed = out_bytes = 0
    start = time.perf_counter()
    while True:
        for rep in reports:
            if tracer is not None:
                tracer.report = attempted
            t = time.perf_counter()
            code, out = call(cli, rep.argv)
            latencies.append(time.perf_counter() - t)
            data = out.encode()
            if (code, hashlib.blake2b(data).digest()) != digests[rep]:
                problems.append(f"{rep.name}: output differs from its warm-up output")
            attempted += 1
            failed += code != 0
            out_bytes += len(data)
            visits[rep] += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and attempted >= MIN_REPORTS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = check_warm_up(reports, warm_up)
    for rep, verdict in verdicts.items():
        problems += [f"{rep.name}: {p}" for p in verdict.problems]

    if tracer is not None:
        metrics = tracing.per_layer_metrics(tracer, attempted, out_bytes)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        shares = tracing.layer_self_shares(tracer)
        log("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items())))
        log(f"traced: {attempted / elapsed:.3f} reports/s, "
            f"p50 {1e3 * statistics.median(latencies):.3f} ms")
    else:
        setups = [setup_main] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
        checks = sum(visits[rep] * verdict.checks for rep, verdict in verdicts.items())
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "reports_per_s": (attempted / elapsed, "1/s"),
            "report_ms_p50": (1e3 * statistics.median(latencies), "ms"),
            "report_ms_p90": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "checks_per_report": (checks / attempted, "count"),
            "accuracy_digits": (min(v.digits for v in verdicts.values()), "digits"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    for p in dict.fromkeys(problems):
        log(f"INCORRECT {p}")
    log(f"{args.workload}: {attempted} reports ({len(reports)} a round) in {elapsed:.2f} s, "
        f"{failed} failed")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def check_warm_up(reports, warm_up) -> dict:
    """Each distinct report's warm-up output checked against the reference."""
    import checker
    import reference

    t_ref = time.perf_counter()
    refs = {}
    verdicts = {}
    for rep, (code, out) in warm_up.items():
        if rep.chain_file not in refs:
            refs[rep.chain_file] = reference.reference(reference.read_chain_file(rep.chain_file))
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            raise BenchError(f"{rep.name}: output is not JSON: {exc}") from exc
        verdicts[rep] = checker.check_report(rep.command, doc, code, refs[rep.chain_file],
                                             known_fault=rep.known_fault)
    log(f"reference and checks: {time.perf_counter() - t_ref:.2f} s")
    return verdicts


def steadiness(args) -> int:
    """Two sets of runs; each end-to-end metric's spread and shift against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    sets = []
    for s in range(STEADY_SETS):
        results = []
        for seed in STEADY_SEEDS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                log(proc.stderr)
                raise BenchError(f"run with seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            log(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        sets.append(results)

    ok = True
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    if len(shares) != 1:
        ok = False
        log(f"failed share differs between runs: {sorted(shares)}")
    print(f"{args.workload}: failed share {sorted(shares)}")
    print(f"{'metric':<20} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>12} {'iqr' + str(i + 1):>7}" for i in range(STEADY_SETS))
        + "   shift")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        row, medians = [], []
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            row.append(f"{med:>12.6g} {spread:>7.2%}")
            ok = ok and spread <= bound
        # the second set's shift in the worse direction; either way it must stay in bound
        worse = medians[1] - medians[0] if m["better"] == "lower" else medians[0] - medians[1]
        shift = worse / medians[0]
        ok = ok and abs(shift) <= bound
        print(f"{name:<20} {bound:>6.2f} " + " ".join(row) + f"   {shift:+.2%}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of ten runs and print spreads and shifts")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.steadiness:
            return steadiness(args)
        if args.seconds is None and not args.setup_probe:
            parser.error("--seconds is required")
        return run(args)
    except BenchError as exc:
        log(f"bench: error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
