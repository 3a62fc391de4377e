"""quiverhh benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz --seed 20260809 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed.  Its
timings are in reference seconds: measured time scaled by the machine's speed,
sampled between work items (see speed.py); the measured times are in the
report line under ``measured``.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from ``tracer.Tracer`` instead.  Every pass is checked against the
digests in ``expected.json``.  The last line of standard output is the result
object; the line before it is the full report (every end-to-end metric with
its unit, the error share, sample counts, per-check seconds, every traced
layer).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from speed import Speedometer  # noqa: E402
from tracer import ORACLES, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_program  # noqa: E402

SETUP_TRIALS = 7
MIN_COVERAGE = 0.95


def p99(values):
    """(tail value, number of samples above it).

    The nearest-rank 99th percentile when at least ten samples lie beyond it,
    as from 1000 samples on.  A shorter run reports the highest percentile that
    still has ten samples beyond it, and the minimum below eleven samples.
    """
    xs = sorted(values)
    rank = max(0, min(-(-99 * len(xs) // 100) - 1, len(xs) - 11))
    return xs[rank], len(xs) - 1 - rank


def setup(workload, seed: int, speed: Speedometer):
    """Import the program and build the inputs SETUP_TRIALS times.

    Returns the median time of a trial in reference seconds and measured.
    """
    times, ref_times = [], []
    before = speed.sample()
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        prog = load_program()
        items = workload.make_inputs(prog, seed)
        times.append(time.perf_counter() - t0)
        after = speed.sample()
        ref_times.append(times[-1] * speed.scale(before, after))
        before = after
    return prog, items, statistics.median(ref_times), statistics.median(times)


class Checker:
    """Judges every pass against the recorded digests and the first pass."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.expected = json.loads((HERE / "expected.json").read_text())[workload.name]
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.first = None  # (full digest, complex_data misses) of the first pass
        self.summary = {}
        self.digests = {}

    def judge(self, result):
        canon = self.workload.canonical(result)
        full, invariants = canon.digests
        errors = canon.errors
        problems = []
        if invariants != self.expected["invariants"]:
            problems.append("invariant output differs from the recorded digest")
        if self.seed == DEFAULT_SEED:
            if full != self.expected["default_seed_full"]:
                problems.append("default-seed output differs from the recorded digest")
            fixture = self.expected.get("default_seed_summary", {})
            if canon.summary != fixture:
                problems.append(f"fixture summary {canon.summary} != {fixture}")
        if problems:
            errors = canon.ops
        if self.first is None:
            self.first = (full, result.complex_misses)
        if full != self.first[0]:
            problems.append("a pass gave different output from the first pass")
        if result.complex_misses != self.first[1]:
            problems.append(
                f"a pass built {result.complex_misses} pair complexes, the first built "
                f"{self.first[1]}: a pass reused cached complexes"
            )
        self.problems += [p for p in problems if p not in self.problems]
        self.attempted += canon.ops
        self.failed += errors
        self.summary = canon.summary
        self.digests = {"full": full, "invariants": invariants}
        result.raw = None  # keeps peak memory independent of the number of passes


def measure(seconds: float, run_group):
    """Call ``run_group`` until the next call would overrun ``seconds`` (at least once)."""
    start = time.perf_counter()
    groups = []
    while True:
        groups.append(run_group())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(groups) > seconds:
            return groups


def timings(workload, results, ref: bool) -> dict:
    """Median pass wall, instance p50 and p99 and the samples behind them.

    In reference seconds when ``ref``, else as measured.
    """
    if ref:
        walls = [r.ref_wall for r in results]
        instances = [t for r in results for t in r.ref_instance_times]
    else:
        walls = [r.wall for r in results]
        instances = [t for r in results for t in r.instance_times]
    samples = instances if workload.per_instance_latency else walls
    tail, beyond = p99(samples)
    return {
        "wall_s": statistics.median(walls),
        "instance_ms_p50": 1e3 * statistics.median(samples),
        "instance_ms_p99": 1e3 * tail,
        "pass_walls": walls,
        "instance_samples": len(samples),
        "instance_samples_beyond_p99": beyond,
    }


def end_to_end(workload, prog, items, seconds, checker, speed):
    def one_pass():
        result = workload.run_pass(prog, items, speed)
        checker.judge(result)
        return result

    results = measure(seconds, one_pass)
    ref = timings(workload, results, ref=True)
    metrics = {
        name: ref.pop(name) for name in ("wall_s", "instance_ms_p50", "instance_ms_p99")
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "passes": len(results),
        **ref,
        "measured": timings(workload, results, ref=False),
        "kernel_s": {
            "median": statistics.median(speed.samples),
            "min": min(speed.samples),
            "max": max(speed.samples),
            "samples": len(speed.samples),
        },
        "check_seconds_median": {
            k: statistics.median(r.check_seconds[k] for r in results)
            for k in sorted(results[0].check_seconds)
        },
    }
    return metrics, detail


def layer_metrics(tracer: Tracer, result) -> dict:
    stats, top_ns = tracer.layer_stats()
    out = {}
    for name, (calls, self_ns, _) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9
    cells, nnz = tracer.elim
    out["linalg.elim_cells"] = cells
    out["linalg.elim_nnz"] = nnz
    out["linalg.elim_density"] = nnz / cells if cells else 0.0
    oracle_calls = sum(stats[name][0] for name in ORACLES)
    out["oracles.distinct_ratio"] = len(tracer.oracle_args) / oracle_calls if oracle_calls else 0.0
    out["checks.confirm_failure.s"] = stats["checks.confirm_failure"][2] / 1e9
    for check, secs in result.check_seconds.items():
        out[f"checks.{check}.s"] = secs
    out["paircomplex.complex_data.misses"] = result.complex_misses
    out["trace.coverage"] = top_ns / 1e9 / result.wall
    return out


def per_layer(workload, prog, items, seconds, checker, speed):
    tracer = Tracer()
    per_pass = []
    walls = {"untraced": [], "traced": []}

    def untraced_then_traced():
        plain = workload.run_pass(prog, items, speed)
        checker.judge(plain)
        walls["untraced"].append(plain.ref_wall)
        tracer.reset()
        tracer.install()
        try:
            traced = workload.run_pass(prog, items, speed)
        finally:
            tracer.uninstall()
        checker.judge(traced)  # any byte that differs from the untraced pass is flagged
        walls["traced"].append(traced.ref_wall)
        per_pass.append(layer_metrics(tracer, traced))

    measure(seconds, untraced_then_traced)
    # median_low reports a value one traced pass measured; counts stay integers
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["untraced"])
    )
    if metrics["trace.coverage"] < MIN_COVERAGE:
        checker.problems.append(
            f"top-level spans cover {metrics['trace.coverage']:.3f} of the traced wall, "
            f"below {MIN_COVERAGE}"
        )
    return metrics, {"pairs": len(per_pass)}


def declared(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quiverhh" / "__init__.py").is_file():
        print(f"error: no quiverhh sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    speed = Speedometer()
    prog, items, setup_s, measured_setup_s = setup(workload, args.seed, speed)
    checker = Checker(workload, args.seed)
    if args.trace:
        metrics, detail = per_layer(workload, prog, items, args.seconds, checker, speed)
        units = declared("per_layer")
    else:
        metrics, detail = end_to_end(workload, prog, items, args.seconds, checker, speed)
        metrics["setup_s"] = setup_s
        detail["measured"]["setup_s"] = measured_setup_s
        units = declared("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        checker.problems.append(f"metrics not measured: {', '.join(missing)}")
    declared_metrics = {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics}
    error_share = {"value": checker.failed / checker.attempted, "unit": "share"}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "claim": None,
        "fixture": checker.summary,
        "digests": checker.digests,
        "problems": checker.problems,
        **detail,
    }
    if args.trace:
        report["layers"] = metrics
    else:
        report["end_to_end"] = dict(declared_metrics, error_share=error_share)
    print(json.dumps(report, sort_keys=True))
    correct = not checker.problems and checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": declared_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
