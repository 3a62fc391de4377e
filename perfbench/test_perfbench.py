"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``.

They check that the fuzz harness reproduces ``run_fuzz``, that the tail
percentile keeps ten samples beyond it, that the tracer rebinds every by-name
import of an entry point, and that the benchmark is deterministic, traced or
not, and refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import p99  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, FUZZ_MAX_DIM, Fuzz, load_program  # noqa: E402

SMALL_FUZZ = 24  # covers the first oracle-confirmed failures of the default seed


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fuzz_rows_match_run_fuzz():
    prog = load_program()
    workload = Fuzz(count=SMALL_FUZZ)
    result = workload.run_pass(prog, workload.make_inputs(prog, DEFAULT_SEED), Speedometer())
    reports, failures = prog.checks.run_fuzz(
        DEFAULT_SEED, SMALL_FUZZ, spec_kwargs={"max_dim": FUZZ_MAX_DIM}
    )
    assert len(result.instance_scales) == SMALL_FUZZ
    assert all(scale > 0 for scale in result.instance_scales)
    ours = [(s, [r.as_dict() for r in reps]) for s, reps, _ in result.raw]
    assert ours == [(s, [r.as_dict() for r in reps]) for s, reps in reports]
    our_failures = [
        (s, r.check, c) for s, reps, conf in result.raw for r, c in zip(reps, conf) if r.failed
    ]
    assert our_failures == [(s, r.check, c) for s, r, c in failures]
    assert failures, "the small fuzz run should include a confirmed failure"


def test_tail_keeps_ten_samples_beyond():
    assert p99(range(2000)) == (1979, 20)  # the 99th percentile
    assert p99(range(1000)) == (989, 10)
    assert p99(range(14)) == (3, 10)
    assert p99(range(5)) == (0, 4)


def test_tracer_rebinds_every_import():
    prog = load_program()
    originals = {
        "paircomplex.kernel": prog.paircomplex.kernel,
        "oracles.kernel": prog.oracles.kernel,
        "checks.solve_columns": prog.checks.solve_columns,
        "gluing.complex_data": prog.gluing.complex_data,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for dotted, original in originals.items():
            mod, attr = dotted.split(".")
            assert getattr(getattr(prog, mod), attr) is not original
        assert prog.linalg.kernel is prog.paircomplex.kernel is prog.oracles.kernel
        # a binding restored behind the tracer's back is reported
        prog.oracles.kernel = originals["oracles.kernel"]
        with pytest.raises(RuntimeError, match="quiverhh.oracles.kernel"):
            tracer.verify()
    finally:
        tracer.uninstall()
    for dotted, original in originals.items():
        mod, attr = dotted.split(".")
        assert getattr(getattr(prog, mod), attr) is original
    assert len(tracer.names) == len(ENTRY_POINTS)


def test_two_runs_identical_and_trace_neutral():
    runs = [_bench("--workload", "verify-fan", "--seconds", "0", "--trace", t) for t in "001"]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
    details = [json.loads(run.stdout.splitlines()[-2]) for run in runs]
    assert details[0]["digests"] == details[1]["digests"] == details[2]["digests"]
    assert details[2]["layers"]["trace.coverage"] >= 0.95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = _bench("--workload", "fuzz", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout == ""
